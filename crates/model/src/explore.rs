//! Breadth-first exploration of the reachable state graph.
//!
//! BFS from the quiescent initial state with hashed-state dedup over the
//! canonical (symmetry-reduced) encoding. Concrete machines are kept only
//! for frontier states — visited states store just their canonical key and
//! a parent link, so memory scales with the frontier, not the graph.
//!
//! Building and keying a successor reuses buffers instead of allocating:
//! every successor is built in one scratch harness (`clone_from`, which
//! refills its buffers), its key in one `KeyEncoder`, and the visited map
//! is probed with the key as a slice. Only a newly discovered state is
//! cloned into the frontier and its key copied into the map.
//!
//! Three failure detectors run:
//!
//! * **Per-transition invariants** — [`ProtocolHarness::check`] returns a
//!   [`zerodev_core::StepViolation`] for the harness's own value checks
//!   (write tokens, recoverability) and for the per-block predicates of
//!   `zerodev_core`'s `invariants` module (SWMR, directory precision, entry
//!   placement, …) over its shadow view.
//! * **Machine panics** — the concrete [`zerodev_core::System`] and its
//!   audit oracle, which checks the same predicates from the transaction
//!   stream, `panic!` on violations; every transition runs under
//!   [`apply_caught`] so a panic becomes a counterexample instead of
//!   aborting the sweep.
//! * **Drain check** — after full exploration, reverse reachability from
//!   the quiescent states: a state from which no path drains the machine is
//!   a livelock (e.g. an entry housed in memory that can never be
//!   recalled), reported with its shortest trace.
//!
//! Because BFS discovers states in distance order, the reconstructed trace
//! to any violating state is a *shortest* counterexample.

use crate::config::ModelConfig;
use crate::state::KeyEncoder;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use zerodev_core::step::{ProtocolEvent, ProtocolHarness};

thread_local! {
    static CATCHING: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Applies `ev` to `h` with machine panics caught: `Err` carries the
/// rendered [`zerodev_core::StepViolation`] or the panic message. The
/// panic is not printed — expected violations must not spam stderr — and
/// `h` must be discarded after one.
///
/// # Errors
/// Returns the violation or panic message of the failed transition.
pub fn apply_caught(h: &mut ProtocolHarness, ev: ProtocolEvent) -> Result<(), String> {
    // One process-wide hook that stays silent while a thread is inside
    // this call and defers to the previous hook otherwise.
    QUIET_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CATCHING.with(Cell::get) {
                prev(info);
            }
        }));
    });
    CATCHING.with(|f| f.set(true));
    let res = panic::catch_unwind(AssertUnwindSafe(|| h.apply(ev)));
    CATCHING.with(|f| f.set(false));
    match res {
        Err(payload) => Err(zerodev_common::panic_message(&*payload)),
        Ok(res) => res.map_err(|v| v.to_string()),
    }
}

/// Exploration bounds (full exploration uses `Limits::default()`).
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Stop enqueueing new states beyond this many.
    pub max_states: usize,
    /// Do not expand states deeper than this.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_states: usize::MAX,
            max_depth: usize::MAX,
        }
    }
}

/// A violated invariant plus the shortest event trace reaching it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// What failed (a `StepViolation` rendering or a caught panic message).
    pub message: String,
    /// Events from the quiescent initial state to the violation, in order.
    pub trace: Vec<ProtocolEvent>,
}

impl Violation {
    /// Pretty-prints the counterexample in the oracle's event vocabulary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("counterexample (shortest trace from quiescent start):\n");
        for (i, ev) in self.trace.iter().enumerate() {
            out.push_str(&format!("  [{i:3}] {ev}\n"));
        }
        out.push_str(&format!("violation: {}\n", self.message));
        out
    }
}

/// The outcome of one exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Configuration label.
    pub name: String,
    /// Distinct canonical states reached.
    pub states: usize,
    /// Transitions taken (including edges into already-visited states).
    pub transitions: usize,
    /// True when a limit stopped the sweep before exhaustion.
    pub truncated: bool,
    /// First invariant violation or machine panic, if any.
    pub violation: Option<Violation>,
    /// A reachable state with no path back to quiescence (livelock), if
    /// any. Only computed on untruncated, violation-free sweeps.
    pub undrainable: Option<Violation>,
    /// Shortest traces to a few of the deepest states, with the canonical
    /// key each ends in — conformance tests replay these through fresh
    /// machines.
    pub sample_traces: Vec<(Vec<ProtocolEvent>, Vec<u8>)>,
}

impl Exploration {
    /// True when the sweep finished exhaustively with nothing wrong.
    pub fn clean(&self) -> bool {
        self.violation.is_none() && self.undrainable.is_none()
    }
}

fn trace_to(parents: &[Option<(u32, ProtocolEvent)>], mut id: u32) -> Vec<ProtocolEvent> {
    let mut trace = Vec::new();
    while let Some(Some(&(p, ev))) = parents.get(id as usize).map(Option::as_ref) {
        trace.push(ev);
        id = p;
    }
    trace.reverse();
    trace
}

/// Exhaustively explores `mc` under `limits`.
///
/// # Panics
/// Panics when the configuration itself fails validation (the matrix in
/// `main.rs` and the tests only build valid ones).
pub fn explore(mc: &ModelConfig, limits: &Limits) -> Exploration {
    let h0 = ProtocolHarness::new(mc.cfg.clone(), mc.blocks.clone(), true)
        .expect("model configuration validates");
    let mut keys = KeyEncoder::default();
    let k0 = keys.key(&h0).to_vec();
    // Every successor is built here before its key says whether it is new.
    let mut next = h0.clone();

    let mut visited: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut parents: Vec<Option<(u32, ProtocolEvent)>> = Vec::new();
    let mut quiescent: Vec<bool> = Vec::new();
    let mut succs: Vec<Vec<u32>> = Vec::new();
    let mut queue: VecDeque<(ProtocolHarness, u32, u32)> = VecDeque::new();

    visited.insert(k0, 0);
    parents.push(None);
    quiescent.push(h0.is_quiescent());
    succs.push(Vec::new());
    queue.push_back((h0, 0, 0));

    let mut transitions = 0usize;
    let mut truncated = false;

    while let Some((h, id, depth)) = queue.pop_front() {
        if depth as usize >= limits.max_depth {
            truncated = true;
            continue;
        }
        for ev in h.enabled_events() {
            next.clone_from(&h);
            let res = apply_caught(&mut next, ev);
            transitions += 1;
            if let Err(message) = res {
                let mut trace = trace_to(&parents, id);
                trace.push(ev);
                return Exploration {
                    name: mc.name.clone(),
                    states: visited.len(),
                    transitions,
                    truncated,
                    violation: Some(Violation { message, trace }),
                    undrainable: None,
                    sample_traces: Vec::new(),
                };
            }
            let key = keys.key(&next);
            let succ = match visited.get(key) {
                Some(&known) => known,
                None => {
                    let nid = parents.len() as u32;
                    visited.insert(key.to_vec(), nid);
                    parents.push(Some((id, ev)));
                    quiescent.push(next.is_quiescent());
                    succs.push(Vec::new());
                    if parents.len() <= limits.max_states {
                        queue.push_back((next.clone(), nid, depth + 1));
                    } else {
                        truncated = true;
                    }
                    nid
                }
            };
            succs
                .get_mut(id as usize)
                .expect("state id in range")
                .push(succ);
        }
    }

    // Livelock / drain check: every reachable state must be able to drain
    // back to a quiescent state (all copies evicted). Reverse reachability
    // from the quiescent states over the explored graph.
    let undrainable = if truncated {
        None
    } else {
        let n = succs.len();
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (from, outs) in succs.iter().enumerate() {
            for &to in outs {
                preds
                    .get_mut(to as usize)
                    .expect("state id in range")
                    .push(from as u32);
            }
        }
        let mut drains = vec![false; n];
        let mut bfs: VecDeque<u32> = (0..n as u32)
            .filter(|&i| *quiescent.get(i as usize).expect("in range"))
            .collect();
        for &i in &bfs {
            *drains.get_mut(i as usize).expect("in range") = true;
        }
        while let Some(i) = bfs.pop_front() {
            for &p in preds.get(i as usize).expect("in range") {
                let d = drains.get_mut(p as usize).expect("in range");
                if !*d {
                    *d = true;
                    bfs.push_back(p);
                }
            }
        }
        drains.iter().position(|d| !d).map(|stuck| Violation {
            message: "no event sequence drains this state back to quiescence (livelock)"
                .to_string(),
            trace: trace_to(&parents, stuck as u32),
        })
    };

    // Sample traces for conformance replay: the last few discovered states
    // are among the deepest (BFS discovery order).
    let mut sample_traces = Vec::new();
    if undrainable.is_none() {
        let by_id: HashMap<u32, &Vec<u8>> = visited.iter().map(|(k, &v)| (v, k)).collect();
        let n = parents.len() as u32;
        let take = 6u32.min(n);
        for id in (n - take)..n {
            let key = by_id.get(&id).expect("every id has a key");
            sample_traces.push((trace_to(&parents, id), (*key).clone()));
        }
    }

    Exploration {
        name: mc.name.clone(),
        states: visited.len(),
        transitions,
        truncated,
        violation: None,
        undrainable,
        sample_traces,
    }
}
