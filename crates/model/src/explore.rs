//! Breadth-first exploration of the reachable state graph.
//!
//! BFS from the quiescent initial state with hashed-state dedup over the
//! canonical (symmetry-reduced) encoding. Visited states store just their
//! canonical key, a parent link and their successor ids. A frontier state
//! is stored as its image ([`ProtocolHarness::snap`]) with the runs of zero
//! bytes packed ([`zerodev_common::snap::pack`]): a few hundred bytes where
//! a whole machine takes several kilobytes. The search holds two concrete
//! machines: the state being expanded, restored from its image when it
//! leaves the queue, and the scratch harness its successors are built in.
//!
//! Building and keying a successor reuses buffers instead of allocating:
//! every successor is built in the scratch harness (`clone_from`, which
//! refills its buffers), its key in one `KeyEncoder`, and the visited map
//! is probed with the key as a slice. Only a newly discovered state is
//! imaged into the frontier (written and packed in reused buffers, then
//! copied into an exact-size one) and its key copied into the map.
//!
//! **Symmetric successors.** Two cores of one socket with equal signatures
//! (the per-core columns the key sorts by) are interchangeable: swapping
//! them changes no byte of the key, so the same event (same block, same op
//! or evict kind) of either reaches one canonical successor. A frontier
//! state is therefore expanded once per class of such cores: only the
//! events of each class's lowest-indexed core are applied and keyed, and
//! every other core of the class gets that core's successor for its same
//! event. Those edges still count in `transitions` and in the successor
//! lists the drain check walks, and a representative's events come first
//! in `enabled_events`, so the exploration reads exactly as one that
//! applies every event.
//!
//! Three failure detectors run:
//!
//! * **Per-state invariants** — [`ProtocolHarness::check`] returns a
//!   [`StepViolation`] for the harness's own value checks
//!   (write tokens, recoverability) and for the per-block predicates of
//!   `zerodev_core`'s `invariants` module (SWMR, directory precision, entry
//!   placement, …) over its shadow view. It runs once per canonical state,
//!   when the state is first reached: everything it reads is part of the
//!   key and every rule it checks is covariant under core relabelling, so
//!   every state with that key gets the same verdict. A transition applies
//!   its event with [`ProtocolHarness::transition`], which checks only the
//!   event contract and the data the event itself serves.
//! * **Machine panics** — the concrete [`zerodev_core::System`] and its
//!   audit oracle, which checks the same predicates from the transaction
//!   stream, `panic!` on violations; every transition and every check runs
//!   under the panic catch of [`apply_caught`] so a panic becomes a
//!   counterexample instead of aborting the sweep.
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
use zerodev_common::snap::{self, SnapReader, SnapWriter};
use zerodev_common::CoreId;
use zerodev_core::step::{ProtocolEvent, ProtocolHarness};
use zerodev_core::StepViolation;

thread_local! {
    static CATCHING: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Runs `f` with machine panics caught: `Err` carries the rendered
/// [`StepViolation`] or the panic message. The panic is not printed —
/// expected violations must not spam stderr — and a harness that `f`
/// mutated must be discarded after one.
fn caught(f: impl FnOnce() -> Result<(), StepViolation>) -> Result<(), String> {
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
    let res = panic::catch_unwind(AssertUnwindSafe(f));
    CATCHING.with(|f| f.set(false));
    match res {
        Err(payload) => Err(zerodev_common::panic_message(&*payload)),
        Ok(res) => res.map_err(|v| v.to_string()),
    }
}

/// Applies `ev` to `h` ([`ProtocolHarness::apply`], checks included) with
/// machine panics caught: `Err` carries the rendered [`StepViolation`] or
/// the panic message. The panic is not printed — expected violations must
/// not spam stderr — and `h` must be discarded after one.
///
/// # Errors
/// Returns the violation or panic message of the failed transition.
pub fn apply_caught(h: &mut ProtocolHarness, ev: ProtocolEvent) -> Result<(), String> {
    caught(|| h.apply(ev))
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
#[derive(Clone, PartialEq, Eq, Debug)]
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

/// The explored graph: every state reached, by id in discovery order, with
/// its canonical key, parent link, quiescence and successor ids; the
/// transitions taken, whether a limit cut the search, and the violation
/// that ended it, if any.
#[derive(Default, PartialEq)]
struct Graph {
    visited: HashMap<Vec<u8>, u32>,
    parents: Vec<Option<(u32, ProtocolEvent)>>,
    quiescent: Vec<bool>,
    succs: Vec<Vec<u32>>,
    transitions: usize,
    truncated: bool,
    violation: Option<Violation>,
}

impl Graph {
    /// Records a newly reached state and returns its id.
    fn add(&mut self, key: &[u8], parent: Option<(u32, ProtocolEvent)>, quiescent: bool) -> u32 {
        let id = self.parents.len() as u32;
        self.visited.insert(key.to_vec(), id);
        self.parents.push(parent);
        self.quiescent.push(quiescent);
        self.succs.push(Vec::new());
        id
    }

    fn trace_to(&self, mut id: u32) -> Vec<ProtocolEvent> {
        let mut trace = Vec::new();
        while let Some(Some(&(p, ev))) = self.parents.get(id as usize).map(Option::as_ref) {
            trace.push(ev);
            id = p;
        }
        trace.reverse();
        trace
    }

    /// Ends the search with `message`: raised at event `ev` out of state
    /// `from` for `at == Some((from, ev))`, by the initial state for `None`.
    fn fail(mut self, message: String, at: Option<(u32, ProtocolEvent)>) -> Graph {
        let trace = at.map_or_else(Vec::new, |(from, ev)| {
            let mut trace = self.trace_to(from);
            trace.push(ev);
            trace
        });
        self.violation = Some(Violation { message, trace });
        self
    }

    /// The exploration: the violation that ended the search, or else the
    /// drain check (on an exhaustive sweep) and the sample traces.
    fn finish(self, name: &str) -> Exploration {
        if self.violation.is_some() {
            return Exploration {
                name: name.to_string(),
                states: self.visited.len(),
                transitions: self.transitions,
                truncated: self.truncated,
                violation: self.violation,
                undrainable: None,
                sample_traces: Vec::new(),
            };
        }
        // Livelock / drain check: every reachable state must be able to
        // drain back to a quiescent state (all copies evicted). Reverse
        // reachability from the quiescent states over the explored graph.
        let undrainable = if self.truncated {
            None
        } else {
            let n = self.succs.len();
            let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (from, outs) in self.succs.iter().enumerate() {
                for &to in outs {
                    preds
                        .get_mut(to as usize)
                        .expect("state id in range")
                        .push(from as u32);
                }
            }
            let mut drains = vec![false; n];
            let mut bfs: VecDeque<u32> = (0..n as u32)
                .filter(|&i| *self.quiescent.get(i as usize).expect("in range"))
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
                trace: self.trace_to(stuck as u32),
            })
        };

        // Sample traces for conformance replay: the last few discovered
        // states are among the deepest (BFS discovery order). One pass over
        // the visited map picks out their keys.
        let mut sample_traces = Vec::new();
        if undrainable.is_none() {
            let first = (self.parents.len() as u32).saturating_sub(6);
            let mut last: Vec<(u32, &Vec<u8>)> = self
                .visited
                .iter()
                .filter(|(_, &id)| id >= first)
                .map(|(key, &id)| (id, key))
                .collect();
            last.sort_unstable_by_key(|&(id, _)| id);
            for (id, key) in last {
                sample_traces.push((self.trace_to(id), key.clone()));
            }
        }

        Exploration {
            name: name.to_string(),
            states: self.visited.len(),
            transitions: self.transitions,
            truncated: self.truncated,
            violation: None,
            undrainable,
            sample_traces,
        }
    }
}

/// The global index (`socket * cores + core`) of the core issuing `ev`.
fn issuer(ev: &ProtocolEvent, cores: usize) -> usize {
    let (socket, core) = ev.agent();
    socket.0 as usize * cores + core.0 as usize
}

/// `ev` issued by core `core` of the same socket.
fn reissued(ev: ProtocolEvent, core: CoreId) -> ProtocolEvent {
    match ev {
        ProtocolEvent::Access {
            socket, block, op, ..
        } => ProtocolEvent::access(socket, core, block, op),
        ProtocolEvent::SilentWrite { socket, block, .. } => {
            ProtocolEvent::silent_write(socket, core, block)
        }
        ProtocolEvent::Evict {
            socket,
            block,
            kind,
            ..
        } => ProtocolEvent::evict(socket, core, block, kind),
    }
}

/// A state waiting to be expanded: its packed image ([`Images::pack`]), id,
/// depth, and each global core's representative
/// (`KeyEncoder::representatives`).
struct Frontier {
    img: Vec<u8>,
    id: u32,
    depth: u32,
    reps: Vec<u8>,
}

/// The reused buffers that turn a harness into a frontier image and back.
struct Images {
    /// The image being written.
    w: SnapWriter,
    /// The image being packed.
    packed: Vec<u8>,
    /// The image being unpacked.
    raw: Vec<u8>,
}

impl Images {
    fn new() -> Self {
        Images {
            w: SnapWriter::image(),
            packed: Vec::new(),
            raw: Vec::new(),
        }
    }

    /// `h`'s image with its zero runs packed, in an exact-size buffer.
    fn pack(&mut self, h: &ProtocolHarness) -> Vec<u8> {
        self.w.clear();
        h.snap(&mut self.w);
        self.packed.clear();
        snap::pack(self.w.as_bytes(), &mut self.packed);
        self.packed.to_vec()
    }

    /// Restores a [`Self::pack`] image into `h`.
    ///
    /// # Panics
    /// Panics when the image does not restore: every image was written by
    /// this process from a harness of `h`'s configuration.
    fn restore(&mut self, img: &[u8], h: &mut ProtocolHarness) {
        self.raw.clear();
        snap::unpack(img, &mut self.raw)
            .and_then(|()| {
                let mut r = SnapReader::image(&self.raw);
                h.unsnap(&mut r)?;
                r.expect_end()
            })
            .unwrap_or_else(|e| panic!("a frontier image restores: {e}"));
    }
}

/// Exhaustively explores `mc` under `limits`.
///
/// # Panics
/// Panics when the configuration itself fails validation (the matrix in
/// `main.rs` and the tests only build valid ones).
pub fn explore(mc: &ModelConfig, limits: &Limits) -> Exploration {
    search(mc, limits).finish(&mc.name)
}

/// The breadth-first search of [`explore`], up to its first violation.
fn search(mc: &ModelConfig, limits: &Limits) -> Graph {
    // The state being expanded, restored from each frontier image in turn.
    let mut h = ProtocolHarness::new(mc.cfg.clone(), mc.blocks.clone(), true)
        .expect("model configuration validates");
    let cores = h.cores();
    let mut keys = KeyEncoder::default();
    let mut graph = Graph::default();
    graph.add(keys.key(&h), None, h.is_quiescent());
    let mut reps = Vec::new();
    keys.representatives(&mut reps);
    // The initial state is checked like every state first reached.
    if let Err(message) = caught(|| h.check()) {
        return graph.fail(message, None);
    }
    // Every successor is built here before its key says whether it is new.
    let mut next = h.clone();
    let mut images = Images::new();
    let mut queue = VecDeque::from([Frontier {
        img: images.pack(&h),
        id: 0,
        depth: 0,
        reps,
    }]);
    // Per global core: the index of its first event in the state expanded.
    let mut first = Vec::new();

    while let Some(Frontier {
        img,
        id,
        depth,
        reps,
    }) = queue.pop_front()
    {
        if depth as usize >= limits.max_depth {
            graph.truncated = true;
            continue;
        }
        images.restore(&img, &mut h);
        let events = h.enabled_events();
        first.clear();
        first.resize(reps.len(), 0);
        let mut prev = usize::MAX;
        for (i, &ev) in events.iter().enumerate() {
            graph.transitions += 1;
            // Events come core by core, representatives first.
            let g = issuer(&ev, cores);
            if g != prev {
                first[g] = i;
                prev = g;
            }
            let rep = reps[g] as usize;
            let succ = if rep != g {
                // The representative's same event, at the same offset
                // among its events: its successor is this one's.
                let j = first[rep] + (i - first[g]);
                assert_eq!(events[j], reissued(ev, CoreId((rep % cores) as u16)));
                graph.succs[id as usize][j]
            } else {
                next.clone_from(&h);
                if let Err(message) = caught(|| next.transition(ev)) {
                    return graph.fail(message, Some((id, ev)));
                }
                let key = keys.key(&next);
                match graph.visited.get(key) {
                    Some(&known) => known,
                    None => {
                        if let Err(message) = caught(|| next.check()) {
                            return graph.fail(message, Some((id, ev)));
                        }
                        let nid = graph.add(key, Some((id, ev)), next.is_quiescent());
                        if graph.parents.len() <= limits.max_states {
                            let mut reps = Vec::with_capacity(first.len());
                            keys.representatives(&mut reps);
                            queue.push_back(Frontier {
                                img: images.pack(&next),
                                id: nid,
                                depth: depth + 1,
                                reps,
                            });
                        } else {
                            graph.truncated = true;
                        }
                        nid
                    }
                }
            };
            graph.succs[id as usize].push(succ);
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tiny;
    use std::collections::HashSet;
    use std::process::Command;
    use zerodev_common::config::{LlcDesign, SpillPolicy};
    use zerodev_common::protocol::{set_mutation, Mutation, ALL_MUTATIONS};

    const FPSS: SpillPolicy = SpillPolicy::FusePrivateSpillShared;

    /// The search without symmetric successors, kept as the reference: every
    /// enabled event of every frontier state is applied, keyed and checked.
    fn search_every_event(mc: &ModelConfig, limits: &Limits) -> Graph {
        let h0 = ProtocolHarness::new(mc.cfg.clone(), mc.blocks.clone(), true)
            .expect("model configuration validates");
        let mut keys = KeyEncoder::default();
        let mut graph = Graph::default();
        graph.add(keys.key(&h0), None, h0.is_quiescent());
        let mut next = h0.clone();
        let mut queue = VecDeque::from([(h0, 0u32, 0u32)]);
        while let Some((h, id, depth)) = queue.pop_front() {
            if depth as usize >= limits.max_depth {
                graph.truncated = true;
                continue;
            }
            for ev in h.enabled_events() {
                next.clone_from(&h);
                let res = apply_caught(&mut next, ev);
                graph.transitions += 1;
                if let Err(message) = res {
                    return graph.fail(message, Some((id, ev)));
                }
                let key = keys.key(&next);
                let succ = match graph.visited.get(key) {
                    Some(&known) => known,
                    None => {
                        let nid = graph.add(key, Some((id, ev)), next.is_quiescent());
                        if graph.parents.len() <= limits.max_states {
                            queue.push_back((next.clone(), nid, depth + 1));
                        } else {
                            graph.truncated = true;
                        }
                        nid
                    }
                };
                graph.succs[id as usize].push(succ);
            }
        }
        graph
    }

    /// Explores `mc` both ways, asserts that the two searches built the same
    /// graph (every state's id, key, parent link and successor list, the
    /// transition count, truncation and violation), and returns the
    /// exploration.
    fn same_as_every_event(mc: &ModelConfig, limits: &Limits) -> Exploration {
        let (fast, every) = (search(mc, limits), search_every_event(mc, limits));
        let (a, b) = (&fast, &every);
        assert!(
            a == b,
            "{}: the graphs differ: {} vs {} states, {} vs {} transitions, {:?} vs {:?}",
            mc.name,
            a.visited.len(),
            b.visited.len(),
            a.transitions,
            b.transitions,
            a.violation,
            b.violation
        );
        fast.finish(&mc.name)
    }

    /// The 19 machines of simbench's `mc` workload (`simbench/src/suite.rs`).
    fn mc_machines() -> Vec<ModelConfig> {
        let mut machines = Vec::new();
        for (cores, ways) in [(2, 3), (3, 2), (3, 1)] {
            for policy in [SpillPolicy::SpillAll, FPSS, SpillPolicy::FuseAll] {
                for design in [LlcDesign::NonInclusive, LlcDesign::Epd] {
                    machines.push(tiny(policy, design, cores, 1, 2, ways));
                }
            }
        }
        machines.push(tiny(SpillPolicy::FuseAll, LlcDesign::Inclusive, 2, 2, 1, 1));
        machines
    }

    /// The machines each seeded mutation is hunted on (`main.rs`).
    fn hunt_machines() -> Vec<ModelConfig> {
        vec![
            tiny(FPSS, LlcDesign::NonInclusive, 2, 1, 1, 1),
            tiny(SpillPolicy::SpillAll, LlcDesign::NonInclusive, 2, 1, 1, 1),
            tiny(SpillPolicy::FuseAll, LlcDesign::Epd, 2, 1, 2, 1),
        ]
    }

    #[test]
    fn clean_machines_explore_as_with_every_event() {
        let mut machines = mc_machines();
        machines.push(tiny(FPSS, LlcDesign::NonInclusive, 4, 1, 2, 2));
        machines.extend(hunt_machines());
        for mc in &machines {
            let ex = same_as_every_event(mc, &Limits::default());
            assert!(ex.clean() && !ex.truncated && ex.states > 10, "{}", mc.name);
            assert!(!ex.sample_traces.is_empty(), "{}", mc.name);
        }
    }

    /// The open inclusive-LLC finding (ROADMAP item 5): SpillAll and FPSS
    /// on 2 cores × 2 sockets with an inclusive LLC fail within a few
    /// events.
    #[test]
    fn open_inclusive_violations_are_found_as_with_every_event() {
        for policy in [SpillPolicy::SpillAll, FPSS] {
            for (addrs, ways) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
                let mc = tiny(policy, LlcDesign::Inclusive, 2, 2, addrs, ways);
                let ex = same_as_every_event(&mc, &Limits::default());
                assert!(ex.violation.is_some(), "{}: no violation", mc.name);
            }
        }
    }

    #[test]
    fn bounded_explorations_stop_as_with_every_event() {
        let four_by_two = tiny(FPSS, LlcDesign::NonInclusive, 4, 2, 1, 1);
        let by_states = Limits {
            max_states: 2_000,
            max_depth: usize::MAX,
        };
        let ex = same_as_every_event(&four_by_two, &by_states);
        assert!(ex.truncated && ex.states > 2_000, "{}", ex.states);
        let by_depth = Limits {
            max_states: usize::MAX,
            max_depth: 3,
        };
        let four_by_one = tiny(FPSS, LlcDesign::NonInclusive, 4, 1, 2, 2);
        assert!(same_as_every_event(&four_by_one, &by_depth).truncated);
    }

    const MUTATED: &str = "explore::tests::mutated_hunt_machines_explore_as_with_every_event";

    /// The mutation switch is process-wide, so the mutated explorations run
    /// alone, in a second process of this test binary.
    #[test]
    fn seeded_mutations_are_caught_as_with_every_event() {
        let out = Command::new(std::env::current_exe().expect("the test binary"))
            .args([MUTATED, "--exact", "--ignored", "--test-threads=1"])
            .output()
            .expect("the test binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    #[ignore = "sets the process-wide mutation: run alone by seeded_mutations_are_caught_as_with_every_event"]
    fn mutated_hunt_machines_explore_as_with_every_event() {
        // Selected alone (`--exact` and this test's name) or not at all.
        let selected = |arg: &str| std::env::args().any(|a| a == arg);
        if !(selected("--exact") && selected(MUTATED)) {
            return;
        }
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                set_mutation(Mutation::None);
            }
        }
        let _reset = Reset;
        for m in ALL_MUTATIONS {
            set_mutation(m);
            let caught = hunt_machines()
                .iter()
                .filter(|mc| {
                    same_as_every_event(mc, &Limits::default())
                        .violation
                        .is_some()
                })
                .count();
            assert!(caught > 0, "{m:?} caught on no hunt machine");
        }
    }

    /// Every state `mc` reaches, in BFS order, as concrete harnesses.
    fn reachable_states(mc: &ModelConfig) -> Vec<ProtocolHarness> {
        let h0 = ProtocolHarness::new(mc.cfg.clone(), mc.blocks.clone(), true)
            .expect("tiny machines validate");
        let mut keys = KeyEncoder::default();
        let mut visited = HashSet::from([keys.key(&h0).to_vec()]);
        let mut states = vec![h0];
        let mut i = 0;
        while let Some(h) = states.get(i) {
            let mut found = Vec::new();
            for ev in h.enabled_events() {
                let mut next = h.clone();
                apply_caught(&mut next, ev).unwrap_or_else(|v| panic!("{}: {ev}: {v}", mc.name));
                if visited.insert(keys.key(&next).to_vec()) {
                    found.push(next);
                }
            }
            states.extend(found);
            i += 1;
        }
        states
    }

    /// The frontier's image round trip, on every state of the 19 `mc`
    /// machines and of the 4-core machine: restored into a harness that
    /// held the previous state, an image gives a harness equal to the
    /// state's clone (same `Debug` text, canonical key, enabled events and
    /// check verdict) and the same image when written again.
    #[test]
    fn frontier_images_restore_every_reachable_state() {
        let mut machines = mc_machines();
        machines.push(tiny(FPSS, LlcDesign::NonInclusive, 4, 1, 2, 2));
        let mut images = Images::new();
        for mc in &machines {
            let states = reachable_states(mc);
            let mut restored = states[0].clone();
            let mut keys = KeyEncoder::default();
            for h in &states {
                let img = images.pack(h);
                images.restore(&img, &mut restored);
                assert_eq!(images.pack(&restored), img, "{}", mc.name);
                let clone = h.clone();
                assert_eq!(format!("{restored:?}"), format!("{clone:?}"), "{}", mc.name);
                let key = keys.key(h).to_vec();
                assert_eq!(keys.key(&restored), key, "{}", mc.name);
                assert_eq!(restored.enabled_events(), h.enabled_events());
                assert_eq!(restored.check(), h.check());
            }
            assert!(states.len() > 10, "{}", mc.name);
        }
    }

    /// Damaged images never panic the decoder: a few hundred truncated or
    /// byte-flipped images of states of a two-socket machine (socket
    /// directory, housed segments, corrupted home blocks) either restore
    /// or fail with a `SnapError`, packed or not.
    #[test]
    fn damaged_frontier_images_fail_cleanly() {
        let mc = tiny(FPSS, LlcDesign::NonInclusive, 2, 2, 1, 1);
        let states = reachable_states(&mc);
        let mut rng = zerodev_common::rng::Prng::seeded(23);
        let mut target = states[0].clone();
        let (mut restored, mut failed) = (0, 0);
        for round in 0..400 {
            let h = &states[rng.below(states.len() as u64) as usize];
            let mut w = SnapWriter::image();
            h.snap(&mut w);
            let mut img = w.as_bytes().to_vec();
            if round % 2 == 1 {
                let mut packed = Vec::new();
                snap::pack(&img, &mut packed);
                img = packed;
            }
            if rng.chance(0.3) {
                img.truncate(rng.below(img.len() as u64) as usize);
            } else {
                for _ in 0..=rng.below(3) {
                    let at = rng.below(img.len() as u64) as usize;
                    img[at] ^= 1 + rng.below(255) as u8;
                }
            }
            let res = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut raw = img.clone();
                if round % 2 == 1 {
                    raw.clear();
                    snap::unpack(&img, &mut raw)?;
                }
                let mut r = SnapReader::image(&raw);
                target.unsnap(&mut r)?;
                r.expect_end()
            }));
            match res.unwrap_or_else(|_| panic!("round {round}: the decoder panicked")) {
                Ok(()) => restored += 1,
                Err(_) => failed += 1,
            }
            // A failed restore leaves a partial state: start from a sound one.
            target.clone_from(&states[0]);
        }
        assert!(
            failed > 100 && restored > 0,
            "{failed} failed, {restored} restored"
        );
    }

    /// The premise of symmetric successors, on every state the 19 `mc`
    /// machines reach: an event of a core that is not its class's
    /// representative, applied anyway, passes and reaches the canonical
    /// successor of the representative's same event, which comes earlier
    /// among the enabled events.
    #[test]
    fn reused_events_reach_their_representatives_successor() {
        for mc in mc_machines() {
            let h0 = ProtocolHarness::new(mc.cfg.clone(), mc.blocks.clone(), true)
                .expect("tiny machines validate");
            let cores = h0.cores();
            let mut keys = KeyEncoder::default();
            let mut visited = HashSet::from([keys.key(&h0).to_vec()]);
            let mut queue = VecDeque::from([h0]);
            let (mut reps, mut reused, mut transitions) = (Vec::new(), 0usize, 0usize);
            let mut successors: HashMap<ProtocolEvent, Vec<u8>> = HashMap::new();
            while let Some(h) = queue.pop_front() {
                keys.key(&h);
                keys.representatives(&mut reps);
                successors.clear();
                for ev in h.enabled_events() {
                    let mut next = h.clone();
                    apply_caught(&mut next, ev)
                        .unwrap_or_else(|v| panic!("{}: {ev}: {v}", mc.name));
                    let key = keys.key(&next).to_vec();
                    let g = issuer(&ev, cores);
                    let rep = reps[g] as usize;
                    if rep != g {
                        let same = reissued(ev, CoreId((rep % cores) as u16));
                        assert_eq!(successors.get(&same), Some(&key), "{}: {ev}", mc.name);
                        reused += 1;
                    }
                    transitions += 1;
                    if visited.insert(key.clone()) {
                        queue.push_back(next);
                    }
                    successors.insert(ev, key);
                }
            }
            assert!(
                reused * 20 > transitions,
                "{}: {reused} of {transitions}",
                mc.name
            );
        }
    }
}
