//! Breadth-first exploration of the reachable state graph.
//!
//! BFS from the quiescent initial state with hashed-state dedup over the
//! canonical (symmetry-reduced) encoding. The explored graph is a set of
//! flat lanes indexed by state id (discovery order), and nothing in it is
//! allocated per state:
//!
//! * **Keys** — each canonical key is stored once, with its runs of zero
//!   bytes packed ([`zerodev_common::snap::pack`]; a key packs to about a
//!   third of its length), end to end in one byte arena, with a lane of
//!   where each key ends and a lane of 32-bit hashes. An open-addressed
//!   table of state ids finds a key. Packing is injective, so a successor's
//!   key is looked up by packing it into a reused buffer and comparing
//!   bytes.
//! * **Successors** — every successor id in one array, with a start offset
//!   per expanded state: states are expanded in id order, so each one's
//!   successors follow the previous one's.
//! * **Parent links** — a parent id and a two-byte event code per state.
//!
//! A frontier state is stored as its image ([`ProtocolHarness::snap`]) with
//! the runs of zero bytes packed: a few hundred bytes where a whole machine
//! takes several kilobytes. The frontier is one byte queue of records (id,
//! depth, each core's representative, packed image), appended and read in
//! place. The search holds two concrete machines: the state being expanded,
//! restored from its image when it leaves the queue, and the scratch
//! harness its successors are built in.
//!
//! Building and keying a successor reuses buffers instead of allocating:
//! every successor is built in the scratch harness (`clone_from`, which
//! refills its buffers), its key in one `KeyEncoder`, and only a newly
//! discovered state is copied into the graph's lanes and imaged into the
//! frontier.
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
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use zerodev_common::protocol::{EvictKind, Op};
use zerodev_common::snap::{self, SnapReader, SnapWriter};
use zerodev_common::{BlockAddr, CoreId, SocketId};
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

/// Marks an empty slot of [`Visited`]'s table.
const EMPTY: u32 = u32::MAX;

/// The smallest table [`Visited`] keeps.
const MIN_SLOTS: usize = 64;

/// A 32-bit hash of a packed key, eight bytes at a time: the upper half of
/// a multiply-rotate hash, whose upper bits depend on every input bit.
fn hash(bytes: &[u8]) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, word: [u8; 8]| (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = (&mut words).fold(bytes.len() as u64, |h, w| {
        mix(h, w.try_into().expect("eight bytes"))
    });
    let mut tail = [0; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = mix(h, tail);
    (h >> 32) as u32
}

/// The canonical keys of the states reached, by id, each packed
/// ([`snap::pack`]) and stored end to end in one arena, with where each
/// ends, its hash, and an open-addressed table of ids (linear probing, at
/// most 3/4 full). A lookup ([`Self::get`]) packs the key into a reused
/// buffer, and a key that missed is then added by [`Self::insert`].
struct Visited {
    arena: Vec<u8>,
    /// Per id: where its packed key ends in `arena`.
    ends: Vec<u64>,
    /// Per id: the [`hash`] of its packed key.
    hashes: Vec<u32>,
    /// Each id at its hash's slot or after it, [`EMPTY`] elsewhere; its
    /// length is a power of two.
    table: Vec<u32>,
    /// The key last looked up, packed, its hash, and the empty slot its
    /// probe ended at.
    probe: Vec<u8>,
    probe_hash: u32,
    probe_slot: usize,
}

/// Two sets are equal when they hold the same keys under the same ids: the
/// table and the hashes follow from those, and the probe is scratch.
impl PartialEq for Visited {
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.arena == other.arena
    }
}

impl Visited {
    fn new() -> Self {
        Visited {
            arena: Vec::new(),
            ends: Vec::new(),
            hashes: Vec::new(),
            table: vec![EMPTY; MIN_SLOTS],
            probe: Vec::new(),
            probe_hash: 0,
            probe_slot: 0,
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The packed key of state `id`.
    fn packed(&self, id: u32) -> &[u8] {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.arena[start..self.ends[id] as usize]
    }

    /// The canonical key of state `id`.
    fn key(&self, id: u32) -> Vec<u8> {
        let mut key = Vec::new();
        snap::unpack(self.packed(id), &mut key).expect("the arena holds packed keys");
        key
    }

    /// The id of the state whose canonical key is `key`, if it was reached.
    fn get(&mut self, key: &[u8]) -> Option<u32> {
        self.probe.clear();
        snap::pack(key, &mut self.probe);
        self.probe_hash = hash(&self.probe);
        let mask = self.table.len() - 1;
        let mut slot = self.probe_hash as usize & mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                self.probe_slot = slot;
                return None;
            }
            if self.hashes[id as usize] == self.probe_hash && self.packed(id) == self.probe {
                return Some(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Adds the key the last [`Self::get`] missed, as the next id, and
    /// returns that id. Nothing may be inserted between the two calls.
    fn insert(&mut self) -> u32 {
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("fewer than 2^32 - 1 states");
        self.arena.extend_from_slice(&self.probe);
        self.ends.push(self.arena.len() as u64);
        self.hashes.push(self.probe_hash);
        self.table[self.probe_slot] = id;
        if 4 * self.len() > 3 * self.table.len() {
            self.table = vec![EMPTY; 2 * self.table.len()];
            let mask = self.table.len() - 1;
            for (id, &h) in self.hashes.iter().enumerate() {
                let mut slot = h as usize & mask;
                while self.table[slot] != EMPTY {
                    slot = (slot + 1) & mask;
                }
                self.table[slot] = id as u32;
            }
        }
        id
    }
}

/// The op of each access kind (0–3) and the notice of each eviction kind
/// (5–7) in [`EventCodes`]; kind 4 is the silent write.
const OPS: [Op; 4] = [Op::Read, Op::CodeRead, Op::ReadExclusive, Op::Upgrade];
const EVICTS: [EvictKind; 3] = [
    EvictKind::CleanShared,
    EvictKind::CleanExclusive,
    EvictKind::Dirty,
];

/// Names each event of one machine by a small number: the issuing global
/// core, the block's index among the tracked blocks, and one of eight kinds.
#[derive(PartialEq)]
struct EventCodes {
    cores: usize,
    blocks: Vec<BlockAddr>,
}

impl EventCodes {
    fn code(&self, ev: ProtocolEvent) -> u16 {
        let kind = match ev {
            ProtocolEvent::Access { op, .. } => OPS.iter().position(|&o| o == op),
            ProtocolEvent::SilentWrite { .. } => Some(4),
            ProtocolEvent::Evict { kind, .. } => {
                EVICTS.iter().position(|&k| k == kind).map(|k| 5 + k)
            }
        }
        .expect("every op and eviction notice is listed");
        let block = self.blocks.iter().position(|&b| b == ev.block());
        let at = issuer(&ev, self.cores) * self.blocks.len() + block.expect("a tracked block");
        u16::try_from(at * 8 + kind).expect("event codes fit 16 bits")
    }

    fn event(&self, code: u16) -> ProtocolEvent {
        let (at, kind) = (code as usize / 8, code as usize % 8);
        let (g, block) = (at / self.blocks.len(), self.blocks[at % self.blocks.len()]);
        let (socket, core) = (
            SocketId((g / self.cores) as u8),
            CoreId((g % self.cores) as u16),
        );
        match kind {
            0..=3 => ProtocolEvent::access(socket, core, block, OPS[kind]),
            4 => ProtocolEvent::silent_write(socket, core, block),
            _ => ProtocolEvent::evict(socket, core, block, EVICTS[kind - 5]),
        }
    }
}

/// The explored graph: every state reached, by id in discovery order, with
/// its canonical key, parent link, quiescence and successor ids; the
/// transitions taken, whether a limit cut the search, and the violation
/// that ended it, if any.
#[derive(PartialEq)]
struct Graph {
    visited: Visited,
    /// Per id: the state it was first reached from (0 for the initial
    /// state, id 0, which has none).
    parent: Vec<u32>,
    /// Per id: the code ([`EventCodes`]) of the event that first reached it.
    event: Vec<u16>,
    quiescent: Vec<bool>,
    /// The successor ids of every expanded state, in expansion order.
    succ: Vec<u32>,
    /// Per expanded state: where its successors start in `succ`. States
    /// are expanded in id order, so its successors end where the next
    /// state's start.
    succ_start: Vec<u32>,
    codes: EventCodes,
    transitions: usize,
    truncated: bool,
    violation: Option<Violation>,
}

impl Graph {
    /// The graph of `h` alone, the initial state, keyed with `keys`.
    fn new(h: &ProtocolHarness, keys: &mut KeyEncoder) -> Self {
        let mut visited = Visited::new();
        let known = visited.get(keys.key(h));
        debug_assert!(known.is_none());
        visited.insert();
        Graph {
            visited,
            parent: vec![0],
            event: vec![0],
            quiescent: vec![h.is_quiescent()],
            succ: Vec::new(),
            succ_start: Vec::new(),
            codes: EventCodes {
                cores: h.cores(),
                blocks: h.blocks().to_vec(),
            },
            transitions: 0,
            truncated: false,
            violation: None,
        }
    }

    /// Records the state whose key `visited.get` last missed, reached from
    /// `from` by `ev`, and returns its id.
    fn add(&mut self, from: u32, ev: ProtocolEvent, quiescent: bool) -> u32 {
        self.parent.push(from);
        self.event.push(self.codes.code(ev));
        self.quiescent.push(quiescent);
        self.visited.insert()
    }

    /// Starts the successor list of `id`, the next state in id order.
    fn expand(&mut self, id: u32) {
        debug_assert_eq!(self.succ_start.len(), id as usize);
        let start = u32::try_from(self.succ.len()).expect("fewer than 2^32 transitions");
        self.succ_start.push(start);
    }

    /// The successor ids of `id`; none if it was not expanded.
    fn succs(&self, id: u32) -> &[u32] {
        let id = id as usize;
        let Some(&start) = self.succ_start.get(id) else {
            return &[];
        };
        let end = self
            .succ_start
            .get(id + 1)
            .map_or(self.succ.len(), |&e| e as usize);
        &self.succ[start as usize..end]
    }

    fn trace_to(&self, mut id: u32) -> Vec<ProtocolEvent> {
        let mut trace = Vec::new();
        while id != 0 {
            trace.push(self.codes.event(self.event[id as usize]));
            id = self.parent[id as usize];
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

    /// A reached state from which no event sequence drains the machine
    /// back to quiescence (all copies evicted), by reverse reachability
    /// from the quiescent states over the explored graph.
    fn undrainable(&self) -> Option<u32> {
        let n = self.visited.len();
        // The edges sorted by target (a counting sort): the predecessors of
        // `to` end up in `preds[at[to]..at[to + 1]]`.
        let mut at = vec![0u32; n + 1];
        for &to in &self.succ {
            at[to as usize] += 1;
        }
        let mut sum = 0;
        for a in &mut at {
            sum += *a;
            *a = sum;
        }
        let mut preds = vec![0u32; self.succ.len()];
        for from in (0..self.succ_start.len() as u32).rev() {
            for &to in self.succs(from).iter().rev() {
                at[to as usize] -= 1;
                preds[at[to as usize] as usize] = from;
            }
        }
        let mut drains = self.quiescent.clone();
        let mut bfs: VecDeque<u32> = (0..n as u32).filter(|&i| drains[i as usize]).collect();
        while let Some(i) = bfs.pop_front() {
            let i = i as usize;
            for &p in &preds[at[i] as usize..at[i + 1] as usize] {
                if !drains[p as usize] {
                    drains[p as usize] = true;
                    bfs.push_back(p);
                }
            }
        }
        drains.iter().position(|d| !d).map(|stuck| stuck as u32)
    }

    /// The exploration: the violation that ended the search, or else the
    /// drain check (on an exhaustive sweep) and the sample traces.
    fn finish(self, name: &str) -> Exploration {
        let states = self.visited.len();
        let (mut undrainable, mut sample_traces) = (None, Vec::new());
        if self.violation.is_none() {
            let stuck = if self.truncated {
                None
            } else {
                self.undrainable()
            };
            if let Some(stuck) = stuck {
                undrainable = Some(Violation {
                    message: "no event sequence drains this state back to quiescence (livelock)"
                        .to_string(),
                    trace: self.trace_to(stuck),
                });
            } else {
                // Sample traces for conformance replay: the last few
                // discovered states are among the deepest (BFS discovery
                // order).
                let first = states.saturating_sub(6) as u32;
                sample_traces = (first..states as u32)
                    .map(|id| (self.trace_to(id), self.visited.key(id)))
                    .collect();
            }
        }
        Exploration {
            name: name.to_string(),
            states,
            transitions: self.transitions,
            truncated: self.truncated,
            violation: self.violation,
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

/// The states waiting to be expanded, oldest first, as records in one byte
/// buffer: the state's id, depth and image length (`u32` each), each global
/// core's representative (`KeyEncoder::representatives`), then its packed
/// image ([`Images::pack`]). A record is read where it lies; the bytes of
/// the records read are dropped from the front once they are a quarter of
/// the rest, and a buffer then less than half full gives memory back, so
/// the pages of a draining frontier can go to the growing graph.
struct Frontier {
    buf: Vec<u8>,
    /// Where the oldest waiting record starts.
    head: usize,
    /// Representatives per record: the machine's global core count.
    width: usize,
}

impl Frontier {
    fn push(&mut self, id: u32, depth: u32, reps: &[u8], h: &ProtocolHarness, images: &mut Images) {
        debug_assert_eq!(reps.len(), self.width);
        let at = self.buf.len();
        for field in [id, depth, 0] {
            self.buf.extend_from_slice(&field.to_le_bytes());
        }
        self.buf.extend_from_slice(reps);
        let img = self.buf.len();
        images.pack(h, &mut self.buf);
        let len = u32::try_from(self.buf.len() - img).expect("an image under 4 GiB");
        self.buf[at + 8..at + 12].copy_from_slice(&len.to_le_bytes());
    }

    /// The oldest waiting state's id, depth, representatives and packed
    /// image.
    fn pop(&mut self) -> Option<(u32, u32, &[u8], &[u8])> {
        if self.head == self.buf.len() {
            return None;
        }
        if 4 * self.head >= self.buf.len() - self.head {
            self.buf.drain(..self.head);
            self.head = 0;
            if self.buf.capacity() > 2 * self.buf.len() {
                self.buf.shrink_to(self.buf.len() + self.buf.len() / 2);
            }
        }
        let field = |i: usize| u32::from_le_bytes(self.buf[i..i + 4].try_into().expect("4 bytes"));
        let (id, depth, len) = (field(self.head), field(self.head + 4), field(self.head + 8));
        let reps = self.head + 12;
        let img = reps + self.width;
        self.head = img + len as usize;
        Some((id, depth, &self.buf[reps..img], &self.buf[img..self.head]))
    }
}

/// The reused buffers that turn a harness into a frontier image and back.
struct Images {
    /// The image being written.
    w: SnapWriter,
    /// The image being unpacked.
    raw: Vec<u8>,
}

impl Images {
    fn new() -> Self {
        Images {
            w: SnapWriter::image(),
            raw: Vec::new(),
        }
    }

    /// Appends `h`'s image, with its zero runs packed, to `out`.
    fn pack(&mut self, h: &ProtocolHarness, out: &mut Vec<u8>) {
        self.w.clear();
        h.snap(&mut self.w);
        snap::pack(self.w.as_bytes(), out);
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
    let mut graph = Graph::new(&h, &mut keys);
    // Per global core: its representative in the state expanded, and in
    // the state just found.
    let (mut reps, mut found) = (Vec::new(), Vec::new());
    keys.representatives(&mut reps);
    // The initial state is checked like every state first reached.
    if let Err(message) = caught(|| h.check()) {
        return graph.fail(message, None);
    }
    // Every successor is built here before its key says whether it is new.
    let mut next = h.clone();
    let mut images = Images::new();
    let mut queue = Frontier {
        buf: Vec::new(),
        head: 0,
        width: reps.len(),
    };
    queue.push(0, 0, &reps, &h, &mut images);
    // Per global core: the index of its first event in the state expanded.
    let mut first = Vec::new();

    while let Some((id, depth, waiting_reps, img)) = queue.pop() {
        graph.expand(id);
        if depth as usize >= limits.max_depth {
            graph.truncated = true;
            continue;
        }
        images.restore(img, &mut h);
        reps.clear();
        reps.extend_from_slice(waiting_reps);
        let start = graph.succ.len();
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
                graph.succ[start + j]
            } else {
                next.clone_from(&h);
                if let Err(message) = caught(|| next.transition(ev)) {
                    return graph.fail(message, Some((id, ev)));
                }
                match graph.visited.get(keys.key(&next)) {
                    Some(known) => known,
                    None => {
                        if let Err(message) = caught(|| next.check()) {
                            return graph.fail(message, Some((id, ev)));
                        }
                        let nid = graph.add(id, ev, next.is_quiescent());
                        if graph.visited.len() <= limits.max_states {
                            keys.representatives(&mut found);
                            queue.push(nid, depth + 1, &found, &next, &mut images);
                        } else {
                            graph.truncated = true;
                        }
                        nid
                    }
                }
            };
            graph.succ.push(succ);
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tiny;
    use std::collections::{HashMap, HashSet};
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
        let mut graph = Graph::new(&h0, &mut keys);
        let mut next = h0.clone();
        let mut queue = VecDeque::from([(h0, 0u32, 0u32)]);
        while let Some((h, id, depth)) = queue.pop_front() {
            graph.expand(id);
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
                let succ = match graph.visited.get(keys.key(&next)) {
                    Some(known) => known,
                    None => {
                        let nid = graph.add(id, ev, next.is_quiescent());
                        if graph.visited.len() <= limits.max_states {
                            queue.push_back((next.clone(), nid, depth + 1));
                        } else {
                            graph.truncated = true;
                        }
                        nid
                    }
                };
                graph.succ.push(succ);
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
        let by_states = Limits {
            max_states: 2_000,
            max_depth: usize::MAX,
        };
        // 4 cores × 2 sockets with 1 address per home, and the target, 2.
        for addrs in [1, 2] {
            let four_by_two = tiny(FPSS, LlcDesign::NonInclusive, 4, 2, addrs, 1);
            let ex = same_as_every_event(&four_by_two, &by_states);
            assert!(ex.truncated && ex.states > 2_000, "{}", ex.states);
        }
        let by_depth = Limits {
            max_states: usize::MAX,
            max_depth: 3,
        };
        let four_by_one = tiny(FPSS, LlcDesign::NonInclusive, 4, 1, 2, 2);
        assert!(same_as_every_event(&four_by_one, &by_depth).truncated);
    }

    /// The visited arena over several table growths: thousands of distinct
    /// keys, most of them mostly zeros and some differing only in the
    /// length of a zero run, each find the id they were inserted under and
    /// unpack from the arena to the bytes inserted, and keys never inserted
    /// miss.
    #[test]
    fn visited_keys_find_their_ids_across_table_growths() {
        let mut keys = Vec::new();
        // Zero runs of every length up to past two packed runs of 255,
        // alone and between two nonzero bytes.
        for run in 0..600 {
            keys.push(vec![0; run]);
            keys.push([&[7][..], &vec![0; run], &[7]].concat());
        }
        let mut rng = zerodev_common::rng::Prng::seeded(26);
        let mut inserted: HashSet<Vec<u8>> = keys.iter().cloned().collect();
        while keys.len() < 6_000 {
            let key: Vec<u8> = (0..rng.below(300))
                .map(|_| {
                    if rng.chance(0.8) {
                        0
                    } else {
                        rng.below(255) as u8 + 1
                    }
                })
                .collect();
            if inserted.insert(key.clone()) {
                keys.push(key);
            }
        }
        let mut visited = Visited::new();
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(visited.get(key), None);
            assert_eq!(visited.insert(), id as u32);
        }
        assert!(
            visited.table.len() >= MIN_SLOTS << 6,
            "{}",
            visited.table.len()
        );
        let mut absent = 0;
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(visited.get(key), Some(id as u32));
            assert_eq!(visited.key(id as u32), *key);
            // One more zero, and one more nonzero byte.
            for byte in [0, 1] {
                let longer = [&key[..], &[byte]].concat();
                if !inserted.contains(&longer) {
                    assert_eq!(visited.get(&longer), None);
                    absent += 1;
                }
            }
        }
        assert!(absent > keys.len(), "{absent}");
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
        let (mut img, mut again) = (Vec::new(), Vec::new());
        for mc in &machines {
            let states = reachable_states(mc);
            let mut restored = states[0].clone();
            let mut keys = KeyEncoder::default();
            for h in &states {
                img.clear();
                images.pack(h, &mut img);
                images.restore(&img, &mut restored);
                again.clear();
                images.pack(&restored, &mut again);
                assert_eq!(again, img, "{}", mc.name);
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
