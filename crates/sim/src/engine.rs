//! The deterministic event loop interleaving all cores, with a
//! forward-progress watchdog and optional deterministic fault injection.

use crate::core_model::{AccessEffects, CoreModel};
use crate::faults::{FaultConfig, FaultDraw, FaultPlan, FaultStats};
use zerodev_common::snap::{SnapError, SnapReader, SnapWriter};
use zerodev_common::{BlockAddr, CoreId, Cycle, MesiState, SocketId, Stats, SystemConfig};
use zerodev_core::{apply_effects, Downgrade, Invalidation, PrivateCaches, System};
use zerodev_workloads::{Workload, WorkloadKind};

/// Cycles a core may go without retiring a reference before the watchdog
/// declares the run stalled. Legitimate per-reference latency is bounded by
/// a few thousand cycles (DRAM queueing included), so a million-cycle
/// silence is a livelock/deadlock, never a slow access.
const WATCHDOG_HORIZON: u64 = 1_000_000;

/// References between watchdog scans of the per-core heartbeats (keeps the
/// check O(1) amortised per reference).
const WATCHDOG_PERIOD: u64 = 4_096;

/// The forward-progress watchdog, one scan point of the event loop: every
/// [`WATCHDOG_PERIOD`] pops, find the least-recently-retiring core and
/// declare a stall if its heartbeat silence exceeds [`WATCHDOG_HORIZON`].
/// It only reads the event stream, so results are byte-identical at every
/// scan that does not fire.
#[inline]
fn watchdog_check(pops: u64, now: u64, last_retire: &[u64]) -> Result<(), SimError> {
    if pops.is_multiple_of(WATCHDOG_PERIOD) {
        let (lag, &seen) = last_retire
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .expect("at least one core");
        if now.saturating_sub(seen) > WATCHDOG_HORIZON {
            return Err(SimError::Stalled {
                core: lag,
                cycle: now,
                last_event: format!(
                    "no retirement since cycle {seen} (heartbeat horizon {WATCHDOG_HORIZON})"
                ),
            });
        }
    }
    Ok(())
}

/// Packs an event as `(time << 32) | core` so that plain integer order is
/// exactly lexicographic `(time, core)` order. `u128` keys keep the packing
/// exact for any 64-bit timestamp.
#[inline]
fn event_key(time: u64, core: usize) -> u128 {
    ((time as u128) << 32) | core as u128
}

/// A flat binary min-heap of packed `(time, core)` event keys.
///
/// The event loop's steady state is pop-min immediately followed by a push
/// of the same core's next event; [`Self::replace_min`] fuses the pair into
/// a single sift-down, halving the heap traffic of the former
/// `BinaryHeap` pop/push sequence. Keys compare exactly like `(time, core)`
/// tuples, so the schedule — and therefore every statistic — is unchanged.
#[derive(Debug)]
pub(crate) struct EventQueue {
    keys: Vec<u128>,
}

impl EventQueue {
    /// One event per core, start times staggered by one cycle. The sequence
    /// `(0,0), (1,1), …` is already heap-ordered, so no heapify is needed.
    fn new(cores: usize) -> Self {
        assert!(cores < (1 << 32), "core index must pack into 32 bits");
        EventQueue {
            keys: (0..cores).map(|t| event_key(t as u64, t)).collect(),
        }
    }

    /// The earliest pending `(time, core)` event.
    #[inline]
    fn peek_min(&self) -> (u64, usize) {
        let k = self.keys[0];
        ((k >> 32) as u64, (k & 0xffff_ffff) as usize)
    }

    /// Replaces the minimum event and restores the heap property.
    #[inline]
    fn replace_min(&mut self, time: u64, core: usize) {
        self.keys[0] = event_key(time, core);
        self.sift_down();
    }

    fn sift_down(&mut self) {
        let n = self.keys.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                return;
            }
            let r = l + 1;
            let c = if r < n && self.keys[r] < self.keys[l] {
                r
            } else {
                l
            };
            if self.keys[i] <= self.keys[c] {
                return;
            }
            self.keys.swap(i, c);
            i = c;
        }
    }

    /// Serializes the raw heap lanes for checkpointing. The heap's array
    /// layout (not just its contents) is captured: sift order after resume
    /// must match an uninterrupted run event-for-event.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.keys.len());
        for &k in &self.keys {
            w.u128(k);
        }
    }

    /// Inverse of [`Self::snap`]; `cores` is the expected heap size.
    ///
    /// # Errors
    /// Fails with a decode [`SnapError`] on truncated or corrupt input, or
    /// when the image's heap size does not match `cores`.
    pub(crate) fn unsnap(r: &mut SnapReader, cores: usize) -> Result<EventQueue, SnapError> {
        let len = r.usize("event queue len")?;
        if len != cores {
            return Err(SnapError::Corrupt {
                context: "event queue size does not match the machine",
            });
        }
        let mut keys = Vec::with_capacity(len);
        for _ in 0..len {
            keys.push(r.u128("event queue key")?);
        }
        Ok(EventQueue { keys })
    }
}

/// A structured forward-progress failure, surfaced instead of an infinite
/// loop (livelock) or an unexplained panic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// A core stopped retiring references: its retry budget was exhausted
    /// by a NACK storm, or its heartbeat went silent past the watchdog
    /// horizon.
    Stalled {
        /// The core that stopped making progress.
        core: usize,
        /// Simulated cycle at which the stall was declared.
        cycle: u64,
        /// What the core was last seen doing.
        last_event: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled {
                core,
                cycle,
                last_event,
            } => write!(
                f,
                "forward-progress watchdog: core {core} stalled at cycle {cycle} ({last_event})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Workload name.
    pub name: String,
    /// Workload kind (decides the speedup metric).
    pub kind: WorkloadKind,
    /// Protocol/uncore counters.
    pub stats: Stats,
    /// Per-core cycle count at which the core retired its reference target.
    pub core_cycles: Vec<u64>,
    /// Per-core instructions retired at the target point.
    pub core_instrs: Vec<u64>,
    /// Completion time of the slowest core (multi-threaded metric).
    pub completion_cycles: u64,
    /// References retired in the measured region across all cores (early
    /// finishers keep retiring until the last core hits its target, so this
    /// can exceed `refs_per_core × cores`). Feeds the bench harness's
    /// references-per-second throughput metric.
    pub refs_retired: u64,
    /// DRAM (reads, writes) observed.
    pub dram_rw: (u64, u64),
    /// What the fault plan injected (empty unless faults were configured).
    /// Kept apart from [`Stats`] so faulted runs remain comparable to
    /// fault-free ones field-for-field.
    pub faults: FaultStats,
}

impl SimResult {
    /// Per-core IPC at the measurement target.
    pub fn ipcs(&self) -> Vec<f64> {
        self.core_cycles
            .iter()
            .zip(&self.core_instrs)
            .map(|(&c, &i)| i as f64 / c.max(1) as f64)
            .collect()
    }

    /// The paper's speedup metric versus a baseline run: completion-time
    /// ratio for multi-threaded workloads, normalised weighted speedup for
    /// multi-programmed ones. Returns `None` when the runs have different
    /// core counts (the ratio would be meaningless).
    pub fn speedup_vs(&self, base: &SimResult) -> Option<f64> {
        if self.core_cycles.len() != base.core_cycles.len() {
            return None;
        }
        Some(match self.kind {
            WorkloadKind::MultiThreaded => {
                base.completion_cycles as f64 / self.completion_cycles.max(1) as f64
            }
            WorkloadKind::MultiProgrammed => {
                let a = self.ipcs();
                let b = base.ipcs();
                a.iter().zip(&b).map(|(x, y)| x / y).sum::<f64>() / a.len() as f64
            }
        })
    }

    /// Core-cache misses per kilo-instruction (Figure 2 annotation).
    pub fn misses_per_kilo_instr(&self) -> f64 {
        let instrs: u64 = self.core_instrs.iter().sum();
        self.stats.core_cache_misses as f64 * 1000.0 / instrs.max(1) as f64
    }
}

/// A running simulation: the protocol engine plus all core models and the
/// workload's reference generators.
#[derive(Debug)]
pub struct Simulation {
    sys: System,
    cores: Vec<CoreModel>,
    workload: Workload,
    /// Deterministic fault plan; `None` (the default) is zero-cost-off.
    faults: Option<Box<FaultPlan>>,
}

impl Simulation {
    /// Builds a simulation of `workload` on the machine in `cfg`.
    ///
    /// # Panics
    /// Panics when the workload thread count does not match the machine's
    /// total core count, or the config is invalid.
    pub fn new(cfg: &SystemConfig, workload: Workload) -> Self {
        let total = cfg.cores * cfg.sockets;
        assert_eq!(
            workload.threads.len(),
            total,
            "workload threads ({}) must match machine cores ({total})",
            workload.threads.len()
        );
        let sys = System::new(cfg.clone()).expect("valid config");
        // `System::new` ran `SystemConfig::validate`, which bounds sockets
        // and per-socket cores to their id widths — so these conversions
        // cannot fail. Checked anyway: a silent wrap here would alias
        // threads onto the wrong core.
        let cores = (0..total)
            .map(|t| {
                let socket = u8::try_from(t / cfg.cores).expect("validate bounds socket ids");
                let core = u16::try_from(t % cfg.cores).expect("validate bounds core ids");
                CoreModel::new(cfg, SocketId(socket), CoreId(core))
            })
            .collect();
        Simulation {
            sys,
            cores,
            workload,
            faults: None,
        }
    }

    /// Arms deterministic fault injection ([`crate::faults`]) for the
    /// measured region. NACK storms within the retry budget never perturb
    /// timing or statistics; state corruptions are meant to be caught by
    /// the oracle (enable [`Self::enable_audit`] too).
    pub fn set_faults(&mut self, cfg: FaultConfig) {
        self.faults = Some(Box::new(FaultPlan::new(cfg)));
    }

    /// Read access to the protocol engine (diagnostics).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Mutable engine access for checkpoint restoration.
    pub(crate) fn system_mut(&mut self) -> &mut System {
        &mut self.sys
    }

    /// The core models (checkpoint serialization).
    pub(crate) fn cores(&self) -> &[CoreModel] {
        &self.cores
    }

    /// Mutable core models for checkpoint restoration.
    pub(crate) fn cores_mut(&mut self) -> &mut [CoreModel] {
        &mut self.cores
    }

    /// The workload generators (checkpoint serialization).
    pub(crate) fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The fault plan, if armed (checkpoint serialization).
    pub(crate) fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// Installs an already-built fault plan (checkpoint restoration).
    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(Box::new(plan));
    }

    /// Turns on the coherence-invariant oracle (`zerodev_core::oracle`):
    /// every subsequent uncore transaction is replayed against a shadow
    /// MESI model and checked. Must be called before the first reference
    /// is simulated. Audited runs produce byte-identical statistics.
    pub fn enable_audit(&mut self) {
        self.sys.enable_audit();
    }

    /// Index of `(socket, core)` in [`Self::cores`].
    #[inline]
    fn core_index(&self, socket: SocketId, core: CoreId) -> usize {
        socket.0 as usize * self.sys.config().cores + core.0 as usize
    }

    /// Completes one access: applies its invalidations and downgrades to
    /// the cores ([`apply_effects`], which drains the reused buffer in
    /// place) and returns the core-visible latency: private latency plus
    /// the uncore latency de-rated by the workload's memory-level
    /// parallelism.
    fn complete_access(&mut self, now: Cycle, fx: &mut AccessEffects, mlp: f64) -> u64 {
        // A private hit has no uncore latency to de-rate (0 / mlp rounds to 0).
        let latency = if fx.uncore_latency == 0 {
            fx.latency
        } else {
            fx.latency + (fx.uncore_latency as f64 / mlp.max(1.0)).round() as u64
        };
        apply_effects(self, now, &mut fx.downgrades, &mut fx.invalidations);
        latency
    }

    /// Requester-side fault handling *before* the access reaches the
    /// uncore: a forced `DENF_NACK` storm either exhausts the retry budget
    /// (a structured stall) or is absorbed and counted in the plan's stats.
    // lint:consumes(DenfNack)
    fn fault_pre(
        &mut self,
        t: usize,
        issue: u64,
        block: BlockAddr,
        d: FaultDraw,
    ) -> Result<(), SimError> {
        let Some(len) = d.nack_storm else {
            return Ok(());
        };
        let plan = self
            .faults
            .as_deref_mut()
            .expect("fault draw without a plan");
        let budget = plan.config().retry_budget;
        if len > budget {
            return Err(SimError::Stalled {
                core: t,
                cycle: issue,
                last_event: format!(
                    "DENF_NACK storm of {len} on {block:?} exceeded the retry budget of {budget}"
                ),
            });
        }
        // The nacked request is re-issued until the storm ends: the one
        // audited descent in the MsgClass order (DESIGN.md §12). The cycle
        // cannot sustain itself — the retry budget turns a storm longer
        // than it into SimError::Stalled.
        // lint:allow(msg_class_cycle, bounded DENF_NACK retry: the hard retry budget guarantees drain)
        plan.stats.nack_storms += 1; // lint:emits(Request)
        plan.stats.nacks += u64::from(len);
        Ok(())
    }

    /// Completion-side fault handling *after* the access resolved: an
    /// armed state corruption is injected once a victim exists, then
    /// immediately re-checked by the oracle.
    fn fault_post(&mut self, done: u64, d: FaultDraw) {
        let Some(kind) = d.corrupt else {
            return;
        };
        let Simulation { sys, faults, .. } = self;
        let plan = faults.as_deref_mut().expect("fault draw without a plan");
        if let Some((victim, desc)) = sys.inject_state_fault(kind, plan.rng_mut()) {
            plan.corruption_injected(format!("at cycle {done}: {kind:?}: {desc}"));
            sys.audit_check_block(victim);
        }
    }

    /// Runs until every core has retired `refs_per_core` references after a
    /// per-core warm-up of `warmup_refs` (not counted in the statistics).
    /// Early finishers keep running until the last core reaches its target,
    /// as in the paper's multi-programmed methodology.
    ///
    /// # Panics
    /// Panics (via [`SimError`]'s message) when the forward-progress
    /// watchdog fires; use [`Self::try_run`] to handle stalls structurally.
    pub fn run(self, refs_per_core: u64, warmup_refs: u64) -> SimResult {
        self.try_run(refs_per_core, warmup_refs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::run`], surfacing livelock/deadlock as [`SimError::Stalled`]
    /// instead of looping forever: every core must keep retiring references
    /// within the watchdog horizon, and NACKed flows get a bounded retry
    /// budget. The watchdog only reads the event stream, so it never
    /// changes the results of a run it does not stop.
    ///
    /// Implemented as [`Self::start`] + a single unbounded
    /// [`PausedRun::advance`] + [`PausedRun::finish`], so the whole-run and
    /// incremental (checkpointable) paths share one event-loop body.
    pub fn try_run(self, refs_per_core: u64, warmup_refs: u64) -> Result<SimResult, SimError> {
        let mut run = self.start(refs_per_core, warmup_refs);
        run.advance(u64::MAX)?;
        Ok(run.finish())
    }

    /// Executes the warm-up phase, resets the statistics, and returns the
    /// measured region as a [`PausedRun`] positioned at its first
    /// reference. Advance it in bounded steps ([`PausedRun::advance`]) —
    /// checkpointing at any pause boundary — and seal it with
    /// [`PausedRun::finish`].
    pub fn start(mut self, refs_per_core: u64, warmup_refs: u64) -> PausedRun {
        let n = self.cores.len();
        // One effects buffer for the whole run: `access_into` clears and
        // refills it, `complete_access` drains it.
        let mut fx = AccessEffects::default();
        // Warm-up: interleave round-robin without timing.
        for _ in 0..warmup_refs {
            for t in 0..n {
                let r = self.workload.threads[t].next_ref();
                let mlp = self.workload.threads[t].spec().mlp;
                self.cores[t].access_into(&mut self.sys, Cycle(0), r, &mut fx);
                let _ = self.complete_access(Cycle(0), &mut fx, mlp);
            }
        }
        // Reset statistics after warm-up, preserving the live gauges (they
        // track real structure occupancy, not events).
        let mut fresh = Stats::new();
        fresh.spilled_lines_current = self.sys.stats.spilled_lines_current;
        fresh.spilled_lines_max = fresh.spilled_lines_current;
        fresh.dir_live_entries = self.sys.stats.dir_live_entries;
        fresh.dir_live_entries_max = fresh.dir_live_entries;
        self.sys.stats = fresh;

        PausedRun {
            st: EngineState::new(n),
            sim: self,
            refs_per_core,
            fx,
        }
    }

    /// [`Self::try_run`] under the signature of the removed intra-run shard
    /// driver; `_shards` is ignored, so the result is byte-identical to
    /// `try_run` at any shard count. Kept only for the benchmark's traced
    /// `shard.speedup_2` probe.
    pub fn try_run_sharded(
        self,
        refs_per_core: u64,
        warmup_refs: u64,
        _shards: usize,
    ) -> Result<SimResult, SimError> {
        self.try_run(refs_per_core, warmup_refs)
    }
}

/// The core models are the simulation's private caches.
impl PrivateCaches for Simulation {
    fn system(&mut self) -> &mut System {
        &mut self.sys
    }

    fn downgrade(&mut self, d: Downgrade) -> MesiState {
        let idx = self.core_index(d.socket, d.core);
        self.cores[idx].apply_downgrade(d.block)
    }

    fn invalidate(&mut self, inv: Invalidation) -> MesiState {
        let idx = self.core_index(inv.socket, inv.core);
        self.cores[idx].apply_invalidation(inv.block)
    }
}

/// The mutable state of the measured-region event loop, separated from the
/// machine ([`Simulation`]) so a paused run can serialize both halves into
/// one checkpoint image.
#[derive(Debug)]
pub(crate) struct EngineState {
    /// Pending `(time, core)` events, one per core.
    pub(crate) queue: EventQueue,
    /// References retired per core this region.
    pub(crate) refs_done: Vec<u64>,
    /// Instructions retired per core (gap instructions + the reference).
    pub(crate) instrs: Vec<u64>,
    /// Per-core completion cycle, latched when the core hits its target.
    pub(crate) core_cycles: Vec<u64>,
    /// Per-core instruction count, latched with [`Self::core_cycles`].
    pub(crate) core_instrs: Vec<u64>,
    /// Cores that reached their reference target.
    pub(crate) finished: usize,
    /// Watchdog state: the cycle each core last retired a reference.
    pub(crate) last_retire: Vec<u64>,
    /// Event-loop pops (= total references retired across all cores).
    pub(crate) pops: u64,
}

impl EngineState {
    fn new(n: usize) -> Self {
        EngineState {
            queue: EventQueue::new(n),
            refs_done: vec![0; n],
            instrs: vec![0; n],
            core_cycles: vec![0; n],
            core_instrs: vec![0; n],
            finished: 0,
            last_retire: vec![0; n],
            pops: 0,
        }
    }

    /// Serializes the loop state for checkpointing.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        self.queue.snap(w);
        for lane in [
            &self.refs_done,
            &self.instrs,
            &self.core_cycles,
            &self.core_instrs,
            &self.last_retire,
        ] {
            for &v in lane.iter() {
                w.u64(v);
            }
        }
        w.usize(self.finished);
        w.u64(self.pops);
    }

    /// Inverse of [`Self::snap`]; `cores` is the machine's core count.
    ///
    /// # Errors
    /// Fails with a decode [`SnapError`] on truncated or corrupt input, or
    /// when the image does not match a `cores`-core machine.
    pub(crate) fn unsnap(r: &mut SnapReader, cores: usize) -> Result<EngineState, SnapError> {
        let queue = EventQueue::unsnap(r, cores)?;
        let mut lanes: [Vec<u64>; 5] = Default::default();
        for lane in &mut lanes {
            *lane = (0..cores)
                .map(|_| r.u64("engine per-core lane"))
                .collect::<Result<_, _>>()?;
        }
        let [refs_done, instrs, core_cycles, core_instrs, last_retire] = lanes;
        let finished = r.usize("engine finished count")?;
        if finished > cores {
            return Err(SnapError::Corrupt {
                context: "finished count exceeds the core count",
            });
        }
        let pops = r.u64("engine pops")?;
        Ok(EngineState {
            queue,
            refs_done,
            instrs,
            core_cycles,
            core_instrs,
            finished,
            last_retire,
            pops,
        })
    }
}

/// What a bounded [`PausedRun::advance`] observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunStatus {
    /// Every core reached its reference target; call
    /// [`PausedRun::finish`].
    Finished,
    /// The step budget ran out first; the run can be advanced further,
    /// checkpointed, or abandoned.
    Paused,
}

/// A measured region in flight, pausable between any two references.
///
/// Produced by [`Simulation::start`] (or by restoring a checkpoint, see
/// `crate::checkpoint`). The loop body here is the simulator's one event
/// loop — [`Simulation::try_run`] is a single unbounded advance — so
/// pausing, checkpointing, and resuming cannot drift from an uninterrupted
/// run.
#[derive(Debug)]
pub struct PausedRun {
    pub(crate) sim: Simulation,
    pub(crate) st: EngineState,
    pub(crate) refs_per_core: u64,
    /// Reusable effects buffer; empty at every pause boundary (each step
    /// clears and then drains it), so checkpoints never serialize it.
    pub(crate) fx: AccessEffects,
}

impl PausedRun {
    /// Executes up to `max_steps` references of the global event order.
    ///
    /// Returns [`RunStatus::Finished`] once every core has retired its
    /// target (further calls are no-ops), [`RunStatus::Paused`] when the
    /// step budget ran out first.
    ///
    /// # Errors
    /// [`SimError::Stalled`] when the forward-progress watchdog fires or a
    /// NACK storm exhausts the retry budget. The run remains intact — it
    /// can still be checkpointed for post-mortem replay — but advancing
    /// further will re-examine the same stalled event.
    pub fn advance(&mut self, max_steps: u64) -> Result<RunStatus, SimError> {
        let n = self.sim.cores.len();
        if self.st.finished == n {
            return Ok(RunStatus::Finished);
        }
        let st = &mut self.st;
        let sim = &mut self.sim;
        for _ in 0..max_steps {
            let (now, t) = st.queue.peek_min();
            st.pops += 1;
            watchdog_check(st.pops, now, &st.last_retire)?;
            let r = sim.workload.threads[t].next_ref();
            let mlp = sim.workload.threads[t].spec().mlp;
            let issue = now + u64::from(r.gap);
            let draw = sim.faults.as_deref_mut().map(FaultPlan::draw);
            if let Some(d) = draw {
                sim.fault_pre(t, issue, r.block, d)?;
            }
            sim.cores[t].access_into(&mut sim.sys, Cycle(issue), r, &mut self.fx);
            let lat = sim.complete_access(Cycle(issue), &mut self.fx, mlp);
            let done = issue + lat;
            if let Some(d) = draw {
                sim.fault_post(done, d);
            }
            st.instrs[t] += u64::from(r.gap) + 1;
            st.refs_done[t] += 1;
            st.last_retire[t] = done;
            if st.refs_done[t] == self.refs_per_core {
                st.core_cycles[t] = done;
                st.core_instrs[t] = st.instrs[t];
                st.finished += 1;
                if st.finished == n {
                    return Ok(RunStatus::Finished);
                }
            }
            st.queue.replace_min(done, t);
        }
        Ok(RunStatus::Paused)
    }

    /// Seals the run: the final audit sweep (no-op unless auditing) and the
    /// assembled [`SimResult`]. Normally called after
    /// [`RunStatus::Finished`]; calling earlier freezes whatever has been
    /// retired so far (per-core completion data is zero for unfinished
    /// cores).
    pub fn finish(mut self) -> SimResult {
        // A final exhaustive pass over every shadow-tracked block before
        // the statistics are frozen (no-op unless auditing).
        self.sim.sys.audit_sweep();

        let (dr, dw) = self.sim.sys.memory().dram_counts();
        SimResult {
            name: self.sim.workload.name.clone(),
            kind: self.sim.workload.kind,
            stats: self.sim.sys.stats.clone(),
            completion_cycles: self.st.core_cycles.iter().copied().max().unwrap_or(0),
            refs_retired: self.st.pops,
            core_cycles: self.st.core_cycles,
            core_instrs: self.st.core_instrs,
            dram_rw: (dr, dw),
            faults: self.sim.faults.take().map(|p| p.stats).unwrap_or_default(),
        }
    }

    /// References retired so far across all cores (event-loop pops).
    pub fn refs_retired(&self) -> u64 {
        self.st.pops
    }

    /// The per-core reference target this run was started with.
    pub fn refs_per_core(&self) -> u64 {
        self.refs_per_core
    }

    /// Read access to the protocol engine (diagnostics).
    pub fn system(&self) -> &System {
        &self.sim.sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_workloads::multithreaded;

    fn small_run(name: &str) -> SimResult {
        let cfg = SystemConfig::baseline_8core();
        let wl = multithreaded(name, 8, 11).unwrap();
        Simulation::new(&cfg, wl).run(2_000, 200)
    }

    #[test]
    fn run_completes_all_cores() {
        let r = small_run("swaptions");
        assert_eq!(r.core_cycles.len(), 8);
        assert!(r.core_cycles.iter().all(|&c| c > 0));
        assert!(r.completion_cycles >= *r.core_cycles.iter().max().unwrap());
        assert!(r.stats.core_cache_misses > 0);
        assert!(r.dram_rw.0 > 0);
    }

    #[test]
    fn deterministic_repeats() {
        let a = small_run("ferret");
        let b = small_run("ferret");
        assert_eq!(a.completion_cycles, b.completion_cycles);
        assert_eq!(a.stats.core_cache_misses, b.stats.core_cache_misses);
        assert_eq!(a.stats.total_traffic_bytes(), b.stats.total_traffic_bytes());
    }

    #[test]
    fn speedup_vs_self_is_one() {
        let a = small_run("ferret");
        let b = small_run("ferret");
        let s = a.speedup_vs(&b).expect("same core count");
        assert!((s - 1.0).abs() < 1e-9, "self speedup {s}");
    }

    #[test]
    fn speedup_vs_mismatched_core_counts_is_none() {
        let a = small_run("ferret");
        let mut b = a.clone();
        b.core_cycles.pop();
        assert_eq!(a.speedup_vs(&b), None);
    }

    #[test]
    fn try_run_is_clean_and_identical_to_run() {
        let cfg = SystemConfig::baseline_8core();
        let wl = || multithreaded("ferret", 8, 11).unwrap();
        let a = Simulation::new(&cfg, wl()).run(2_000, 200);
        let b = Simulation::new(&cfg, wl())
            .try_run(2_000, 200)
            .expect("clean run must not stall");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.completion_cycles, b.completion_cycles);
        assert_eq!(a.faults, FaultStats::default());
    }

    /// The heartbeat watchdog on synthetic heartbeats: no workload stalls
    /// without a NACK storm, so the retry budget, not this scan, stops
    /// every stalled run in the integration tests.
    #[test]
    fn watchdog_fires_one_cycle_past_the_horizon_on_the_laggard() {
        // Core 2 retired least recently; cores 0, 1 and 3 are well inside.
        let last_retire = [900_000, 750_000, 500_000, 1_400_000];
        let at_horizon = 500_000 + WATCHDOG_HORIZON;
        assert_eq!(
            watchdog_check(WATCHDOG_PERIOD, at_horizon, &last_retire),
            Ok(())
        );
        let Err(SimError::Stalled {
            core,
            cycle,
            last_event,
        }) = watchdog_check(3 * WATCHDOG_PERIOD, at_horizon + 1, &last_retire)
        else {
            panic!("a silence one cycle past the horizon must stall");
        };
        assert_eq!((core, cycle), (2, at_horizon + 1));
        assert!(
            last_event.contains("since cycle 500000"),
            "verdict must name the last heartbeat: {last_event}"
        );
        // Between scan points the heartbeats are not even read.
        for pops in [1, WATCHDOG_PERIOD - 1, WATCHDOG_PERIOD + 1] {
            assert_eq!(watchdog_check(pops, u64::MAX, &last_retire), Ok(()));
        }
    }

    #[test]
    fn ipcs_are_positive_and_bounded() {
        let r = small_run("streamcluster");
        for ipc in r.ipcs() {
            assert!(ipc > 0.0 && ipc <= 1.0, "ipc {ipc}");
        }
        assert!(r.misses_per_kilo_instr() > 0.0);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn thread_count_mismatch_panics() {
        let cfg = SystemConfig::baseline_8core();
        let wl = multithreaded("ferret", 4, 1).unwrap();
        let _ = Simulation::new(&cfg, wl);
    }

    #[test]
    #[should_panic(expected = "exceed the 8-bit SocketId space")]
    fn oversized_socket_count_is_rejected_before_ids_wrap() {
        // Regression: 300 sockets used to wrap `SocketId` (a u8) and alias
        // threads onto the wrong socket; validation now rejects it first.
        let mut cfg = SystemConfig::baseline_8core();
        cfg.sockets = 300;
        let wl = multithreaded("ferret", 8 * 300, 1).unwrap();
        let _ = Simulation::new(&cfg, wl);
    }
}
