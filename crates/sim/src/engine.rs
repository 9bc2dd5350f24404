//! The deterministic event loop interleaving all cores, with optional
//! deterministic fault injection.
//!
//! Forward progress is a property of the loop's structure, not a check it
//! runs: every core has exactly one pending event, each pop retires that
//! core's reference and schedules its next one, and every access resolves
//! synchronously in the protocol engine. So each step retires one
//! reference, and a run of `refs_per_core` references per core ends after
//! a bounded number of steps (DESIGN.md §6.2; pinned by the
//! `every_paused_step_retires_its_budget` test below).

use std::convert::Infallible;

use crate::core_model::{AccessEffects, CoreModel};
use crate::faults::{FaultConfig, FaultPlan, FaultStats, StateFault};
use zerodev_common::{CoreId, Cycle, MesiState, SocketId, Stats, SystemConfig};
use zerodev_core::{apply_effects, Downgrade, Invalidation, PrivateCaches, System};
use zerodev_workloads::{Workload, WorkloadKind};

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
struct EventQueue {
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
}

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
    /// measured region: a state corruption the oracle is meant to catch
    /// (enable [`Self::enable_audit`] too).
    pub fn set_faults(&mut self, cfg: FaultConfig) {
        self.faults = Some(Box::new(FaultPlan::new(cfg)));
    }

    /// Read access to the protocol engine (diagnostics).
    pub fn system(&self) -> &System {
        &self.sys
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

    /// Completion-side fault handling *after* the access resolved: an
    /// armed state corruption is injected once a victim exists, then
    /// immediately re-checked by the oracle.
    fn fault_post(&mut self, done: u64, kind: StateFault) {
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
    /// Implemented as [`Self::start`] + a single unbounded
    /// [`PausedRun::advance`] + [`PausedRun::finish`], so the whole-run and
    /// stepped paths share one event-loop body.
    pub fn run(self, refs_per_core: u64, warmup_refs: u64) -> SimResult {
        let mut run = self.start(refs_per_core, warmup_refs);
        let Ok(_) = run.advance(u64::MAX);
        run.finish()
    }

    /// Executes the warm-up phase, resets the statistics, and returns the
    /// measured region as a [`PausedRun`] positioned at its first
    /// reference. Advance it in bounded steps ([`PausedRun::advance`]) and
    /// seal it with [`PausedRun::finish`].
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

    /// [`Self::run`] under the signature of the removed intra-run shard
    /// driver; `_shards` is ignored, so the result is byte-identical to
    /// `run` at any shard count, and it cannot fail. Kept only for the
    /// benchmark's traced `shard.speedup_2` probe.
    pub fn try_run_sharded(
        self,
        refs_per_core: u64,
        warmup_refs: u64,
        _shards: usize,
    ) -> Result<SimResult, Infallible> {
        Ok(self.run(refs_per_core, warmup_refs))
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

/// The mutable state of the measured-region event loop, kept apart from
/// the machine ([`Simulation`]) it drives.
#[derive(Debug)]
struct EngineState {
    /// Pending `(time, core)` events, one per core.
    queue: EventQueue,
    /// References retired per core this region.
    refs_done: Vec<u64>,
    /// Instructions retired per core (gap instructions + the reference).
    instrs: Vec<u64>,
    /// Per-core completion cycle, latched when the core hits its target.
    core_cycles: Vec<u64>,
    /// Per-core instruction count, latched with [`Self::core_cycles`].
    core_instrs: Vec<u64>,
    /// Cores that reached their reference target.
    finished: usize,
    /// Event-loop pops (= total references retired across all cores).
    pops: u64,
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
            pops: 0,
        }
    }
}

/// What a bounded [`PausedRun::advance`] observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunStatus {
    /// Every core reached its reference target; call
    /// [`PausedRun::finish`].
    Finished,
    /// The step budget ran out first; the run can be advanced further or
    /// abandoned.
    Paused,
}

/// A measured region in flight, pausable between any two references.
///
/// Produced by [`Simulation::start`]. The loop body here is the
/// simulator's one event loop — [`Simulation::run`] is a single unbounded
/// advance — so a run stepped in bounded advances cannot drift from an
/// uninterrupted one.
#[derive(Debug)]
pub struct PausedRun {
    sim: Simulation,
    st: EngineState,
    refs_per_core: u64,
    /// Reusable effects buffer; empty at every pause boundary (each step
    /// clears and then drains it).
    fx: AccessEffects,
}

impl PausedRun {
    /// Executes up to `max_steps` references of the global event order.
    ///
    /// Returns [`RunStatus::Finished`] once every core has retired its
    /// target (further calls are no-ops), [`RunStatus::Paused`] when the
    /// step budget ran out first: each step retires one reference, so a
    /// paused call retired exactly `max_steps`. It cannot fail; the
    /// [`Infallible`] error keeps the signature the benchmark calls.
    pub fn advance(&mut self, max_steps: u64) -> Result<RunStatus, Infallible> {
        let n = self.sim.cores.len();
        if self.st.finished == n {
            return Ok(RunStatus::Finished);
        }
        let st = &mut self.st;
        let sim = &mut self.sim;
        for _ in 0..max_steps {
            let (now, t) = st.queue.peek_min();
            st.pops += 1;
            let r = sim.workload.threads[t].next_ref();
            let mlp = sim.workload.threads[t].spec().mlp;
            let issue = now + u64::from(r.gap);
            let armed = sim.faults.as_deref_mut().and_then(FaultPlan::draw);
            sim.cores[t].access_into(&mut sim.sys, Cycle(issue), r, &mut self.fx);
            let lat = sim.complete_access(Cycle(issue), &mut self.fx, mlp);
            let done = issue + lat;
            if let Some(kind) = armed {
                sim.fault_post(done, kind);
            }
            st.instrs[t] += u64::from(r.gap) + 1;
            st.refs_done[t] += 1;
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

    /// Read access to the protocol engine (diagnostics).
    pub fn system(&self) -> &System {
        &self.sim.sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_common::config::{DirectoryKind, ZeroDevConfig};
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

    /// Forward progress by construction: each step of the loop retires one
    /// reference, so every `advance(k)` that pauses retired exactly `k`,
    /// the run finishes, and a run stepped in chunks of any size equals the
    /// whole run: its statistics, per-core lanes and injected faults. The
    /// machines add audit, ZeroDEV without a directory, a corruption armed
    /// after the first pauses, and four sockets to the plain baseline.
    #[test]
    fn every_paused_step_retires_its_budget() {
        let base = SystemConfig::baseline_8core();
        let nodir = base
            .clone()
            .with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
        let four = SystemConfig::four_socket();
        let flip = FaultConfig {
            kind: StateFault::SharerFlip,
            at: 900,
        };
        // (machine, app, audit, faults, refs per core). A sharer flip
        // needs an LLC-resident entry, which only a ZeroDEV machine houses.
        let points = [
            (&base, "ferret", false, None, 2_000),
            (&base, "canneal", true, None, 2_000),
            (&nodir, "torture.ping_pong", true, None, 2_000),
            (&nodir, "torture.entry_thrash", true, None, 2_000),
            (&nodir, "torture.false_sharing", false, Some(flip), 2_000),
            (&four, "torture.reader_swarm", true, None, 300),
        ];
        for (i, (cfg, app, audit, faults, refs)) in points.into_iter().enumerate() {
            let threads = cfg.cores * cfg.sockets;
            let seed = 0x5eed_0000 + i as u64;
            let sim = || {
                let mut sim = Simulation::new(cfg, multithreaded(app, threads, seed).unwrap());
                if audit {
                    sim.enable_audit();
                }
                if let Some(fc) = faults {
                    sim.set_faults(fc);
                }
                sim
            };
            let whole = sim().run(refs, 400);
            assert!(whole.refs_retired >= threads as u64 * refs, "{app}");
            assert_eq!(
                whole.faults.corruptions,
                u64::from(faults.is_some()),
                "{app}: an armed corruption lands, and nothing else"
            );
            for k in [1, 7, 4_096] {
                let mut run = sim().start(refs, 400);
                loop {
                    let before = run.refs_retired();
                    let Ok(status) = run.advance(k);
                    if status == RunStatus::Finished {
                        break;
                    }
                    assert_eq!(
                        run.refs_retired() - before,
                        k,
                        "{app}: a paused advance({k})"
                    );
                }
                let stepped = run.finish();
                let at = format!("{app}, step {k}");
                assert_eq!(stepped.stats, whole.stats, "stats: {at}");
                assert_eq!(stepped.core_cycles, whole.core_cycles, "{at}");
                assert_eq!(stepped.core_instrs, whole.core_instrs, "{at}");
                assert_eq!(stepped.refs_retired, whole.refs_retired, "{at}");
                assert_eq!(stepped.dram_rw, whole.dram_rw, "{at}");
                assert_eq!(stepped.faults, whole.faults, "faults: {at}");
            }
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
