//! The parallel sweep engine: executes a (config × workload) grid across a
//! scoped worker pool with deterministic result ordering and a process-wide
//! baseline memoization cache.
//!
//! Every [`crate::engine::Simulation`] run is fully deterministic and
//! self-contained, so a figure's grid of runs is embarrassingly parallel:
//! the engine only has to preserve *result ordering*, not execution
//! ordering, for the printed tables to come out bit-identical to the serial
//! harness. Jobs are pulled from a shared queue by `threads` scoped workers
//! and each result lands in the slot of its job index; callers then consume
//! the slots in submission order.
//!
//! Runs are additionally memoized in a process-wide cache keyed by
//! `(SystemConfig fingerprint, workload name, seed, run length)`. The
//! figure harnesses re-run the identical baseline simulation for every
//! figure that shares it (Figures 19–21 and 23 alone sweep the same
//! baseline over the same applications four times); with `all_figures`
//! executing every figure in one process, each baseline is computed once
//! and every later figure gets a cache hit.
//!
//! Thread count comes from [`RunParams::threads`] (`ZERODEV_THREADS` in the
//! environment; default = available parallelism). `threads == 1` takes an
//! exact serial path that spawns nothing.

use crate::faults::FaultConfig;
use crate::runner::{run, RunParams, RunWithEnergy};
// lint:allow(nondeterministic_map, host-side memo cache keyed per run; results are read back per key and its iteration order is never observed by simulated state)
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
// lint:allow(wall_clock, wall-clock here is host-side budgeting and diagnostics only; simulated time is Cycle-based and never reads it)
use std::time::{Duration, Instant};
use zerodev_common::{panic_message, SystemConfig};
use zerodev_workloads::Workload;

/// Locks a mutex, recovering from poison: every structure behind these
/// locks (cache map, cache entries, counters) is valid after any partial
/// update, and a worker that panicked mid-job must degrade that one point,
/// not every later sweep.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A shareable workload constructor. Workloads are consumed per run, so
/// jobs carry factories; `Send + Sync` lets any worker build the workload.
pub type WorkloadMaker = Arc<dyn Fn() -> Workload + Send + Sync>;

/// One simulation to execute: a machine, a workload factory, and a run
/// length.
#[derive(Clone)]
pub struct RunJob {
    /// The machine to simulate.
    pub cfg: SystemConfig,
    /// Builds the workload (called on the worker that runs the job).
    pub make: WorkloadMaker,
    /// Run length (the `threads` field is ignored per job).
    pub params: RunParams,
    /// The seed the workload factory closes over; part of the memo key.
    pub seed: u64,
    /// Whether this run may be served from / stored into the memo cache.
    pub memo: bool,
}

impl std::fmt::Debug for RunJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunJob")
            .field("cfg", &self.cfg)
            .field("make", &"<workload factory>")
            .field("params", &self.params)
            .field("seed", &self.seed)
            .field("memo", &self.memo)
            .finish()
    }
}

impl RunJob {
    /// A memoized job (the default; every harness run is deterministic).
    pub fn new(cfg: SystemConfig, make: WorkloadMaker, params: RunParams, seed: u64) -> Self {
        RunJob {
            cfg,
            make,
            params,
            seed,
            memo: true,
        }
    }
}

/// How one sweep point ended: a result, or an isolated failure. Workers run
/// each job under `catch_unwind`, so one panicking configuration degrades
/// its point instead of aborting the whole figure sweep.
#[derive(Clone, Debug)]
pub enum PointResult {
    /// The point simulated (or was served from the cache).
    Ok(Arc<RunWithEnergy>),
    /// The point panicked; the message says where and why. Also recorded in
    /// the process-wide [`failed_points`] registry.
    Failed(String),
}

impl PointResult {
    /// The run, if the point succeeded.
    pub fn ok(&self) -> Option<&Arc<RunWithEnergy>> {
        match self {
            PointResult::Ok(r) => Some(r),
            PointResult::Failed(_) => None,
        }
    }

    /// The failure message, if the point failed.
    pub fn failure(&self) -> Option<&str> {
        match self {
            PointResult::Ok(_) => None,
            PointResult::Failed(m) => Some(m),
        }
    }

    /// The run.
    ///
    /// # Panics
    /// Panics with the failure message when the point failed.
    pub fn unwrap(&self) -> &Arc<RunWithEnergy> {
        match self {
            PointResult::Ok(r) => r,
            PointResult::Failed(m) => panic!("sweep point failed: {m}"),
        }
    }
}

/// The result slot of one job: the point outcome, its wall-clock, and
/// whether it was served from the memo cache.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The (possibly shared) point outcome.
    pub run: PointResult,
    /// Wall-clock time this job took on its worker.
    pub wall: Duration,
    /// True when the result came from the memoization cache.
    pub cache_hit: bool,
}

/// The memoization key: everything that determines a run's result.
/// `RunParams::threads` is deliberately excluded — it cannot affect results.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct MemoKey {
    fingerprint: u64,
    workload: String,
    seed: u64,
    refs_per_core: u64,
    warmup_refs: u64,
    /// Fault injection changes results (and may be what a run is *for*),
    /// so faulted runs never share cache slots with clean ones.
    faults: Option<FaultConfig>,
    /// Auditing never changes results, but a faulted audited run can panic
    /// where its unaudited twin completes — keep them apart.
    audit: bool,
}

/// One cache slot. The per-key mutex makes memoization race-free under the
/// worker pool: the first worker to claim a key holds its entry lock while
/// simulating, so a concurrent duplicate blocks and then reads the finished
/// result as a cache hit instead of recomputing it.
type MemoEntry = Arc<Mutex<Option<Arc<RunWithEnergy>>>>;

// lint:allow(nondeterministic_map, memo cache lookups are by exact key; no iteration)
fn memo_cache() -> &'static Mutex<HashMap<MemoKey, MemoEntry>> {
    // lint:allow(nondeterministic_map, memo cache lookups are by exact key; no iteration)
    static CACHE: OnceLock<Mutex<HashMap<MemoKey, MemoEntry>>> = OnceLock::new();
    // lint:allow(nondeterministic_map, memo cache lookups are by exact key; no iteration)
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Aggregate sweep accounting since process start (or the last
/// [`reset_summary`]), across every grid run by every [`Engine`].
#[derive(Clone, Copy, Default, Debug)]
pub struct SweepSummary {
    /// Simulations actually executed.
    pub runs_executed: u64,
    /// Jobs served from the memoization cache.
    pub cache_hits: u64,
    /// Points that panicked and were isolated ([`PointResult::Failed`]).
    pub failed: u64,
    /// Total simulated cycles across executed runs (`completion_cycles`).
    pub sim_cycles: u64,
    /// Total references retired across executed runs
    /// ([`crate::engine::SimResult::refs_retired`]).
    pub refs_retired: u64,
    /// Summed per-job wall-clock of executed runs (CPU-side busy time; with
    /// N workers this exceeds elapsed wall-clock by up to N×).
    pub busy: Duration,
}

impl SweepSummary {
    /// Simulated cycles per second of real time, given the caller's
    /// elapsed wall-clock (the caller knows the true elapsed span; `busy`
    /// here is summed across workers).
    pub fn cycles_per_sec(&self, elapsed: Duration) -> f64 {
        self.sim_cycles as f64 / elapsed.as_secs_f64().max(1e-9)
    }

    /// References retired per second of real time, given the caller's
    /// elapsed wall-clock.
    pub fn refs_per_sec(&self, elapsed: Duration) -> f64 {
        self.refs_retired as f64 / elapsed.as_secs_f64().max(1e-9)
    }
}

fn summary_cell() -> &'static Mutex<SweepSummary> {
    static SUMMARY: OnceLock<Mutex<SweepSummary>> = OnceLock::new();
    SUMMARY.get_or_init(|| Mutex::new(SweepSummary::default()))
}

/// Snapshot of the process-wide sweep accounting.
pub fn summary() -> SweepSummary {
    *lock_recover(summary_cell())
}

/// Resets the process-wide sweep accounting (test isolation).
pub fn reset_summary() {
    *lock_recover(summary_cell()) = SweepSummary::default();
}

/// Empties the memoization cache (test isolation / memory reclamation).
pub fn clear_memo_cache() {
    lock_recover(memo_cache()).clear();
}

fn failures_cell() -> &'static Mutex<Vec<String>> {
    static FAILURES: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    FAILURES.get_or_init(|| Mutex::new(Vec::new()))
}

fn context_cell() -> &'static Mutex<Option<String>> {
    static CONTEXT: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    CONTEXT.get_or_init(|| Mutex::new(None))
}

/// Names the sweep currently running (e.g. the figure), so an isolated
/// point failure can say *which figure's grid* it degraded. The figure
/// harness sets this before each figure body and clears it after; `None`
/// clears it.
pub fn set_sweep_context(label: Option<&str>) {
    *lock_recover(context_cell()) = label.map(str::to_string);
}

/// Every isolated point failure since process start (or the last
/// [`reset_failures`]), in the order workers hit them. The figure harness
/// prints this as the degraded-sweep summary.
pub fn failed_points() -> Vec<String> {
    lock_recover(failures_cell()).clone()
}

/// Clears the failed-point registry (test isolation).
pub fn reset_failures() {
    lock_recover(failures_cell()).clear();
}

fn record(executed: bool, sim_cycles: u64, refs_retired: u64, wall: Duration) {
    let mut s = lock_recover(summary_cell());
    if executed {
        s.runs_executed += 1;
        s.sim_cycles += sim_cycles;
        s.refs_retired += refs_retired;
        s.busy += wall;
    } else {
        s.cache_hits += 1;
    }
}

/// Registers one isolated failure and builds its outcome. The description
/// names the sweep ([`set_sweep_context`], typically the figure), the
/// workload, the config point, the seed and run length, and carries the
/// panic/`SimError` payload — everything the degraded-sweep summary needs
/// to reproduce the point.
// lint:allow(wall_clock, job wall-time is carried into the degraded-sweep diagnostics only)
fn fail_outcome(job: &RunJob, workload: Option<&str>, msg: String, t0: Instant) -> JobOutcome {
    let ctx = lock_recover(context_cell())
        .as_deref()
        .map(|c| format!("[{c}] "))
        .unwrap_or_default();
    let desc = format!(
        "{ctx}{} on config {:016x} (seed {:#x}, {} refs/core{}{}): {msg}",
        workload.unwrap_or("<workload construction>"),
        job.cfg.fingerprint(),
        job.seed,
        job.params.refs_per_core,
        if job.params.audit { ", audited" } else { "" },
        if job.params.faults.is_some() {
            ", faults armed"
        } else {
            ""
        },
    );
    lock_recover(failures_cell()).push(desc.clone());
    lock_recover(summary_cell()).failed += 1;
    JobOutcome {
        run: PointResult::Failed(desc),
        wall: t0.elapsed(),
        cache_hit: false,
    }
}

/// Runs one job: build the workload, consult the cache, simulate on a
/// miss. The workload factory and the simulation both run under
/// `catch_unwind`; a panic yields [`PointResult::Failed`] and leaves the
/// memo cache slot empty rather than poisoned.
fn execute_job(job: &RunJob) -> JobOutcome {
    // lint:allow(wall_clock, per-job wall-time feeds failure diagnostics and the budget governor, never simulated state)
    let t0 = Instant::now();
    let workload = match catch_unwind(AssertUnwindSafe(|| (job.make)())) {
        Ok(w) => w,
        Err(p) => return fail_outcome(job, None, panic_message(&*p), t0),
    };
    let name = workload.name.clone();
    let key = job.memo.then(|| MemoKey {
        fingerprint: job.cfg.fingerprint(),
        workload: name.clone(),
        seed: job.seed,
        refs_per_core: job.params.refs_per_core,
        warmup_refs: job.params.warmup_refs,
        faults: job.params.faults,
        audit: job.params.audit,
    });
    let entry: Option<MemoEntry> =
        key.map(|k| lock_recover(memo_cache()).entry(k).or_default().clone());
    // First claimant of a key simulates while holding the entry lock so a
    // concurrent duplicate waits for this result instead of redoing it.
    let mut slot = entry.as_ref().map(|e| lock_recover(e));
    if let Some(run) = slot.as_deref().and_then(Clone::clone) {
        drop(slot);
        let wall = t0.elapsed();
        record(false, 0, 0, wall);
        return JobOutcome {
            run: PointResult::Ok(run),
            wall,
            cache_hit: true,
        };
    }
    match catch_unwind(AssertUnwindSafe(|| run(&job.cfg, workload, &job.params))) {
        Ok(r) => {
            let result = Arc::new(r);
            if let Some(s) = slot.as_deref_mut() {
                *s = Some(result.clone());
            }
            drop(slot);
            let wall = t0.elapsed();
            record(
                true,
                result.result.completion_cycles,
                result.result.refs_retired,
                wall,
            );
            JobOutcome {
                run: PointResult::Ok(result),
                wall,
                cache_hit: false,
            }
        }
        Err(p) => {
            // The slot guard drops unpoisoned (the panic was caught below
            // it); the empty slot lets a later identical job retry.
            drop(slot);
            fail_outcome(job, Some(&name), panic_message(&*p), t0)
        }
    }
}

/// The sweep engine: a fixed worker count and a `run_grid` entry point.
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// An engine with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Engine {
            threads: threads.max(1),
        }
    }

    /// An engine sized by the environment (`ZERODEV_THREADS`, default =
    /// available parallelism) via [`RunParams::from_env`].
    pub fn from_env() -> Self {
        Engine::new(RunParams::from_env().threads)
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every job and returns one outcome per job, **in job
    /// order** regardless of which worker finished when — callers printing
    /// tables from the outcomes produce output bit-identical to a serial
    /// run. With one thread (or one job) this is the exact serial path:
    /// jobs run in order on the calling thread and nothing is spawned.
    pub fn run_grid(&self, jobs: &[RunJob]) -> Vec<JobOutcome> {
        if self.threads == 1 || jobs.len() <= 1 {
            return jobs.iter().map(execute_job).collect();
        }
        let slots: Vec<OnceLock<JobOutcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(jobs.len()) {
                // lint:allow(thread_spawn, scoped worker pool over independent sweep points; each point is itself a deterministic serial run and results are collected by index)
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    slots[i]
                        .set(execute_job(job))
                        .unwrap_or_else(|_| unreachable!("slot {i} filled twice"));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_workloads::multithreaded;

    /// Serializes tests in this module: every job execution bumps the
    /// process-wide sweep summary, so tests asserting exact counter deltas
    /// must not overlap with other job-running tests.
    static GUARD: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn quick() -> RunParams {
        RunParams {
            refs_per_core: 2_000,
            warmup_refs: 200,
            ..Default::default()
        }
    }

    fn job(app: &'static str, seed: u64, memo: bool) -> RunJob {
        RunJob {
            cfg: SystemConfig::baseline_8core(),
            make: Arc::new(move || multithreaded(app, 8, seed).unwrap()),
            params: quick(),
            seed,
            memo,
        }
    }

    #[test]
    fn parallel_matches_serial_and_preserves_order() {
        let _g = lock();
        let apps = ["ferret", "swaptions", "canneal", "vips", "streamcluster"];
        let jobs: Vec<RunJob> = apps.iter().map(|&a| job(a, 0xbeef, false)).collect();
        let serial = Engine::new(1).run_grid(&jobs);
        let parallel = Engine::new(4).run_grid(&jobs);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            let (s, p) = (s.run.unwrap(), p.run.unwrap());
            assert_eq!(s.result.name, apps[i], "slot order preserved");
            assert_eq!(p.result.name, apps[i], "slot order preserved");
            assert_eq!(s.result.completion_cycles, p.result.completion_cycles);
            assert_eq!(
                s.result.stats.core_cache_misses,
                p.result.stats.core_cache_misses
            );
            assert_eq!(
                s.result.stats.total_traffic_bytes(),
                p.result.stats.total_traffic_bytes()
            );
        }
    }

    #[test]
    fn memoized_jobs_hit_the_cache() {
        let _g = lock();
        // A seed no other test uses keeps this isolated from the shared
        // process-wide cache.
        let seed = 0x51ee_d00d_0001;
        let jobs = vec![
            job("blackscholes", seed, true),
            job("blackscholes", seed, true),
        ];
        let outs = Engine::new(1).run_grid(&jobs);
        assert!(!outs[0].cache_hit);
        assert!(outs[1].cache_hit);
        assert!(Arc::ptr_eq(outs[0].run.unwrap(), outs[1].run.unwrap()));
        // A different config misses.
        let mut other = job("blackscholes", seed, true);
        other.cfg.noc.hop_cycles += 1;
        let out = Engine::new(1).run_grid(std::slice::from_ref(&other));
        assert!(!out[0].cache_hit);
    }

    #[test]
    fn summary_counts_runs_and_hits() {
        let _g = lock();
        let seed = 0x51ee_d00d_0002;
        let before = summary();
        let jobs = vec![
            job("fluidanimate", seed, true),
            job("fluidanimate", seed, true),
        ];
        let _ = Engine::new(2).run_grid(&jobs);
        let after = summary();
        assert_eq!(after.runs_executed - before.runs_executed, 1);
        assert_eq!(after.cache_hits - before.cache_hits, 1);
        assert!(after.sim_cycles > before.sim_cycles);
    }

    #[test]
    fn unmemoized_jobs_recompute() {
        let _g = lock();
        let seed = 0x51ee_d00d_0003;
        let jobs = vec![job("dedup", seed, false), job("dedup", seed, false)];
        let outs = Engine::new(2).run_grid(&jobs);
        assert!(!outs[0].cache_hit && !outs[1].cache_hit);
        assert!(!Arc::ptr_eq(outs[0].run.unwrap(), outs[1].run.unwrap()));
        assert_eq!(
            outs[0].run.unwrap().result.completion_cycles,
            outs[1].run.unwrap().result.completion_cycles,
            "deterministic recompute"
        );
    }

    #[test]
    fn panicking_point_is_isolated_and_registered() {
        let _g = lock();
        reset_failures();
        let before = summary();
        let seed = 0x51ee_d00d_0004;
        let mut bad = job("facesim", seed, false);
        bad.make = Arc::new(|| panic!("deliberate test panic"));
        let jobs = vec![
            job("facesim", seed, false),
            bad,
            job("canneal", seed, false),
        ];
        let outs = Engine::new(2).run_grid(&jobs);
        assert!(outs[0].run.ok().is_some(), "healthy point unaffected");
        assert!(outs[2].run.ok().is_some(), "healthy point unaffected");
        assert!(outs[1].run.failure().is_some());
        let msg = outs[1].run.failure().expect("failure message");
        assert!(msg.contains("deliberate test panic"), "got: {msg}");
        let registry = failed_points();
        assert_eq!(registry.len(), 1);
        assert_eq!(registry[0], msg);
        assert_eq!(summary().failed - before.failed, 1);
        reset_failures();
    }

    #[test]
    fn failure_description_names_context_point_and_payload() {
        let _g = lock();
        reset_failures();
        let seed = 0x51ee_d00d_0006;
        let mut bad = job("bodytrack", seed, false);
        bad.params.audit = true;
        bad.make = Arc::new(|| panic!("synthetic oracle violation"));
        set_sweep_context(Some("Figure 12"));
        let outs = Engine::new(1).run_grid(std::slice::from_ref(&bad));
        set_sweep_context(None);
        let msg = outs[0].run.failure().expect("failure message").to_string();
        let fingerprint = format!("{:016x}", bad.cfg.fingerprint());
        for needle in [
            "[Figure 12]",
            &fingerprint,
            "0x51eed00d0006",
            "2000 refs/core",
            "audited",
            "synthetic oracle violation",
        ] {
            assert!(msg.contains(needle), "missing `{needle}` in: {msg}");
        }
        // Cleared context leaves no stale figure label on later failures.
        let outs = Engine::new(1).run_grid(std::slice::from_ref(&bad));
        let msg = outs[0].run.failure().expect("failure message");
        assert!(!msg.contains("[Figure 12]"), "stale context in: {msg}");
        reset_failures();
    }

    #[test]
    fn failed_memoized_point_is_not_cached() {
        let _g = lock();
        reset_failures();
        let seed = 0x51ee_d00d_0005;
        let mut bad = job("freqmine", seed, true);
        bad.make = Arc::new(|| panic!("first attempt fails"));
        let outs = Engine::new(1).run_grid(std::slice::from_ref(&bad));
        assert!(outs[0].run.failure().is_some());
        // The identical key retries from scratch instead of replaying the
        // failure (or a poisoned slot) out of the cache.
        let good = job("freqmine", seed, true);
        let outs = Engine::new(1).run_grid(std::slice::from_ref(&good));
        assert!(!outs[0].cache_hit, "failure must not populate the cache");
        assert!(outs[0].run.ok().is_some());
        reset_failures();
    }
}
