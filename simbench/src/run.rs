//! Running one point or one exploration through the public entry points,
//! timing each phase from outside, and fingerprinting what it produced.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use zerodev_model::config::ModelConfig;
use zerodev_model::{explore, Exploration, Limits};
use zerodev_sim::{PausedRun, RunStatus, SimResult, Simulation};

use crate::steps::{classify, Counters, CLASSES, PRIVATE};
use crate::suite::Point;

/// FNV-1a over the rendered result record — the recipe of the repository's
/// stats-parity goldens, so a fingerprint here covers every `Stats`
/// counter, the per-core trajectories, completion and references retired.
pub fn fingerprint(r: &SimResult) -> u64 {
    format!(
        "{:?}|{:?}|{:?}|{}|{}",
        r.stats, r.core_cycles, r.core_instrs, r.completion_cycles, r.refs_retired
    )
    .bytes()
    .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Runs `f`, turning a panic into an `Err` carrying its message, so one
/// broken point is counted as failed instead of aborting the run.
pub fn isolate<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(|e| format!("{what}: {e}")),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("{what}: panicked: {msg}"))
        }
    }
}

/// One completed simulator point with its host-time split.
#[derive(Clone, Debug)]
pub struct PointRun {
    pub result: SimResult,
    pub fingerprint: u64,
    /// Workload generation plus `Simulation::new`.
    pub build_s: f64,
    /// `Simulation::start`: the warm-up references.
    pub warmup_s: f64,
    /// The measured region: `PausedRun::advance` until finished.
    pub advance_s: f64,
}

/// Builds and warms a point, returning the paused measured region.
fn start(p: &Point, seed: u64) -> (PausedRun, f64, f64) {
    let t0 = Instant::now();
    let sim = Simulation::new(&p.cfg, p.workload(seed));
    let t1 = Instant::now();
    let run = sim.start(p.refs, p.warmup);
    (run, (t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64())
}

/// Checks what a finished point must satisfy at any seed.
fn checked(p: &Point, result: SimResult) -> Result<SimResult, String> {
    if p.is_zerodev() && result.stats.dev_invalidations > 0 {
        return Err(format!(
            "ZeroDEV machine produced {} directory eviction victims",
            result.stats.dev_invalidations
        ));
    }
    Ok(result)
}

/// Runs a point untraced: one unbounded `advance`.
pub fn run_point(p: &Point, seed: u64) -> Result<PointRun, String> {
    isolate(&p.label, || {
        let (mut run, build_s, warmup_s) = start(p, seed);
        let t = Instant::now();
        run.advance(u64::MAX).map_err(|e| e.to_string())?;
        let advance_s = t.elapsed().as_secs_f64();
        let result = checked(p, run.finish())?;
        Ok(PointRun {
            fingerprint: fingerprint(&result),
            result,
            build_s,
            warmup_s,
            advance_s,
        })
    })
}

/// Host time per simulated reference, by step class.
#[derive(Clone, Debug, Default)]
pub struct StepTrace {
    pub count: [u64; CLASSES.len()],
    pub total_ns: [u64; CLASSES.len()],
    /// Per-step times of private steps and of steps that reached the
    /// uncore, for their quantiles.
    pub private_ns: Vec<u32>,
    pub uncore_ns: Vec<u32>,
    /// Host seconds of the traced measured regions, clock reads included.
    pub advance_s: f64,
    pub refs: u64,
}

impl StepTrace {
    fn record(&mut self, class: usize, ns: u64) {
        self.count[class] += 1;
        self.total_ns[class] += ns;
        let sample = u32::try_from(ns).unwrap_or(u32::MAX);
        if class == PRIVATE {
            self.private_ns.push(sample);
        } else {
            self.uncore_ns.push(sample);
        }
    }
}

/// Runs a point one reference at a time (`advance(1)`), timing and
/// classifying every step. Returns the fingerprint, which must equal the
/// untraced run's: tracing reads the engine, it never steers it.
pub fn run_point_traced(p: &Point, seed: u64, trace: &mut StepTrace) -> Result<u64, String> {
    isolate(&p.label, || {
        let (mut run, _, _) = start(p, seed);
        let t0 = Instant::now();
        let mut before = Counters::of(&run.system().stats);
        loop {
            let t = Instant::now();
            let status = run.advance(1).map_err(|e| e.to_string())?;
            let ns = t.elapsed().as_nanos();
            let after = Counters::of(&run.system().stats);
            trace.record(
                classify(&before, &after),
                u64::try_from(ns).unwrap_or(u64::MAX),
            );
            before = after;
            if status == RunStatus::Finished {
                break;
            }
        }
        trace.advance_s += t0.elapsed().as_secs_f64();
        let result = checked(p, run.finish())?;
        trace.refs += result.refs_retired;
        Ok(fingerprint(&result))
    })
}

/// One completed exploration with its host-time split.
#[derive(Clone, Debug)]
pub struct McRun {
    pub exploration: Exploration,
    /// Building the machine plus the bounded warm-up exploration.
    pub build_s: f64,
    pub warmup_s: f64,
    pub explore_s: f64,
}

/// States the warm-up exploration may reach before the measured one: the
/// checker's counterpart of a simulator warm-up, which faults in the
/// allocator's pages and checks the machine builds.
const MC_WARMUP_STATES: usize = 200;

/// Explores a model machine exhaustively.
pub fn run_mc(make: impl FnOnce() -> ModelConfig) -> Result<McRun, String> {
    isolate("model checker", || {
        let t0 = Instant::now();
        let mc = make();
        let t1 = Instant::now();
        explore(
            &mc,
            &Limits {
                max_states: MC_WARMUP_STATES,
                max_depth: usize::MAX,
            },
        );
        let t2 = Instant::now();
        let exploration = explore(&mc, &Limits::default());
        let explore_s = t2.elapsed().as_secs_f64();
        if let Some(v) = exploration
            .violation
            .as_ref()
            .or(exploration.undrainable.as_ref())
        {
            return Err(format!("{}: {}", mc.name, v.message));
        }
        Ok(McRun {
            exploration,
            build_s: (t1 - t0).as_secs_f64(),
            warmup_s: (t2 - t1).as_secs_f64(),
            explore_s,
        })
    })
}

/// The process's peak resident set so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
