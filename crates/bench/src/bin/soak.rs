//! Torture soak campaign: long-run adversarial workloads under per-point
//! wall-clock and memory budgets, with watchdog escalation, panic
//! quarantine, and a machine-readable report.
//!
//! `cargo run --release -p zerodev-bench --bin soak`
//!
//! Every point drives a torture workload (`zerodev_workloads::torture`)
//! through the resumable engine ([`zerodev_sim::PausedRun`]) in bounded
//! steps, checking budgets between steps:
//!
//! * **Clean finish** — the point passes; throughput is reported.
//! * **Budget exhausted** (wall clock or resident memory) — the run is
//!   checkpointed to disk and skipped: *graceful degradation*, the
//!   campaign continues, the report says exactly where the budget went.
//! * **Stall** ([`SimError::Stalled`]: a NACK storm past its retry
//!   budget, or a core silent past the watchdog horizon) — the point is
//!   *quarantined*: the paused run is checkpointed for post-mortem replay,
//!   a replayable trace artifact is recorded, and the campaign continues
//!   with a nonzero final exit.
//! * **Panic** (oracle violation, protocol bug) — the point is quarantined
//!   and the failure is *minimized*: the smallest `refs_per_core` that
//!   still reproduces is found by bisection (runs are deterministic, so
//!   the prefix property holds), emitted as a trace artifact, and printed
//!   as an oracle repro command.
//!
//! Environment: the shared `ZERODEV_QUICK` / `ZERODEV_AUDIT` /
//! `ZERODEV_FAULTS` knobs (see [`RunParams::from_env`]), plus
//! `ZERODEV_SOAK_WALL_MS` (per-point wall budget, default 60000),
//! `ZERODEV_SOAK_RSS_MB` (resident-set ceiling, default 8192),
//! `ZERODEV_SOAK_DIR` (artifact directory, default `target/soak`), and
//! `ZERODEV_SOAK_ONLY=<substr>` (run only matching point ids — the repro
//! filter quarantine reports print). The fault spec arms NACK storms and
//! state corruption ([`zerodev_sim::faults`]); a storm longer than its
//! retry budget is how a livelock is injected on purpose.
//!
//! Exits nonzero when any point was quarantined; budget-degraded points
//! alone exit zero. The report is written to `<dir>/soak_report.json`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use zerodev_bench::{baseline, sparse, zerodev_default_nodir, zerodev_sparse, SEED};
use zerodev_common::{env, panic_message, SystemConfig};
use zerodev_sim::runner::RunParams;
use zerodev_sim::{RunStatus, SimError, Simulation};
use zerodev_workloads::{multithreaded, Trace, TORTURE};

/// References advanced between budget checks: small enough that a budget
/// overshoot is bounded, large enough that the check cost is noise.
const STEP: u64 = 16_384;

/// One campaign point.
struct Point {
    id: String,
    cfg_label: &'static str,
    cfg: SystemConfig,
    app: &'static str,
    seed: u64,
}

/// How a point ended.
enum Outcome {
    /// Finished inside its budgets.
    Ok { completion_cycles: u64 },
    /// Budget ran out; checkpointed and skipped (not a failure).
    Degraded {
        what: &'static str,
        artifact: String,
    },
    /// Watchdog/retry-budget stall; checkpointed and quarantined.
    Stalled {
        error: SimError,
        artifact: String,
        trace: String,
    },
    /// Panic; minimized and quarantined.
    Panicked {
        message: String,
        minimized_refs: Option<u64>,
        artifact: String,
    },
}

impl Outcome {
    fn quarantined(&self) -> bool {
        matches!(self, Outcome::Stalled { .. } | Outcome::Panicked { .. })
    }

    fn label(&self) -> &'static str {
        match self {
            Outcome::Ok { .. } => "ok",
            Outcome::Degraded { .. } => "degraded",
            Outcome::Stalled { .. } => "stalled",
            Outcome::Panicked { .. } => "panicked",
        }
    }
}

/// One row of the report.
struct PointReport {
    point: Point,
    outcome: Outcome,
    refs_retired: u64,
    wall_ms: u128,
}

fn configs(quick: bool) -> Vec<(&'static str, SystemConfig)> {
    let mut cfgs = vec![
        ("baseline", baseline()),
        ("zerodev_nodir", zerodev_default_nodir()),
    ];
    if !quick {
        cfgs.push(("sparse_1_8", sparse(1, 8)));
        cfgs.push(("zerodev_sparse_1_8", zerodev_sparse(1, 8)));
    }
    cfgs
}

fn matrix(quick: bool) -> Vec<Point> {
    let seeds: &[u64] = if quick { &[SEED] } else { &[SEED, 0x7041_5eed] };
    let mut points = Vec::new();
    for (cfg_label, cfg) in configs(quick) {
        for app in TORTURE {
            for &seed in seeds {
                points.push(Point {
                    id: format!("{app}@{cfg_label}#{seed:x}"),
                    cfg_label,
                    cfg: cfg.clone(),
                    app,
                    seed,
                });
            }
        }
    }
    points
}

fn build(p: &Point, params: &RunParams) -> Simulation {
    let cores = p.cfg.cores * p.cfg.sockets;
    let wl = multithreaded(p.app, cores, p.seed).expect("torture workloads are registered");
    let mut sim = Simulation::new(&p.cfg, wl);
    params.arm(&mut sim);
    sim
}

/// Resident-set size in bytes, from `/proc/self/statm` (None off Linux or
/// on any parse hiccup — the memory budget then simply never fires).
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

fn artifact_path(dir: &str, id: &str, ext: &str) -> String {
    let safe: String = id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{dir}/{safe}.{ext}")
}

fn write_artifact(path: &str, bytes: &[u8]) -> String {
    match std::fs::write(path, bytes) {
        Ok(()) => path.to_string(),
        Err(e) => {
            eprintln!("warning: could not write artifact {path}: {e}");
            String::new()
        }
    }
}

/// Records a fresh copy of the point's workload as a replayable trace
/// covering the failure prefix: warm-up plus the per-core share of the
/// retired references, plus slack for early finishers.
fn trace_artifact(p: &Point, params: &RunParams, retired: u64, dir: &str) -> String {
    let cores = (p.cfg.cores * p.cfg.sockets).max(1);
    let per_thread = params.warmup_refs + retired.div_ceil(cores as u64) + 64;
    let mut wl = multithreaded(p.app, cores, p.seed).expect("torture workloads are registered");
    let trace = Trace::record(&mut wl, per_thread as usize);
    write_artifact(
        &artifact_path(dir, &p.id, "trace"),
        trace.to_text().as_bytes(),
    )
}

/// True when a fresh run of this point with target `refs` panics.
/// Deterministic, so this is a pure function of `refs`.
fn panics_with(p: &Point, params: &RunParams, refs: u64) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        let mut run = build(p, params).start(refs, params.warmup_refs);
        let _ = run.advance(u64::MAX); // a stall is not a panic
        let _ = run.finish();
    }))
    .is_err()
}

/// Bisects the smallest `refs_per_core` that still reproduces the panic.
/// The event order of two runs is identical until the first core reaches
/// its target, so panic-at-target is monotone in the target and binary
/// search applies. Returns `None` when even the observed target no longer
/// reproduces (e.g. the panic needed the post-run audit sweep timing).
fn minimize(p: &Point, params: &RunParams, hi: u64) -> Option<u64> {
    if !panics_with(p, params, hi) {
        return None;
    }
    let (mut lo, mut hi) = (1u64, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if panics_with(p, params, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi)
}

fn repro_command(p: &Point) -> String {
    // Carry the knobs that shaped this run so the command stands alone.
    let mut env_prefix = String::from("ZERODEV_AUDIT=1 ");
    for knob in ["ZERODEV_FAULTS", "ZERODEV_QUICK"] {
        if let Ok(v) = std::env::var(knob) {
            env_prefix.push_str(&format!("{knob}='{v}' "));
        }
    }
    format!(
        "{env_prefix}ZERODEV_SOAK_ONLY='{}' cargo run --release -p zerodev-bench --bin soak",
        p.id
    )
}

fn run_point(
    p: Point,
    params: &RunParams,
    wall_budget_ms: u128,
    rss_budget: u64,
    dir: &str,
) -> PointReport {
    let t0 = Instant::now();
    let started = catch_unwind(AssertUnwindSafe(|| {
        build(&p, params).start(params.refs_per_core, params.warmup_refs)
    }));
    let mut run = match started {
        Ok(run) => run,
        Err(e) => {
            // Panic during warm-up: minimize against the smallest target
            // (the warm-up runs in full whatever the target is).
            let message = panic_message(&*e);
            let minimized_refs = minimize(&p, params, 1);
            let artifact = trace_artifact(&p, params, 0, dir);
            return PointReport {
                point: p,
                outcome: Outcome::Panicked {
                    message,
                    minimized_refs,
                    artifact,
                },
                refs_retired: 0,
                wall_ms: t0.elapsed().as_millis(),
            };
        }
    };
    loop {
        let before = run.refs_retired();
        let step = catch_unwind(AssertUnwindSafe(|| run.advance(STEP)));
        match step {
            Err(e) => {
                let message = panic_message(&*e);
                let retired = before + STEP; // upper bound on the failing pop
                drop(run); // state after a panic is unspecified
                let minimized_refs = minimize(&p, params, params.refs_per_core.min(retired));
                let artifact = trace_artifact(&p, params, retired, dir);
                return PointReport {
                    refs_retired: before,
                    wall_ms: t0.elapsed().as_millis(),
                    point: p,
                    outcome: Outcome::Panicked {
                        message,
                        minimized_refs,
                        artifact,
                    },
                };
            }
            Ok(Err(error)) => {
                // Watchdog escalation: checkpoint-and-skip.
                let artifact =
                    write_artifact(&artifact_path(dir, &p.id, "ckpt"), &run.checkpoint());
                let retired = run.refs_retired();
                let trace = trace_artifact(&p, params, retired, dir);
                return PointReport {
                    refs_retired: retired,
                    wall_ms: t0.elapsed().as_millis(),
                    point: p,
                    outcome: Outcome::Stalled {
                        error,
                        artifact,
                        trace,
                    },
                };
            }
            Ok(Ok(RunStatus::Finished)) => {
                let retired = run.refs_retired();
                let finished = catch_unwind(AssertUnwindSafe(|| run.finish()));
                return match finished {
                    Ok(result) => PointReport {
                        refs_retired: retired,
                        wall_ms: t0.elapsed().as_millis(),
                        point: p,
                        outcome: Outcome::Ok {
                            completion_cycles: result.completion_cycles,
                        },
                    },
                    Err(e) => {
                        // The final audit sweep flagged a violation.
                        let message = panic_message(&*e);
                        let minimized_refs = minimize(&p, params, params.refs_per_core);
                        let artifact = trace_artifact(&p, params, retired, dir);
                        PointReport {
                            refs_retired: retired,
                            wall_ms: t0.elapsed().as_millis(),
                            point: p,
                            outcome: Outcome::Panicked {
                                message,
                                minimized_refs,
                                artifact,
                            },
                        }
                    }
                };
            }
            Ok(Ok(RunStatus::Paused)) => {
                let wall = t0.elapsed().as_millis();
                let over_rss = rss_bytes().is_some_and(|b| b > rss_budget);
                if wall > wall_budget_ms || over_rss {
                    let artifact =
                        write_artifact(&artifact_path(dir, &p.id, "ckpt"), &run.checkpoint());
                    return PointReport {
                        refs_retired: run.refs_retired(),
                        wall_ms: wall,
                        point: p,
                        outcome: Outcome::Degraded {
                            what: if over_rss { "memory" } else { "wall-clock" },
                            artifact,
                        },
                    };
                }
            }
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn report_json(params: &RunParams, rows: &[PointReport], wall_ms: u128) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"zerodev-soak-v1\",\n");
    out.push_str(&format!(
        "  \"refs_per_core\": {},\n  \"warmup_refs\": {},\n  \"audit\": {},\n  \"faults\": {},\n",
        params.refs_per_core,
        params.warmup_refs,
        params.audit,
        params.faults.is_some(),
    ));
    out.push_str(&format!("  \"wall_ms\": {wall_ms},\n  \"points\": [\n"));
    for (i, row) in rows.iter().enumerate() {
        let p = &row.point;
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"workload\": \"{}\", \"config\": \"{}\", \
             \"seed\": \"{:#x}\", \"outcome\": \"{}\", \"refs_retired\": {}, \"wall_ms\": {}",
            json_escape(&p.id),
            json_escape(p.app),
            json_escape(p.cfg_label),
            p.seed,
            row.outcome.label(),
            row.refs_retired,
            row.wall_ms,
        ));
        match &row.outcome {
            Outcome::Ok { completion_cycles } => {
                out.push_str(&format!(", \"completion_cycles\": {completion_cycles}"));
            }
            Outcome::Degraded { what, artifact } => {
                out.push_str(&format!(
                    ", \"budget\": \"{what}\", \"checkpoint\": \"{}\"",
                    json_escape(artifact)
                ));
            }
            Outcome::Stalled {
                error,
                artifact,
                trace,
            } => {
                out.push_str(&format!(
                    ", \"error\": \"{}\", \"checkpoint\": \"{}\", \"trace\": \"{}\", \
                     \"repro\": \"{}\"",
                    json_escape(&error.to_string()),
                    json_escape(artifact),
                    json_escape(trace),
                    json_escape(&repro_command(p)),
                ));
            }
            Outcome::Panicked {
                message,
                minimized_refs,
                artifact,
            } => {
                out.push_str(&format!(
                    ", \"error\": \"{}\", \"minimized_refs_per_core\": {}, \
                     \"trace\": \"{}\", \"repro\": \"{}\"",
                    json_escape(message),
                    minimized_refs.map_or("null".to_string(), |r| r.to_string()),
                    json_escape(artifact),
                    json_escape(&repro_command(p)),
                ));
            }
        }
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    let quarantined = rows.iter().filter(|r| r.outcome.quarantined()).count();
    let degraded = rows
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Degraded { .. }))
        .count();
    out.push_str(&format!(
        "  ],\n  \"total\": {},\n  \"quarantined\": {quarantined},\n  \"degraded\": {degraded}\n}}\n",
        rows.len()
    ));
    out
}

fn main() {
    let params = RunParams::from_env();
    let quick = env::var_flag("ZERODEV_QUICK");
    let wall_budget_ms: u128 = env::var_or("ZERODEV_SOAK_WALL_MS", 60_000u64).into();
    let rss_budget: u64 = env::var_or("ZERODEV_SOAK_RSS_MB", 8_192u64) * (1 << 20);
    let dir = env::var_or("ZERODEV_SOAK_DIR", "target/soak".to_string());
    let only = std::env::var("ZERODEV_SOAK_ONLY").unwrap_or_default();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {dir}: {e}; artifacts will be dropped");
    }

    // Quarantined points panic by design (oracle violations); keep the
    // default hook from spamming backtraces mid-campaign.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let points: Vec<Point> = matrix(quick)
        .into_iter()
        .filter(|p| only.is_empty() || p.id.contains(&only))
        .collect();
    println!(
        "== soak: {} points, {} refs/core, audit={}, faults={}, budgets {}ms/{}MB ==",
        points.len(),
        params.refs_per_core,
        params.audit,
        params.faults.is_some(),
        wall_budget_ms,
        rss_budget >> 20,
    );

    let t0 = Instant::now();
    let mut rows: Vec<PointReport> = Vec::with_capacity(points.len());
    for p in points {
        let id = p.id.clone();
        let row = run_point(p, &params, wall_budget_ms, rss_budget, &dir);
        match &row.outcome {
            Outcome::Ok { .. } => {
                println!("  {id}: ok ({} refs, {}ms)", row.refs_retired, row.wall_ms);
            }
            Outcome::Degraded { what, artifact } => {
                println!(
                    "  {id}: DEGRADED ({what} budget at {} refs; checkpoint {artifact})",
                    row.refs_retired
                );
            }
            Outcome::Stalled {
                error,
                artifact,
                trace,
            } => {
                println!("  {id}: QUARANTINED (stall: {error})");
                println!("    checkpoint {artifact}; trace {trace}");
                println!("    repro: {}", repro_command(&row.point));
            }
            Outcome::Panicked {
                message,
                minimized_refs,
                artifact,
            } => {
                let first = message.lines().next().unwrap_or(message);
                println!("  {id}: QUARANTINED (panic: {first})");
                match minimized_refs {
                    Some(r) => println!("    minimized to refs_per_core={r}; trace {artifact}"),
                    None => println!("    not reproducible standalone; trace {artifact}"),
                }
                println!("    repro: {}", repro_command(&row.point));
            }
        }
        rows.push(row);
    }
    std::panic::set_hook(default_hook);

    let wall_ms = t0.elapsed().as_millis();
    let report = report_json(&params, &rows, wall_ms);
    let report_path = format!("{dir}/soak_report.json");
    let _ = write_artifact(&report_path, report.as_bytes());

    let quarantined = rows.iter().filter(|r| r.outcome.quarantined()).count();
    let degraded = rows
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Degraded { .. }))
        .count();
    println!(
        "\nsoak: {} points, {} ok, {degraded} degraded, {quarantined} quarantined in {:.1}s \
         (report {report_path})",
        rows.len(),
        rows.len() - degraded - quarantined,
        wall_ms as f64 / 1e3,
    );
    if quarantined > 0 {
        for r in rows.iter().filter(|r| r.outcome.quarantined()) {
            println!("  quarantined: {}", r.point.id);
        }
        std::process::exit(1);
    }
}
