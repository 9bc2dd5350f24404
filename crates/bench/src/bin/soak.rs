//! Torture soak campaign: long-run adversarial workloads under the
//! coherence oracle, with panic quarantine and a machine-readable report.
//!
//! `cargo run --release -p zerodev-bench --bin soak`
//!
//! Every point runs a torture workload (`zerodev_workloads::torture`) to
//! completion in one call, under one `catch_unwind`. There is no time or
//! memory budget, so a point's verdict does not depend on how fast the
//! host is. A point ends in one of three ways:
//!
//! * **ok** — the run finished; throughput is reported.
//! * **not_injected** — the run finished, but the armed corruption never
//!   found a victim, so the point did not check what it was armed to
//!   check. It fails the campaign, as it fails `fault_campaign`.
//! * **panicked** (oracle violation, protocol bug) — the point is
//!   *quarantined* and the failure is *minimized*: the smallest
//!   `refs_per_core` that still reproduces is found by bisection (runs are
//!   deterministic, so the prefix property holds), emitted as a trace
//!   artifact, and printed as an oracle repro command.
//!
//! A run cannot stall: each step of the event loop retires a reference
//! (DESIGN.md §6.2), so every point ends.
//!
//! Environment: the shared `ZERODEV_QUICK` / `ZERODEV_AUDIT` knobs (see
//! [`RunParams::from_env`]); `ZERODEV_FAULTS=<spec>`, which only this
//! driver reads, to arm a state corruption ([`zerodev_sim::faults`]; under
//! audit that is how a protocol bug is injected on purpose);
//! `ZERODEV_SOAK_DIR` (artifact directory, default `target/soak`); and
//! `ZERODEV_SOAK_ONLY=<substr>` (run only matching point ids — the repro
//! filter quarantine reports print).
//!
//! Every point runs even after one fails; the campaign exits nonzero when
//! any point was quarantined or not injected. The report is written to
//! `<dir>/soak_report.json`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use zerodev_bench::{
    baseline, sparse, zerodev_default_nodir, zerodev_nodir_1mb, zerodev_sparse, SEED,
};
use zerodev_common::config::SpillPolicy;
use zerodev_common::{env, panic_message, SystemConfig};
use zerodev_sim::runner::RunParams;
use zerodev_sim::{FaultConfig, SimResult, Simulation};
use zerodev_workloads::{multithreaded, Trace, TORTURE};

/// One campaign point.
struct Point {
    id: String,
    cfg_label: &'static str,
    cfg: SystemConfig,
    app: &'static str,
    seed: u64,
}

/// What a finished run reports.
struct Finished {
    completion_cycles: u64,
    refs_retired: u64,
    /// State corruptions the fault plan injected.
    corruptions: u64,
}

/// How a point ended.
enum Outcome {
    /// Finished; an armed corruption, if any, was injected.
    Ok(Finished),
    /// Finished, but the armed corruption never found a victim.
    NotInjected(Finished),
    /// Panic; minimized and quarantined.
    Panicked {
        message: String,
        minimized_refs: u64,
        artifact: String,
    },
}

impl Outcome {
    fn label(&self) -> &'static str {
        match self {
            Outcome::Ok(_) => "ok",
            Outcome::NotInjected(_) => "not_injected",
            Outcome::Panicked { .. } => "panicked",
        }
    }
}

/// One row of the report.
struct PointReport {
    point: Point,
    outcome: Outcome,
    wall_ms: u128,
}

fn configs(quick: bool) -> Vec<(&'static str, SystemConfig)> {
    let mut cfgs = vec![
        ("baseline", baseline()),
        ("zerodev_nodir", zerodev_default_nodir()),
        // The one machine that houses entries at home, so `home`
        // corruptions find victims. No id filter of another point matches
        // its label.
        (
            "zerodev_1mb_nodir",
            zerodev_nodir_1mb(SpillPolicy::FusePrivateSpillShared),
        ),
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
/// covering the failure prefix: warm-up plus the minimized per-core
/// target, plus slack for early finishers.
fn trace_artifact(p: &Point, params: &RunParams, refs_per_core: u64, dir: &str) -> String {
    let cores = (p.cfg.cores * p.cfg.sockets).max(1);
    let per_thread = params.warmup_refs + refs_per_core + 64;
    let mut wl = multithreaded(p.app, cores, p.seed).expect("torture workloads are registered");
    let trace = Trace::record(&mut wl, per_thread as usize);
    let safe: String =
        p.id.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
    write_artifact(&format!("{dir}/{safe}.trace"), trace.to_text().as_bytes())
}

/// A fresh run of this point to target `refs`, its panic caught.
/// Deterministic, so the outcome is a pure function of `refs`.
fn try_run(p: &Point, params: &RunParams, refs: u64) -> std::thread::Result<SimResult> {
    catch_unwind(AssertUnwindSafe(|| {
        build(p, params).run(refs, params.warmup_refs)
    }))
}

/// Bisects the smallest `refs_per_core` that still reproduces the panic,
/// given that target `hi` panicked. The event order of two runs is
/// identical until the first core reaches its target, so panic-at-target
/// is monotone in the target and binary search applies.
fn minimize(p: &Point, params: &RunParams, hi: u64) -> u64 {
    let (mut lo, mut hi) = (1u64, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if try_run(p, params, mid).is_err() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
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

fn run_point(p: Point, params: &RunParams, dir: &str) -> PointReport {
    let t0 = Instant::now();
    let outcome = match try_run(&p, params, params.refs_per_core) {
        Ok(r) => {
            let finished = Finished {
                completion_cycles: r.completion_cycles,
                refs_retired: r.refs_retired,
                corruptions: r.faults.corruptions,
            };
            let armed = params.faults.is_some_and(|f| f.corrupt.is_some());
            if armed && finished.corruptions == 0 {
                Outcome::NotInjected(finished)
            } else {
                Outcome::Ok(finished)
            }
        }
        Err(e) => {
            let message = panic_message(&*e);
            let minimized_refs = minimize(&p, params, params.refs_per_core);
            let artifact = trace_artifact(&p, params, minimized_refs, dir);
            Outcome::Panicked {
                message,
                minimized_refs,
                artifact,
            }
        }
    };
    PointReport {
        point: p,
        outcome,
        wall_ms: t0.elapsed().as_millis(),
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
    out.push_str("  \"schema\": \"zerodev-soak-v2\",\n");
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
             \"seed\": \"{:#x}\", \"outcome\": \"{}\", \"wall_ms\": {}",
            json_escape(&p.id),
            json_escape(p.app),
            json_escape(p.cfg_label),
            p.seed,
            row.outcome.label(),
            row.wall_ms,
        ));
        match &row.outcome {
            Outcome::Ok(f) | Outcome::NotInjected(f) => {
                out.push_str(&format!(
                    ", \"refs_retired\": {}, \"completion_cycles\": {}, \"corruptions\": {}",
                    f.refs_retired, f.completion_cycles, f.corruptions
                ));
            }
            Outcome::Panicked {
                message,
                minimized_refs,
                artifact,
            } => {
                out.push_str(&format!(
                    ", \"error\": \"{}\", \"minimized_refs_per_core\": {minimized_refs}, \
                     \"trace\": \"{}\", \"repro\": \"{}\"",
                    json_escape(message),
                    json_escape(artifact),
                    json_escape(&repro_command(p)),
                ));
            }
        }
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    let count = |label: &str| rows.iter().filter(|r| r.outcome.label() == label).count();
    out.push_str(&format!(
        "  ],\n  \"total\": {},\n  \"quarantined\": {},\n  \"not_injected\": {}\n}}\n",
        rows.len(),
        count("panicked"),
        count("not_injected"),
    ));
    out
}

fn main() {
    let params = RunParams {
        faults: FaultConfig::from_env(),
        ..RunParams::from_env()
    };
    let quick = env::var_flag("ZERODEV_QUICK");
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
        "== soak: {} points, {} refs/core, audit={}, faults={} ==",
        points.len(),
        params.refs_per_core,
        params.audit,
        params.faults.is_some(),
    );

    let t0 = Instant::now();
    let mut rows: Vec<PointReport> = Vec::with_capacity(points.len());
    for p in points {
        let row = run_point(p, &params, &dir);
        let id = &row.point.id;
        match &row.outcome {
            Outcome::Ok(f) => {
                println!("  {id}: ok ({} refs, {}ms)", f.refs_retired, row.wall_ms);
            }
            Outcome::NotInjected(f) => {
                println!(
                    "  {id}: NOT INJECTED (the armed corruption found no victim in {} refs)",
                    f.refs_retired
                );
            }
            Outcome::Panicked {
                message,
                minimized_refs,
                artifact,
            } => {
                let first = message.lines().next().unwrap_or(message);
                println!("  {id}: QUARANTINED (panic: {first})");
                println!("    minimized to refs_per_core={minimized_refs}; trace {artifact}");
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

    let failed: Vec<&PointReport> = rows
        .iter()
        .filter(|r| !matches!(r.outcome, Outcome::Ok(_)))
        .collect();
    println!(
        "\nsoak: {} points, {} ok, {} failed in {:.1}s (report {report_path})",
        rows.len(),
        rows.len() - failed.len(),
        failed.len(),
        wall_ms as f64 / 1e3,
    );
    if !failed.is_empty() {
        for r in &failed {
            println!("  {}: {}", r.outcome.label(), r.point.id);
        }
        std::process::exit(1);
    }
}
