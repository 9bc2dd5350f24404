//! Host-time benchmark of the ZeroDEV simulator and model checker.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S | --reps R]
//!           [--trace [0|1]] [--json PATH]
//! benchmark --compare PARENT.json CHANGE.json [--bench-json BENCHMARK.json]
//! ```
//!
//! A supervising process runs each (workload, rep) in a fresh child of this
//! binary, one at a time, so the peak RSS is per workload and no allocator
//! state or memo cache carries from one rep to the next. With `--seconds`
//! it starts reps until the next one would end past that budget; otherwise
//! it runs `--reps` (default 3). `--trace` instead runs one traced child per
//! workload that reports the per-layer metrics. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; the exit code is nonzero when any point failed. See README.md.

mod calibrate;
mod child;
mod compare;
mod goldens;
mod json;
mod metrics;
mod probes;
mod record;
mod run;
mod steps;
mod suite;

use std::process::{Command, Stdio};
use std::time::Instant;

use child::ChildReport;
use json::Json;
use record::{median, Metric, Record, WorkloadResult};

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S | --reps R] \
[--trace [0|1]] [--json PATH]\n       benchmark --compare PARENT.json CHANGE.json \
[--bench-json BENCHMARK.json]\nworkloads: mt8 torture8 socket4 server128 mc";

#[derive(Debug, PartialEq)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    reps: usize,
    trace: bool,
    json: Option<String>,
    compare: Option<(String, String)>,
    bench_json: String,
    /// Internal: run one rep (or traced run) and report it on stdout.
    child: bool,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let digits = s.replace('_', "");
    match digits.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => digits.parse(),
    }
    .map_err(|_| format!("bad seed `{s}`"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: goldens::SEED,
        seconds: None,
        reps: 3,
        trace: false,
        json: None,
        compare: None,
        bench_json: "BENCHMARK.json".into(),
        child: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = suite::NAMES
                    .iter()
                    .find(|n| **n == name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                a.workloads.push(known);
            }
            "--seed" => a.seed = parse_seed(&value("a number")?)?,
            "--seconds" => {
                let v = value("a number of seconds")?;
                a.seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds `{v}`"))?,
                );
            }
            "--reps" => {
                let v = value("a count")?;
                a.reps = v
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or_else(|| format!("bad --reps `{v}`"))?;
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--json" => a.json = Some(value("a path")?),
            "--compare" => {
                let parent = value("two paths")?;
                a.compare = Some((parent, value("two paths")?));
            }
            "--bench-json" => a.bench_json = value("a path")?,
            "--child" => a.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = suite::NAMES.to_vec();
    }
    if a.child && a.workloads.len() != 1 {
        return Err("--child runs exactly one --workload".into());
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv) {
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            2
        }
        Ok(a) if a.compare.is_some() => run_compare(&a),
        Ok(a) if a.child => run_child(&a),
        Ok(a) => run_supervisor(&a),
    };
    std::process::exit(code);
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run_child(a: &Args) -> i32 {
    let suite = suite::suite(a.workloads[0]).expect("parse_args checked the name");
    let report = if a.trace {
        child::traced(&suite, a.seed, nproc())
    } else {
        child::rep(&suite, a.seed).report
    };
    println!("{}", report.to_json().render());
    0
}

/// Runs one child and reads its report off the last line of its stdout.
fn spawn_child(workload: &str, seed: u64, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} child {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    json::parse(line)
        .map_err(|e| e.to_string())
        .and_then(|j| ChildReport::from_json(&j))
        .map_err(|e| format!("{workload} child report: {e}"))
}

/// The attempts one child makes when it cannot report (its points).
fn points_of(workload: &str) -> u64 {
    match suite::suite(workload).map(|s| s.body) {
        Some(suite::Body::Sim(p)) => p.len() as u64,
        Some(suite::Body::Mc(d)) => d.len() as u64,
        None => 1,
    }
}

/// Runs a workload's reps and folds them into one result.
fn drive_reps(workload: &str, a: &Args) -> WorkloadResult {
    let start = Instant::now();
    let mut reports: Vec<ChildReport> = Vec::new();
    let (mut attempted, mut failed, mut runs) = (0u64, 0u64, 0usize);
    loop {
        let t = Instant::now();
        match spawn_child(workload, a.seed, false) {
            Ok(r) => {
                attempted += r.attempted;
                failed += r.failures.len() as u64;
                for f in &r.failures {
                    eprintln!("FAILED {workload}: {f}");
                }
                reports.push(r);
            }
            Err(e) => {
                eprintln!("FAILED {workload}: {e}");
                attempted += points_of(workload);
                failed += points_of(workload);
            }
        }
        runs += 1;
        let more = match a.seconds {
            Some(budget) => (start.elapsed() + t.elapsed()).as_secs_f64() <= budget,
            None => runs < a.reps,
        };
        if !more {
            break;
        }
    }
    // Every rep of one seed must reproduce the first, point by point.
    if let Some(first) = reports.first() {
        for r in &reports[1..] {
            for (i, (x, y)) in first.fingerprints.iter().zip(&r.fingerprints).enumerate() {
                if x != y {
                    eprintln!("FAILED {workload}: point {i} produced {y} after {x}");
                    failed += 1;
                }
            }
        }
    }
    let metrics = metrics::E2E
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(child::RAW)
        .map(|(name, unit)| Metric {
            name: name.into(),
            unit: unit.into(),
            values: reports.iter().filter_map(|r| r.metric(name)).collect(),
        })
        .collect();
    WorkloadResult {
        name: workload.into(),
        attempted,
        failed,
        correct: failed == 0 && !reports.is_empty(),
        metrics,
    }
}

/// Runs one traced child for a workload.
fn drive_trace(workload: &str, seed: u64) -> WorkloadResult {
    let (report, failed) = match spawn_child(workload, seed, true) {
        Ok(r) => {
            for f in &r.failures {
                eprintln!("FAILED {workload}: {f}");
            }
            let failed = r.failures.len() as u64;
            (r, failed)
        }
        Err(e) => {
            eprintln!("FAILED {workload}: {e}");
            (ChildReport::default(), 1)
        }
    };
    let metrics = metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| Metric {
            values: report.metric(&name).into_iter().collect(),
            name,
            unit: unit.into(),
        })
        .collect();
    WorkloadResult {
        name: workload.into(),
        attempted: report.attempted.max(1),
        failed,
        correct: failed == 0,
        metrics,
    }
}

fn run_supervisor(a: &Args) -> i32 {
    let record = Record {
        seed: a.seed,
        nproc: nproc(),
        trace: a.trace,
        workloads: a
            .workloads
            .iter()
            .map(|w| {
                if a.trace {
                    drive_trace(w, a.seed)
                } else {
                    drive_reps(w, a)
                }
            })
            .collect(),
    };
    println!(
        "# seed {} ({:#x}), nproc {}, {}",
        record.seed,
        record.seed,
        record.nproc,
        if record.trace { "traced" } else { "untraced" }
    );
    println!(
        "{:<10} {:<34} {:<9} {:>16} {:>16} {:>16} {:>3}",
        "workload", "metric", "unit", "median", "min", "max", "n"
    );
    for w in &record.workloads {
        for m in &w.metrics {
            let (lo, hi) = m
                .values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), v| {
                    (l.min(*v), h.max(*v))
                });
            println!(
                "{:<10} {:<34} {:<9} {:>16.6} {:>16.6} {:>16.6} {:>3}",
                w.name,
                m.name,
                m.unit,
                median(&m.values),
                lo,
                hi,
                m.values.len()
            );
        }
    }
    if let Some(path) = &a.json {
        if let Err(e) = std::fs::write(path, record.to_json().render() + "\n") {
            eprintln!("benchmark: cannot write {path}: {e}");
            return 2;
        }
    }
    let single = record.workloads.len() == 1;
    let reported = |m: &&Metric| a.trace || metrics::E2E.iter().any(|e| e.name == m.name);
    let metrics = record
        .workloads
        .iter()
        .flat_map(|w| {
            w.metrics.iter().filter(reported).map(move |m| {
                let name = if single {
                    m.name.clone()
                } else {
                    format!("{}/{}", w.name, m.name)
                };
                let value = Json::Obj(vec![
                    ("value".into(), Json::Num(median(&m.values))),
                    ("unit".into(), Json::Str(m.unit.clone())),
                ]);
                (name, value)
            })
        })
        .collect();
    let correct = record.workloads.iter().all(|w| w.correct);
    let summary = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(record.workloads.iter().map(|w| w.attempted).sum::<u64>() as f64),
        ),
        (
            "failed".into(),
            Json::Num(record.workloads.iter().map(|w| w.failed).sum::<u64>() as f64),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", summary.render());
    i32::from(!correct)
}

fn run_compare(a: &Args) -> i32 {
    let (parent, change) = a.compare.as_ref().expect("compare mode");
    let read = |path: &str| -> Result<Record, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Record::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let inputs = read(parent)
        .and_then(|p| Ok((p, read(change)?)))
        .and_then(|(p, c)| {
            let text = std::fs::read_to_string(&a.bench_json)
                .map_err(|e| format!("{}: {e}", a.bench_json))?;
            Ok((p, c, compare::read_bounds(&text)?))
        });
    match inputs {
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
        Ok((p, c, bounds)) => {
            let (table, regressed) = compare::compare(&p, &c, &bounds);
            print!("{table}");
            i32::from(regressed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload mt8 --seed 42 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workloads, ["mt8"]);
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(10.0), false));
        assert!(args("--trace 1").unwrap().trace);
        assert!(args("--trace --workload mc").unwrap().trace);
        assert_eq!(args("--seed 0x5eed_2021").unwrap().seed, 0x5eed_2021);
        assert_eq!(args("").unwrap().workloads, suite::NAMES);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--reps 0",
            "--json",
            "--compare a",
            "--child",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "accepted {bad}");
        }
    }
}
