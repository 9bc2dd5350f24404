//! What one child process does: one rep of a workload, or one traced run,
//! reported to the supervising process as a single JSON line.

use zerodev_common::Stats;

use crate::calibrate::Calibrator;
use crate::goldens;
use crate::json::Json;
use crate::metrics::{per_layer, COUNT_FIELDS};
use crate::probes::{layer_probes, model_probes, point_ratios, sweep_efficiency};
use crate::run::{peak_rss_mb, run_mc, run_point, run_point_traced, PointRun, StepTrace};
use crate::steps::CLASSES;
use crate::suite::{reference_points, Body, Suite};

/// One child's result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    /// Points, explorations and cross-checks attempted.
    pub attempted: u64,
    /// One line per failed attempt.
    pub failures: Vec<String>,
    /// Per point (or exploration), what it produced; every rep of one seed
    /// must produce the same list.
    pub fingerprints: Vec<String>,
    pub metrics: Vec<(String, f64)>,
}

impl ChildReport {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn to_json(&self) -> Json {
        let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        Json::Obj(vec![
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failures".into(), strings(&self.failures)),
            ("fingerprints".into(), strings(&self.fingerprints)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<ChildReport, String> {
        let strings = |key: &str| -> Result<Vec<String>, String> {
            j.get(key)
                .and_then(Json::as_array)
                .and_then(|a| a.iter().map(|s| s.as_str().map(str::to_string)).collect())
                .ok_or_else(|| format!("child report: `{key}` is not a list of strings"))
        };
        let metrics = j
            .get("metrics")
            .and_then(Json::as_object)
            .and_then(|m| {
                m.iter()
                    .map(|(n, v)| v.as_f64().map(|v| (n.clone(), v)))
                    .collect()
            })
            .ok_or("child report: `metrics` is not an object of numbers")?;
        Ok(ChildReport {
            attempted: j
                .get("attempted")
                .and_then(Json::as_u64)
                .ok_or("child report: `attempted` is not a whole number")?,
            failures: strings("failures")?,
            fingerprints: strings("fingerprints")?,
            metrics,
        })
    }

    /// Records one attempt's outcome.
    fn attempt<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome.map_err(|e| self.failures.push(e)).ok()
    }
}

/// One untraced rep, plus what a traced run reuses from it.
pub struct Rep {
    pub report: ChildReport,
    /// The untraced simulator points, `None` where a point failed, each
    /// with the calibration factor of its host seconds.
    pub runs: Vec<Option<(PointRun, f64)>>,
    pub build_s: f64,
    pub warmup_s: f64,
}

fn pinned<T: PartialEq + std::fmt::Debug>(got: T, want: Option<&T>) -> Result<(), String> {
    match want {
        Some(w) if *w != got => Err(format!("produced {got:?}, pinned {w:?}")),
        _ => Ok(()),
    }
}

/// Uncalibrated companions of the end-to-end times, reported alongside
/// them in the result record (not in the summary line).
pub const RAW: [(&str, &str); 4] = [
    ("raw_wall_s", "s"),
    ("raw_setup_s", "s"),
    ("raw_throughput", "1/s"),
    ("calibration_s", "s"),
];

/// Host seconds of one point or exploration: set-up, measured, the work
/// done in the measured part, and the calibration factor.
struct Timed {
    setup_s: f64,
    measured_s: f64,
    work: f64,
    scale: f64,
}

/// Runs every point (or exploration) of `suite` once, in order, timing the
/// calibration kernel before the first and after each one. Each point's
/// times are scaled by the mean of the kernel times around it.
pub fn rep(suite: &Suite, seed: u64) -> Rep {
    let mut cal = Calibrator::new();
    let mut report = ChildReport::default();
    let mut runs = Vec::new();
    let mut timed: Vec<Option<Timed>> = Vec::new();
    let (mut build_s, mut warmup_s) = (0.0, 0.0);
    match &suite.body {
        Body::Sim(points) => {
            // Other seeds have no goldens: there, reps must agree instead.
            let golden = if seed == goldens::SEED {
                goldens::sim(suite.name)
            } else {
                &[]
            };
            for (i, p) in points.iter().enumerate() {
                let run = report.attempt(run_point(p, seed).and_then(|r| {
                    pinned(r.fingerprint, golden.get(i))
                        .map_err(|e| format!("{}: fingerprint {e}", p.label))?;
                    Ok(r)
                }));
                let scale = cal.scale();
                timed.push(run.as_ref().map(|r| {
                    build_s += r.build_s;
                    warmup_s += r.warmup_s;
                    Timed {
                        setup_s: r.build_s + r.warmup_s,
                        measured_s: r.advance_s,
                        work: r.result.refs_retired as f64,
                        scale,
                    }
                }));
                report.fingerprints.push(
                    run.as_ref()
                        .map_or("failed".into(), |r| format!("{:016x}", r.fingerprint)),
                );
                runs.push(run.map(|r| (r, scale)));
            }
        }
        Body::Mc(machines) => {
            for (i, machine) in machines.iter().enumerate() {
                let run = report.attempt(run_mc(|| machine.config()).and_then(|m| {
                    let e = &m.exploration;
                    pinned((e.states, e.transitions), goldens::MC.get(i))
                        .map_err(|err| format!("{}: (states, transitions) {err}", e.name))?;
                    Ok(m)
                }));
                let scale = cal.scale();
                timed.push(run.as_ref().map(|m| {
                    build_s += m.build_s;
                    warmup_s += m.warmup_s;
                    Timed {
                        setup_s: m.build_s + m.warmup_s,
                        measured_s: m.explore_s,
                        work: m.exploration.states as f64,
                        scale,
                    }
                }));
                report
                    .fingerprints
                    .push(run.as_ref().map_or("failed".into(), |m| {
                        format!("{}/{}", m.exploration.states, m.exploration.transitions)
                    }));
            }
        }
    }
    // [setup, measured, work] summed raw and calibrated.
    let (mut raw, mut scaled) = ([0.0f64; 3], [0.0f64; 3]);
    for t in timed.iter().flatten() {
        for (sum, s) in [(&mut raw, 1.0), (&mut scaled, t.scale)] {
            sum[0] += t.setup_s * s;
            sum[1] += t.measured_s * s;
            sum[2] += t.work;
        }
    }
    let rss = report
        .attempt(peak_rss_mb())
        .map_or(0.0, |mb| mb - Calibrator::RESIDENT_MB);
    report.metrics = vec![
        ("wall_s".into(), scaled[0] + scaled[1]),
        ("setup_s".into(), scaled[0]),
        ("throughput".into(), scaled[2] / scaled[1]),
        ("peak_rss_mb".into(), rss),
        ("raw_wall_s".into(), raw[0] + raw[1]),
        ("raw_setup_s".into(), raw[0]),
        ("raw_throughput".into(), raw[2] / raw[1]),
        ("calibration_s".into(), cal.median_s()),
    ];
    Rep {
        report,
        runs,
        build_s,
        warmup_s,
    }
}

fn count_field(s: &Stats, field: &str) -> u64 {
    match field {
        "core_cache_misses" => s.core_cache_misses,
        "upgrades" => s.upgrades,
        "llc_hits" => s.llc_hits,
        "llc_misses" => s.llc_misses,
        "dir_spills" => s.dir_spills,
        "dir_fuses" => s.dir_fuses,
        "get_de_requests" => s.get_de_requests,
        "denf_nacks" => s.denf_nacks,
        "socket_misses" => s.socket_misses,
        "dram_reads" => s.dram_reads,
        "dram_writes" => s.dram_writes,
        "invalidations" => {
            s.dev_invalidations + s.inclusion_invalidations + s.coherence_invalidations
        }
        other => unreachable!("unknown count field {other}"),
    }
}

/// Mean of the samples within half a percent of rank either side of
/// quantile `q`: a quantile that is not rounded to the clock's whole
/// nanoseconds.
fn quantile_ns(sorted: &[u32], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let lo = (((q - 0.005) * n as f64).round() as usize).min(n - 1);
    let hi = (((q + 0.005) * n as f64).round() as usize).clamp(lo + 1, n);
    let window = &sorted[lo..hi];
    window.iter().map(|&v| f64::from(v)).sum::<f64>() / window.len() as f64
}

/// One traced run: an untraced rep, the same points again one reference at
/// a time, the isolated layer probes and the three ratios. Reports every
/// per-layer metric; layers a workload does not run are measured on
/// `suite::reference_points` (the simulator's, for `mc`) or on
/// `suite::probe_machine` (the model checker's), so every value is a
/// measurement.
pub fn traced(suite: &Suite, seed: u64, nproc: usize) -> ChildReport {
    let rep = rep(suite, seed);
    let mut report = rep.report;
    let mut values: Vec<(String, f64)> = per_layer().into_iter().map(|(n, _)| (n, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        let slot = values
            .iter_mut()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| unreachable!("{name} is a per-layer metric"));
        slot.1 = v;
    };
    set("setup.build_s", rep.build_s);
    set("setup.warmup_s", rep.warmup_s);

    // Tracing overhead compares calibrated seconds, as the untraced and
    // traced runs of a point are seconds to minutes apart.
    let mut cal = Calibrator::new();
    let (points, untraced) = match &suite.body {
        Body::Sim(points) => (points.clone(), rep.runs),
        Body::Mc(_) => {
            let points = reference_points();
            let runs = points
                .iter()
                .map(|p| {
                    let run = report.attempt(run_point(p, seed));
                    let scale = cal.scale();
                    run.map(|r| (r, scale))
                })
                .collect();
            (points, runs)
        }
    };
    let mut trace = StepTrace::default();
    let mut traced_s = 0.0;
    for (p, u) in points.iter().zip(&untraced) {
        let Some((u, _)) = u else { continue };
        let before = trace.advance_s;
        report.attempt(run_point_traced(p, seed, &mut trace).and_then(|fp| {
            if fp == u.fingerprint {
                Ok(())
            } else {
                Err(format!(
                    "{}: traced fingerprint {fp:016x} differs from untraced {:016x}",
                    p.label, u.fingerprint
                ))
            }
        }));
        traced_s += (trace.advance_s - before) * cal.scale();
    }
    let untraced_s: f64 = untraced
        .iter()
        .flatten()
        .map(|(u, s)| u.advance_s * s)
        .sum();
    let untraced: Vec<&PointRun> = untraced.iter().flatten().map(|(u, _)| u).collect();
    let total_ns: u64 = trace.total_ns.iter().sum();
    for (i, class) in CLASSES.iter().enumerate() {
        set(&format!("engine.step_count.{class}"), trace.count[i] as f64);
        set(
            &format!("engine.step_share.{class}"),
            trace.total_ns[i] as f64 / total_ns.max(1) as f64,
        );
    }
    for (group, samples) in [
        ("private", &mut trace.private_ns),
        ("uncore", &mut trace.uncore_ns),
    ] {
        samples.sort_unstable();
        set(
            &format!("engine.step_ns_p50.{group}"),
            quantile_ns(samples, 0.50),
        );
        set(
            &format!("engine.step_ns_p99.{group}"),
            quantile_ns(samples, 0.99),
        );
    }
    let refs: u64 = untraced.iter().map(|u| u.result.refs_retired).sum();
    set(
        "engine.trace_overhead",
        (refs as f64 / untraced_s) / (trace.refs as f64 / traced_s) - 1.0,
    );
    for field in COUNT_FIELDS {
        let total: u64 = untraced
            .iter()
            .map(|u| count_field(&u.result.stats, field))
            .sum();
        set(
            &format!("count.{field}_pki"),
            total as f64 * 1000.0 / refs.max(1) as f64,
        );
    }

    for (name, v) in report
        .attempt(layer_probes(&points, seed))
        .into_iter()
        .flatten()
    {
        set(name, v);
    }
    for (name, v) in report.attempt(model_probes()).into_iter().flatten() {
        set(name, v);
    }
    for (name, v) in report
        .attempt(point_ratios(&points[0], seed, nproc))
        .into_iter()
        .flatten()
    {
        set(name, v);
    }
    let expected: Vec<u64> = untraced.iter().map(|u| u.fingerprint).collect();
    if expected.len() == points.len() {
        if let Some(eff) = report.attempt(sweep_efficiency(&points, seed, nproc, &expected)) {
            set("parallel.sweep_efficiency", eff);
        }
    }
    report.metrics = values;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::run::fingerprint;
    use crate::suite::Point;

    #[test]
    fn report_round_trips_and_rejects_malformed_lines() {
        let r = ChildReport {
            attempted: 3,
            failures: vec!["Base/x: stalled".into()],
            fingerprints: vec!["00ff".into(), "failed".into()],
            metrics: vec![("wall_s".into(), 1.25), ("throughput".into(), 2.5e6)],
        };
        let back = ChildReport::from_json(&parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, r);
        for bad in [
            r#"{"attempted": -1, "failures": [], "fingerprints": [], "metrics": {}}"#,
            r#"{"attempted": 1, "failures": [2], "fingerprints": [], "metrics": {}}"#,
            r#"{"attempted": 1, "failures": [], "fingerprints": [], "metrics": {"a": "b"}}"#,
            r#"{"attempted": 1, "failures": []}"#,
        ] {
            assert!(
                ChildReport::from_json(&parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn traced_point_fingerprint_equals_untraced() {
        let mut p: Point = reference_points().remove(0);
        p.refs = 2_000;
        p.warmup = 500;
        let untraced = run_point(&p, 7).unwrap();
        let mut trace = StepTrace::default();
        let traced = run_point_traced(&p, 7, &mut trace).unwrap();
        assert_eq!(traced, untraced.fingerprint);
        assert_eq!(traced, fingerprint(&untraced.result));
        assert_eq!(trace.refs, untraced.result.refs_retired);
        assert_eq!(trace.count.iter().sum::<u64>(), trace.refs);
    }

    #[test]
    fn quantiles_average_a_window_of_ranks() {
        let v: Vec<u32> = (1..=1000).collect();
        // Ranks 495..505 hold 496..=505.
        assert_eq!(quantile_ns(&v, 0.5), 500.5);
        assert_eq!(quantile_ns(&[7], 0.99), 7.0);
        assert_eq!(quantile_ns(&[], 0.5), 0.0);
    }
}
