//! `--compare PARENT.json CHANGE.json`: judges every workload × end-to-end
//! metric of two result records by the repository's rule for claiming a
//! gain, with the regression bounds of `BENCHMARK.json`.

use crate::json::{parse, Json};
use crate::metrics::E2E;
use crate::record::{median, quartiles, Record};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The `bound` of each end-to-end metric in a `BENCHMARK.json` text.
pub fn read_bounds(text: &str) -> Result<Vec<(String, f64)>, String> {
    let spec = parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    spec.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no `end_to_end` list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) if (0.0..=1.0).contains(&b) => Ok((n.to_string(), b)),
                _ => Err(
                    "BENCHMARK.json: an end_to_end entry lacks a name or a bound in [0, 1]"
                        .to_string(),
                ),
            }
        })
        .collect()
}

/// Judges one metric. Pairs are the two sides' runs in order. A gain needs
/// the change to win at least nine tenths of the pairs (ties count for
/// neither) and the medians to differ by more than the parent's quartile
/// spread. Otherwise a spread wider than `bound` leaves the metric
/// unresolved unless every change run beats every parent run, and a median
/// worse by more than `bound` is a regression. Returns the win fraction too.
pub fn judge(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return (Verdict::Unresolved, 0.0);
    }
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let win_frac = wins as f64 / pairs as f64;
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let worse_by = if higher_is_better { pm - cm } else { cm - pm } / pm;
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let verdict = if win_frac >= 0.9 && better(cm, pm) && (cm - pm).abs() > q3 - q1 {
        Verdict::Improved
    } else if (q3 - q1) / pm > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    (verdict, win_frac)
}

/// The comparison table, and whether any metric regressed.
pub fn compare(parent: &Record, change: &Record, bounds: &[(String, f64)]) -> (String, bool) {
    let mut out = format!(
        "{:<10} {:<12} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>6} verdict\n",
        "workload",
        "metric",
        "parent_med",
        "parent_q1",
        "parent_q3",
        "change_med",
        "change_q1",
        "change_q3",
        "wins"
    );
    let mut regressed = false;
    for pw in &parent.workloads {
        let Some(cw) = change.workloads.iter().find(|w| w.name == pw.name) else {
            out.push_str(&format!("{:<10} missing from the change record\n", pw.name));
            continue;
        };
        for m in E2E {
            let (Some(p), Some(c)) = (pw.metric(m.name), cw.metric(m.name)) else {
                continue;
            };
            let Some(&(_, bound)) = bounds.iter().find(|(n, _)| n == m.name) else {
                continue;
            };
            let (verdict, wins) = judge(&p.values, &c.values, m.higher_is_better, bound);
            regressed |= verdict == Verdict::Regressed;
            let (pq1, pq3) = quartiles(&p.values);
            let (cq1, cq3) = quartiles(&c.values);
            out.push_str(&format!(
                "{:<10} {:<12} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>6.2} {}\n",
                pw.name,
                m.name,
                median(&p.values),
                pq1,
                pq3,
                median(&c.values),
                cq1,
                cq3,
                wins,
                verdict.label()
            ));
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99];

    fn shifted(by: f64) -> Vec<f64> {
        PARENT.iter().map(|v| v * by).collect()
    }

    #[test]
    fn verdicts_follow_the_rule() {
        // Lower is better: 5% faster on every pair is a gain.
        assert_eq!(
            judge(&PARENT, &shifted(0.95), false, 0.1).0,
            Verdict::Improved
        );
        // 5% slower stays within a 10% bound.
        assert_eq!(
            judge(&PARENT, &shifted(1.05), false, 0.1).0,
            Verdict::Unchanged
        );
        // 20% slower is a regression.
        assert_eq!(
            judge(&PARENT, &shifted(1.2), false, 0.1).0,
            Verdict::Regressed
        );
        // Higher is better flips the direction.
        assert_eq!(
            judge(&PARENT, &shifted(1.05), true, 0.1).0,
            Verdict::Improved
        );
        assert_eq!(
            judge(&PARENT, &shifted(0.8), true, 0.1).0,
            Verdict::Regressed
        );
        // A parent spread wider than the bound cannot show "unchanged".
        let noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 9.0, 11.0, 7.0, 13.0, 10.0];
        assert_eq!(judge(&noisy, &PARENT, true, 0.1).0, Verdict::Unresolved);
        assert_eq!(judge(&[], &PARENT, true, 0.1).0, Verdict::Unresolved);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let text =
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#;
        assert_eq!(
            read_bounds(text).unwrap(),
            vec![("wall_s".to_string(), 0.1)]
        );
        assert!(read_bounds(r#"{"end_to_end": [{"name": "wall_s"}]}"#).is_err());
        assert!(read_bounds("{").is_err());
    }
}
