//! The result record: every rep's raw value of every metric, per workload,
//! with the seed and the host's CPU count. `--json PATH` writes it and
//! `--compare` reads two of them back.

use std::fmt;

use crate::json::{parse, Json, JsonError};

pub const SCHEMA: &str = "zerodev-simbench-v1";

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// One value per rep, in run order.
    pub values: Vec<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// Points (or explorations, or checks) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub seed: u64,
    /// `std::thread::available_parallelism` of the host that ran it.
    pub nproc: usize,
    pub trace: bool,
    pub workloads: Vec<WorkloadResult>,
}

/// Why a result record was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    Json(JsonError),
    /// The JSON parsed but a field is missing or has the wrong type.
    Field(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Json(e) => write!(f, "{e}"),
            RecordError::Field(what) => write!(f, "bad result record: {what}"),
        }
    }
}

impl std::error::Error for RecordError {}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, RecordError> {
    obj.get(key)
        .ok_or_else(|| RecordError::Field(format!("missing `{key}`")))
}

fn typed<'a, T>(
    obj: &'a Json,
    key: &str,
    get: impl Fn(&'a Json) -> Option<T>,
    what: &str,
) -> Result<T, RecordError> {
    get(field(obj, key)?).ok_or_else(|| RecordError::Field(format!("`{key}` is not {what}")))
}

impl Record {
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let metrics = w
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("unit".into(), Json::Str(m.unit.clone())),
                                (
                                    "values".into(),
                                    Json::Arr(m.values.iter().map(|v| Json::Num(*v)).collect()),
                                ),
                            ]),
                        )
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::Str(w.name.clone())),
                    ("attempted".into(), Json::Num(w.attempted as f64)),
                    ("failed".into(), Json::Num(w.failed as f64)),
                    ("correct".into(), Json::Bool(w.correct)),
                    ("metrics".into(), Json::Obj(metrics)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            // Seeds are u64: a string keeps every bit.
            ("seed".into(), Json::Str(self.seed.to_string())),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("trace".into(), Json::Bool(self.trace)),
            ("workloads".into(), Json::Arr(workloads)),
        ])
    }

    pub fn from_json(text: &str) -> Result<Record, RecordError> {
        let root = parse(text).map_err(RecordError::Json)?;
        let schema = typed(&root, "schema", Json::as_str, "a string")?;
        if schema != SCHEMA {
            return Err(RecordError::Field(format!(
                "schema `{schema}`, expected `{SCHEMA}`"
            )));
        }
        let seed = typed(&root, "seed", Json::as_str, "a string")?
            .parse::<u64>()
            .map_err(|_| RecordError::Field("`seed` is not a u64".into()))?;
        let nproc = typed(&root, "nproc", Json::as_u64, "a whole number")?;
        let trace = typed(&root, "trace", Json::as_bool, "a boolean")?;
        let workloads = typed(&root, "workloads", Json::as_array, "an array")?
            .iter()
            .map(|w| {
                let metrics = typed(w, "metrics", Json::as_object, "an object")?
                    .iter()
                    .map(|(name, m)| {
                        let values = typed(m, "values", Json::as_array, "an array")?
                            .iter()
                            .map(|v| {
                                v.as_f64().ok_or_else(|| {
                                    RecordError::Field(format!("`{name}` holds a non-number"))
                                })
                            })
                            .collect::<Result<Vec<f64>, _>>()?;
                        Ok(Metric {
                            name: name.clone(),
                            unit: typed(m, "unit", Json::as_str, "a string")?.to_string(),
                            values,
                        })
                    })
                    .collect::<Result<Vec<_>, RecordError>>()?;
                Ok(WorkloadResult {
                    name: typed(w, "name", Json::as_str, "a string")?.to_string(),
                    attempted: typed(w, "attempted", Json::as_u64, "a whole number")?,
                    failed: typed(w, "failed", Json::as_u64, "a whole number")?,
                    correct: typed(w, "correct", Json::as_bool, "a boolean")?,
                    metrics,
                })
            })
            .collect::<Result<Vec<_>, RecordError>>()?;
        Ok(Record {
            seed,
            nproc: usize::try_from(nproc)
                .map_err(|_| RecordError::Field("`nproc` too large".into()))?,
            trace,
            workloads,
        })
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads read the same here as in
/// any script that checks them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            seed: 0x5eed_2021_dead_beef,
            nproc: 2,
            trace: false,
            workloads: vec![WorkloadResult {
                name: "mt8".into(),
                attempted: 36,
                failed: 0,
                correct: true,
                metrics: vec![
                    Metric {
                        name: "wall_s".into(),
                        unit: "s".into(),
                        values: vec![3.812_345_678_9, 3.79, 3.801],
                    },
                    Metric {
                        name: "throughput".into(),
                        unit: "1/s".into(),
                        values: vec![2_934_112.25, 2_950_001.0, 2_941_000.5],
                    },
                ],
            }],
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let r = sample();
        assert_eq!(Record::from_json(&r.to_json().render()).unwrap(), r);
    }

    #[test]
    fn malformed_records_are_structured_errors() {
        let good = sample().to_json().render();
        assert!(matches!(
            Record::from_json(&good[..good.len() / 2]),
            Err(RecordError::Json(_))
        ));
        for (from, to) in [
            ("\"schema\": \"zerodev-simbench-v1\"", "\"schema\": \"v0\""),
            ("\"nproc\": 2", "\"nproc\": -2"),
            ("\"nproc\": 2", "\"nproc\": 2.5"),
            ("\"correct\": true", "\"correct\": 1"),
            ("\"attempted\": 36", "\"tried\": 36"),
            ("3.79", "\"3.79\""),
            ("\"unit\": \"s\"", "\"unit\": 7"),
            ("\"workloads\": [", "\"workloads\": {\"x\": ["),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "pattern {from} not found");
            assert!(Record::from_json(&bad).is_err(), "accepted {bad}");
        }
        assert!(Record::from_json("[]").is_err());
        assert!(
            Record::from_json("{\"schema\": \"zerodev-simbench-v1\", \"seed\": \"x\"}").is_err()
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
