//! Names, units and directions of every metric the benchmark reports. The
//! same lists appear in `BENCHMARK.json`; a test keeps the two in step.

use crate::steps::CLASSES;

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

pub const E2E: [E2e; 4] = [
    // Host seconds for one rep: every point of the workload, set-up included.
    E2e {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
    },
    // Host seconds before the first measured reference (or state), summed
    // over the rep's points.
    E2e {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
    },
    // Retired references per host second of the measured regions; explored
    // states per host second on `mc`.
    E2e {
        name: "throughput",
        unit: "1/s",
        higher_is_better: true,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
    },
];

/// `Stats` counters reported per kilo-reference.
pub const COUNT_FIELDS: [&str; 12] = [
    "core_cache_misses",
    "upgrades",
    "llc_hits",
    "llc_misses",
    "dir_spills",
    "dir_fuses",
    "get_de_requests",
    "denf_nacks",
    "socket_misses",
    "dram_reads",
    "dram_writes",
    "invalidations",
];

/// Isolated layer probes, each timed per operation.
pub const PROBES: [&str; 13] = [
    "workloads.next_ref_ns",
    "cache.l1_touch_ns",
    "cache.l2_touch_ns",
    "cache.l2_insert_ns",
    "common.flatmap_get_ns",
    "common.flatmap_insert_ns",
    "core.dir_peek_ns",
    "core.dir_alloc_remove_ns",
    "core.llc_fill_ns",
    "core.llc_spill_ns",
    "noc.core_bank_ns",
    "dram.read_ns",
    "dram.write_ns",
];

pub const MODEL_PROBES: [&str; 5] = [
    "model.clone_ns",
    "model.enabled_events_ns",
    "model.apply_ns",
    "model.check_ns",
    "model.canonical_key_ns",
];

/// Every per-layer metric of a traced run, in report order, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("setup.build_s".into(), "s"),
        ("setup.warmup_s".into(), "s"),
    ];
    m.extend(
        CLASSES
            .iter()
            .map(|c| (format!("engine.step_count.{c}"), "count")),
    );
    m.extend(
        CLASSES
            .iter()
            .map(|c| (format!("engine.step_share.{c}"), "fraction")),
    );
    for group in ["private", "uncore"] {
        for q in ["p50", "p99"] {
            m.push((format!("engine.step_ns_{q}.{group}"), "ns"));
        }
    }
    m.push(("engine.trace_overhead".into(), "fraction"));
    m.extend(PROBES.iter().map(|p| ((*p).to_string(), "ns")));
    m.extend(MODEL_PROBES.iter().map(|p| ((*p).to_string(), "ns")));
    m.push(("model.transitions_per_s".into(), "1/s"));
    m.extend(
        COUNT_FIELDS
            .iter()
            .map(|f| (format!("count.{f}_pki"), "1/kref")),
    );
    m.push(("shard.speedup_2".into(), "ratio"));
    m.push(("oracle.audit_ratio".into(), "ratio"));
    m.push(("parallel.sweep_efficiency".into(), "fraction"));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the package"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(spec: &Json, key: &str) -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec = spec();
        let e2e: Vec<_> = E2E
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect();
        assert_eq!(listed(&spec, "end_to_end"), e2e);
        let layers: Vec<_> = listed(&spec, "per_layer")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        let ours: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let names: Vec<String> = spec()
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        assert_eq!(names, crate::suite::NAMES);
    }
}
