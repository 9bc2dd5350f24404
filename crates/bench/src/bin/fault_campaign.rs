//! The fault-injection campaign: proves the oracle's detector sensitivity
//! across the spill-policy × LLC-design matrix.
//!
//! `cargo run --release -p zerodev-bench --bin fault_campaign`
//!
//! Every [`StateFault`] class (sharer-bit flip, LLC-resident entry
//! corruption, housed home-segment flip) is injected into every spill
//! policy × LLC design, with the oracle auditing; the runs are fully
//! deterministic. A campaign point passes only when the oracle flags the
//! corruption (a panic containing `coherence oracle violation`); a run that
//! completes without injecting is also a failure — the fault must actually
//! land.
//!
//! Set `ZERODEV_QUICK=1` for the CI smoke matrix (one policy × one design
//! per fault class). Exits nonzero if any point fails.

use std::panic::{catch_unwind, AssertUnwindSafe};
use zerodev_bench::zerodev_nodir_1mb;
use zerodev_common::config::{LlcDesign, SpillPolicy};
use zerodev_common::{env, panic_message, SystemConfig};
use zerodev_sim::runner::{run, RunParams};
use zerodev_sim::{FaultConfig, StateFault};

/// A ZeroDEV machine with no dedicated directory: every live directory
/// entry is LLC-resident or housed in a corrupted home block, so all three
/// state-fault classes have victims. The LLC is shrunk
/// ([`zerodev_nodir_1mb`]) so entry evictions (WB_DE) occur within the
/// short campaign run — without them no corrupted home block ever exists
/// and the `home` fault class has no victim.
fn campaign_cfg(policy: SpillPolicy, design: LlcDesign) -> SystemConfig {
    let mut cfg = zerodev_nodir_1mb(policy);
    cfg.llc_design = design;
    cfg
}

fn params() -> RunParams {
    RunParams {
        refs_per_core: if env::var_flag("ZERODEV_QUICK") {
            6_000
        } else {
            20_000
        },
        warmup_refs: 1_500,
        audit: true,
        ..Default::default()
    }
}

fn matrix_over(designs: &[LlcDesign]) -> Vec<(SpillPolicy, LlcDesign)> {
    let policies = [
        SpillPolicy::SpillAll,
        SpillPolicy::FusePrivateSpillShared,
        SpillPolicy::FuseAll,
    ];
    if env::var_flag("ZERODEV_QUICK") {
        // One point per policy still covers every policy and design.
        policies
            .iter()
            .copied()
            .zip(designs.iter().copied().cycle())
            .collect()
    } else {
        policies
            .iter()
            .flat_map(|&p| designs.iter().map(move |&d| (p, d)))
            .collect()
    }
}

fn matrix() -> Vec<(SpillPolicy, LlcDesign)> {
    matrix_over(&[
        LlcDesign::NonInclusive,
        LlcDesign::Epd,
        LlcDesign::Inclusive,
    ])
}

/// The matrix for home-segment corruption: an inclusive LLC never evicts a
/// directory entry to memory (§III-F — evicting the line invalidates the
/// private copies, which frees the entry), so no corrupted home block ever
/// houses a segment there and the fault class has no victim by design.
fn home_matrix() -> Vec<(SpillPolicy, LlcDesign)> {
    matrix_over(&[LlcDesign::NonInclusive, LlcDesign::Epd])
}

/// One sensitivity point: inject `kind` at `at` and demand the oracle
/// flags it. Returns an error description on failure.
fn sensitivity_point(
    kind: StateFault,
    policy: SpillPolicy,
    design: LlcDesign,
    at: u64,
) -> Result<(), String> {
    let cfg = campaign_cfg(policy, design);
    let faults = FaultConfig { kind, at };
    let p = RunParams {
        faults: Some(faults),
        ..params()
    };
    let wl = zerodev_workloads::multithreaded("ocean_cp", 8, 5).expect("known app");
    match catch_unwind(AssertUnwindSafe(|| run(&cfg, wl, &p))) {
        Ok(r) => {
            if r.result.faults.corruptions == 0 {
                Err(format!(
                    "corruption never injected (no victim found from access {at} onward)"
                ))
            } else {
                Err(format!(
                    "oracle missed the corruption: {:?}",
                    r.result.faults.injected
                ))
            }
        }
        Err(p) => {
            let msg = panic_message(&*p);
            if msg.contains("coherence oracle violation") {
                Ok(())
            } else {
                Err(format!("run panicked for the wrong reason: {msg}"))
            }
        }
    }
}

fn main() {
    // The sensitivity campaign panics on purpose (that is the pass
    // condition); silence the default hook's backtrace spam.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let kinds = [
        ("sharer", StateFault::SharerFlip),
        ("llc", StateFault::LlcEntryCorrupt),
        ("home", StateFault::HomeSegmentFlip),
    ];
    let mut failures: Vec<String> = Vec::new();
    let mut points = 0usize;

    println!("== sensitivity: every state corruption must be flagged ==");
    for (label, kind) in kinds {
        let points_for_kind = if kind == StateFault::HomeSegmentFlip {
            home_matrix()
        } else {
            matrix()
        };
        for (policy, design) in points_for_kind {
            points += 1;
            let verdict = sensitivity_point(kind, policy, design, 1_000);
            let tag = format!("{label:>6} x {policy:?}/{design:?}");
            match verdict {
                Ok(()) => println!("  {tag}: detected"),
                Err(e) => {
                    println!("  {tag}: FAILED");
                    failures.push(format!("sensitivity {tag}: {e}"));
                }
            }
        }
    }

    std::panic::set_hook(default_hook);
    if failures.is_empty() {
        println!("\nfault campaign: all {points} points passed");
    } else {
        println!(
            "\nfault campaign: {} of {points} points FAILED",
            failures.len()
        );
        for f in &failures {
            println!("  {f}");
        }
        std::process::exit(1);
    }
}
