//! Fault-injection and forward-progress integration tests: every run of
//! the spill-policy × LLC-design × socket matrix finishes, and an armed
//! state corruption is deterministic down to the oracle's verdict.

use std::panic::{catch_unwind, AssertUnwindSafe};

use zerodev::common::panic_message;
use zerodev::prelude::*;

fn quick() -> RunParams {
    RunParams {
        refs_per_core: 6_000,
        warmup_refs: 1_500,
        ..Default::default()
    }
}

fn zerodev_cfg(policy: SpillPolicy, design: LlcDesign, sockets: usize) -> SystemConfig {
    let base = if sockets == 1 {
        SystemConfig::baseline_8core()
    } else {
        let mut c = SystemConfig::four_socket();
        c.sockets = sockets;
        c
    };
    let mut cfg = base.with_zerodev(
        ZeroDevConfig {
            policy,
            ..Default::default()
        },
        DirectoryKind::None,
    );
    cfg.llc_design = design;
    if design == LlcDesign::Inclusive {
        // Small enough that inclusion victims occur within the short run.
        cfg.llc = zerodev::common::config::CacheGeometry::new(1 << 21, 16);
    }
    cfg
}

/// Forward progress across the machines: every spill policy × LLC design
/// × socket count runs to completion, each core reaching its target.
#[test]
fn clean_matrix_runs_to_completion() {
    let policies = [
        SpillPolicy::SpillAll,
        SpillPolicy::FusePrivateSpillShared,
        SpillPolicy::FuseAll,
    ];
    let designs = [
        LlcDesign::NonInclusive,
        LlcDesign::Epd,
        LlcDesign::Inclusive,
    ];
    for sockets in [1usize, 4] {
        for policy in policies {
            for design in designs {
                let cfg = zerodev_cfg(policy, design, sockets);
                let wl = multithreaded("ocean_cp", 8 * sockets, 5).unwrap();
                let p = quick();
                let r = Simulation::new(&cfg, wl).run(p.refs_per_core, p.warmup_refs);
                let tag = format!("{policy:?}/{design:?}/{sockets}s");
                assert!(
                    r.core_cycles.iter().all(|&c| c > 0),
                    "{tag}: a core never finished"
                );
                assert!(
                    r.refs_retired >= p.refs_per_core * 8 * sockets as u64,
                    "{tag}: {} references retired",
                    r.refs_retired
                );
            }
        }
    }
}

/// The fault plan is seeded: two audited runs with the same armed
/// corruption inject it into the same victim and fail with the identical
/// oracle message.
#[test]
fn fault_plans_are_deterministic() {
    let cfg = zerodev_cfg(SpillPolicy::FusePrivateSpillShared, LlcDesign::Epd, 1);
    let p = RunParams {
        audit: true,
        faults: Some(FaultConfig {
            kind: StateFault::SharerFlip,
            at: 1_000,
        }),
        ..quick()
    };
    let verdict = || {
        let wl = multithreaded("ocean_cp", 8, 5).unwrap();
        let e = catch_unwind(AssertUnwindSafe(|| run(&cfg, wl, &p)))
            .expect_err("the oracle must flag the corruption");
        panic_message(&*e)
    };
    let a = verdict();
    assert!(a.contains("coherence oracle violation"), "{a}");
    assert_eq!(a, verdict(), "the oracle's verdict must repeat exactly");
}
