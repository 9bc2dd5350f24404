//! Fault-injection and forward-progress watchdog integration tests: the
//! watchdog must never fire on healthy runs across the spill-policy ×
//! LLC-design × socket matrix, a NACK storm past the retry budget must
//! surface as a structured stall, and fault plans must be deterministic
//! and — for NACK storms within the retry budget — statistics-neutral.

use zerodev::prelude::*;
use zerodev::sim::RunStatus;

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

/// The watchdog reads only the retirement heartbeat, so a healthy run must
/// never trip it: every spill policy × LLC design × socket count completes
/// through `try_run` without a stall verdict.
#[test]
fn watchdog_has_no_false_positives_on_clean_matrix() {
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
                let sim = Simulation::new(&cfg, wl);
                let p = quick();
                if let Err(e) = sim.try_run(p.refs_per_core, p.warmup_refs) {
                    panic!("{policy:?}/{design:?}/{sockets}s: watchdog false positive: {e}");
                }
            }
        }
    }
}

/// A forced `DENF_NACK` storm longer than the retry budget is a livelock
/// by construction; `try_run` must surface it as `SimError::Stalled`
/// rather than absorbing it or looping.
#[test]
fn nack_storm_past_retry_budget_is_a_structured_stall() {
    let cfg = zerodev_cfg(SpillPolicy::SpillAll, LlcDesign::NonInclusive, 1);
    let mut sim = Simulation::new(&cfg, multithreaded("ocean_cp", 8, 5).unwrap());
    sim.set_faults(FaultConfig {
        nack_ppm: 1_000_000,
        nack_len: 10,
        retry_budget: 4,
        ..Default::default()
    });
    let p = quick();
    let SimError::Stalled { last_event, .. } = sim
        .try_run(p.refs_per_core, p.warmup_refs)
        .expect_err("a storm past the budget must stall, not complete");
    assert!(
        last_event.contains("retry budget"),
        "stall verdict must name the exhausted budget: {last_event}"
    );
}

/// A stall verdict is part of the simulator's deterministic behaviour, so
/// it must be *pause-invariant*: the soak driver advances runs in bounded
/// chunks of 16,384 references, and its quarantine reports assume a stall
/// looks the same however the run was stepped. A sparse storm that lands
/// mid-run must surface as the same `SimError::Stalled` — same core, same
/// cycle, same last-event text — from one unbounded `try_run` and from
/// `start` plus an `advance(step)` loop, after the same references.
#[test]
fn stall_verdict_is_identical_however_the_run_is_paused() {
    let cfg = zerodev_cfg(SpillPolicy::SpillAll, LlcDesign::NonInclusive, 1);
    let p = quick();
    let sim = || {
        let mut sim = Simulation::new(&cfg, multithreaded("torture.ping_pong", 8, 5).unwrap());
        sim.set_faults(FaultConfig {
            nack_ppm: 50,
            nack_len: 10,
            retry_budget: 4,
            ..Default::default()
        });
        sim
    };
    let whole = sim()
        .try_run(p.refs_per_core, p.warmup_refs)
        .expect_err("a storm past the budget must stall the run");
    let mut retired = Vec::new();
    for step in [1, 7, 16_384] {
        let mut run = sim().start(p.refs_per_core, p.warmup_refs);
        let stepped = loop {
            match run.advance(step) {
                Ok(RunStatus::Paused) => {}
                Ok(RunStatus::Finished) => panic!("step {step}: the storm must stall the run"),
                Err(e) => break e,
            }
        };
        assert_eq!(stepped, whole, "stall verdict diverged at step {step}");
        retired.push(run.refs_retired());
    }
    assert!(
        retired.iter().all(|&r| r == retired[0]),
        "stall point diverged across steps: {retired:?}"
    );
    assert!(
        retired[0] > 0 && retired[0] < 8 * p.refs_per_core,
        "the storm must land mid-run, not at {} references",
        retired[0]
    );
}

/// The fault plan is seeded: two runs with the same `FaultConfig` inject
/// the identical event sequence and finish with identical results.
#[test]
fn fault_plans_are_deterministic() {
    let cfg = zerodev_cfg(SpillPolicy::FusePrivateSpillShared, LlcDesign::Epd, 1);
    let faults = FaultConfig {
        nack_ppm: 20_000,
        ..Default::default()
    };
    let p = RunParams {
        faults: Some(faults),
        ..quick()
    };
    let wl = || multithreaded("ocean_cp", 8, 5).unwrap();
    let a = run(&cfg, wl(), &p);
    let b = run(&cfg, wl(), &p);
    assert!(a.result.faults.total_events() > 0, "faults must fire");
    assert_eq!(a.result.faults, b.result.faults);
    assert_eq!(a.result.stats, b.result.stats);
    assert_eq!(a.result.completion_cycles, b.result.completion_cycles);
}

/// NACK storms within the retry budget are counted only in the fault plan's
/// own stats and must leave the protocol's statistics, completion time,
/// and DRAM traffic byte-identical to a fault-free run.
#[test]
fn message_faults_are_statistics_neutral() {
    let cfg = zerodev_cfg(SpillPolicy::SpillAll, LlcDesign::Inclusive, 1);
    let wl = || multithreaded("ocean_cp", 8, 5).unwrap();
    let clean = run(&cfg, wl(), &quick());
    let p = RunParams {
        faults: Some(FaultConfig {
            nack_ppm: 20_000,
            ..Default::default()
        }),
        ..quick()
    };
    let faulted = run(&cfg, wl(), &p);
    assert!(faulted.result.faults.total_events() > 0, "faults must fire");
    assert_eq!(clean.result.stats, faulted.result.stats);
    assert_eq!(
        clean.result.completion_cycles,
        faulted.result.completion_cycles
    );
    assert_eq!(clean.result.dram_rw, faulted.result.dram_rw);
}
