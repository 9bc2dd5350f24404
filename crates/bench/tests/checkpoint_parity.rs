//! Kill-and-resume parity matrix: a run that is checkpointed mid-flight,
//! dropped ("killed"), and restored from the image must finish with
//! **byte-identical** results to the uninterrupted run — same statistics,
//! same per-core completion data, same fault sequence — across directory
//! families, ZeroDEV policies, torture workloads, auditing, fault
//! injection, and multi-socket machines. This is the contract the soak
//! driver's budget-aware checkpointing stands on.

use zerodev_bench::{baseline, zerodev_default_nodir};
use zerodev_common::snap::{SnapError, SnapWriter};
use zerodev_common::SystemConfig;
use zerodev_sim::checkpoint::{MAGIC, VERSION};
use zerodev_sim::{FaultConfig, PausedRun, RunStatus, SimResult, Simulation, StateFault};
use zerodev_workloads::multithreaded;

const REFS: u64 = 2_000;
const WARM: u64 = 400;

#[derive(Clone)]
struct Point {
    label: &'static str,
    cfg: SystemConfig,
    app: &'static str,
    seed: u64,
    audit: bool,
    faults: Option<FaultConfig>,
    refs: u64,
    cut: u64,
}

fn matrix() -> Vec<Point> {
    let nack_storms = FaultConfig {
        nack_ppm: 20_000,
        ..Default::default()
    };
    let corrupting = FaultConfig {
        corrupt: Some((StateFault::SharerFlip, 900)),
        ..Default::default()
    };
    vec![
        Point {
            label: "baseline/canneal/audit",
            cfg: baseline(),
            app: "canneal",
            seed: 0x5eed_0001,
            audit: true,
            faults: None,
            refs: REFS,
            cut: 1_000,
        },
        Point {
            label: "zerodev/torture.ping_pong/audit",
            cfg: zerodev_default_nodir(),
            app: "torture.ping_pong",
            seed: 0x5eed_0002,
            audit: true,
            faults: None,
            refs: REFS,
            cut: 700,
        },
        Point {
            label: "zerodev/torture.entry_thrash/nack-storms",
            cfg: zerodev_default_nodir(),
            app: "torture.entry_thrash",
            seed: 0x5eed_0003,
            audit: true,
            faults: Some(nack_storms),
            refs: REFS,
            cut: 1_500,
        },
        // Cut *before* the armed corruption injects at access 900: the
        // restored fault plan (PRNG, cursor, armed trigger) and the
        // lane-exact cache/directory images must pick the same victim.
        Point {
            label: "baseline/torture.false_sharing/corruption",
            cfg: baseline(),
            app: "torture.false_sharing",
            seed: 0x5eed_0004,
            audit: false,
            faults: Some(corrupting),
            refs: REFS,
            cut: 500,
        },
        Point {
            label: "four-socket/torture.reader_swarm/audit",
            cfg: SystemConfig::four_socket(),
            app: "torture.reader_swarm",
            seed: 0x5eed_0005,
            audit: true,
            faults: None,
            refs: 300,
            cut: 1_500,
        },
    ]
}

fn build(p: &Point) -> Simulation {
    let cores = p.cfg.cores * p.cfg.sockets;
    let wl = multithreaded(p.app, cores, p.seed).expect("known app");
    let mut sim = Simulation::new(&p.cfg, wl);
    if p.audit {
        sim.enable_audit();
    }
    if let Some(fc) = p.faults {
        sim.set_faults(fc);
    }
    sim
}

fn uninterrupted(p: &Point) -> SimResult {
    let mut run = build(p).start(p.refs, WARM);
    run.advance(u64::MAX).expect("clean run must not stall");
    run.finish()
}

/// Runs to `cut` retired references, checkpoints, drops the live run, and
/// finishes from the restored image.
fn killed_and_resumed(p: &Point) -> SimResult {
    let mut run = build(p).start(p.refs, WARM);
    let status = run.advance(p.cut).expect("clean run must not stall");
    let image = run.checkpoint();
    drop(run); // the "kill": only the image survives
    let mut resumed = PausedRun::restore(&p.cfg, &image).expect("image restores");
    if status == RunStatus::Paused {
        resumed
            .advance(u64::MAX)
            .expect("resumed run must not stall");
    }
    resumed.finish()
}

fn assert_identical(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(a.stats, b.stats, "{label}: stats diverged");
    assert_eq!(
        a.core_cycles, b.core_cycles,
        "{label}: core cycles diverged"
    );
    assert_eq!(
        a.core_instrs, b.core_instrs,
        "{label}: core instrs diverged"
    );
    assert_eq!(
        a.completion_cycles, b.completion_cycles,
        "{label}: completion diverged"
    );
    assert_eq!(
        a.refs_retired, b.refs_retired,
        "{label}: refs retired diverged"
    );
    assert_eq!(a.dram_rw, b.dram_rw, "{label}: dram counts diverged");
    assert_eq!(a.faults, b.faults, "{label}: fault stats diverged");
}

#[test]
fn kill_and_resume_is_byte_identical_across_the_matrix() {
    for p in matrix() {
        let a = uninterrupted(&p);
        let b = killed_and_resumed(&p);
        assert_identical(&a, &b, p.label);
    }
}

#[test]
fn resume_is_byte_identical_at_every_cut_depth() {
    let p = Point {
        label: "cut sweep",
        cfg: zerodev_default_nodir(),
        app: "torture.phase_mix",
        seed: 0x5eed_0010,
        audit: true,
        faults: None,
        refs: REFS,
        cut: 0,
    };
    let reference = uninterrupted(&p);
    // Cut at the very first boundary, mid-run, near the end, and past the
    // end (the run finishes inside advance; restore then sees Finished).
    for cut in [1, 333, 8 * REFS - 1, 8 * REFS + 1_000] {
        let p = Point { cut, ..p.clone() };
        let resumed = killed_and_resumed(&p);
        assert_identical(&reference, &resumed, &format!("cut at {cut}"));
    }
}

#[test]
fn checkpoint_round_trips_through_restore() {
    // Re-serializing a restored run must reproduce the image exactly.
    let p = &matrix()[1];
    let mut run = build(p).start(p.refs, WARM);
    run.advance(p.cut).expect("clean");
    let image = run.checkpoint();
    let restored = PausedRun::restore(&p.cfg, &image).expect("image restores");
    assert_eq!(
        image,
        restored.checkpoint(),
        "restored run re-serializes differently"
    );
    assert_eq!(run.refs_retired(), restored.refs_retired());
    assert_eq!(run.refs_per_core(), restored.refs_per_core());
}

#[test]
fn restore_rejects_a_mismatched_config() {
    let p = &matrix()[0];
    let mut run = build(p).start(p.refs, WARM);
    run.advance(100).expect("clean");
    let image = run.checkpoint();
    let wrong = zerodev_default_nodir();
    assert!(
        PausedRun::restore(&wrong, &image).is_err(),
        "a differently shaped machine must be rejected"
    );
}

#[test]
fn restore_rejects_a_damaged_image() {
    let p = &matrix()[0];
    let mut run = build(p).start(p.refs, WARM);
    run.advance(100).expect("clean");
    let mut image = run.checkpoint();
    let mid = image.len() / 2;
    image[mid] ^= 0xff;
    assert!(
        PausedRun::restore(&p.cfg, &image).is_err(),
        "a flipped payload byte must fail the checksum"
    );
    assert!(
        PausedRun::restore(&p.cfg, &image[..image.len() - 3]).is_err(),
        "a truncated image must be rejected"
    );
    // A sound container (valid checksum) of the previous layout, which
    // still carried the watchdog tuning and the mesh load counters.
    let mut w = SnapWriter::new(MAGIC, VERSION - 1);
    w.u64(p.refs);
    assert_eq!(
        PausedRun::restore(&p.cfg, &w.finish()).err(),
        Some(SnapError::BadVersion {
            expected: VERSION,
            found: VERSION - 1,
        }),
        "an image of the previous layout must fail on its version"
    );
}
