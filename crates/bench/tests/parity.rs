//! Stats-parity matrix: pins the simulator's observable behaviour across
//! the full (spill policy × LLC design × socket count) grid, with the
//! coherence oracle armed.
//!
//! Every performance change to the hot paths (arena/SoA state layouts,
//! allocation-free protocol flows, the event queue) is required to keep
//! figure output **byte-identical**; this matrix turns that requirement
//! into a test. Each point runs a short audited simulation and fingerprints
//! the complete `Stats` record (the exact `Debug` rendering, which covers
//! every counter) together with the per-core cycle/instruction trajectories
//! and the retired-reference count. The goldens below were harvested from a
//! build whose quick-mode `all_figures` output was verified byte-identical
//! to the pre-optimization harness; any future change that shifts a single
//! counter anywhere in the matrix fails here with the offending
//! configuration named.

use zerodev_common::config::DirectoryKind;
use zerodev_common::config::{LlcDesign, LlcReplacement, SpillPolicy, ZeroDevConfig};
use zerodev_common::snap::fnv1a;
use zerodev_common::SystemConfig;
use zerodev_sim::runner::{run, RunParams};
use zerodev_workloads::multithreaded;

const POLICIES: [SpillPolicy; 3] = [
    SpillPolicy::SpillAll,
    SpillPolicy::FusePrivateSpillShared,
    SpillPolicy::FuseAll,
];

const DESIGNS: [LlcDesign; 3] = [
    LlcDesign::NonInclusive,
    LlcDesign::Epd,
    LlcDesign::Inclusive,
];

/// One audited short run; returns the behaviour fingerprint, FNV-1a over
/// the rendered result record (exact: no floats involved).
fn point(policy: SpillPolicy, design: LlcDesign, sockets: usize) -> u64 {
    let mut cfg = if sockets == 1 {
        SystemConfig::baseline_8core()
    } else {
        SystemConfig::four_socket()
    };
    cfg.llc_design = design;
    // A small LLC keeps capacity pressure real at this run length, so the
    // inclusion policies actually diverge (with the full-size LLC a short
    // run never evicts and all three designs coincide).
    cfg.llc = zerodev_common::config::CacheGeometry::new(256 << 10, 16);
    let cfg = cfg.with_zerodev(
        ZeroDevConfig {
            policy,
            llc_replacement: LlcReplacement::DataLru,
        },
        DirectoryKind::None,
    );
    let cores = cfg.cores * cfg.sockets;
    let params = RunParams {
        refs_per_core: if sockets == 1 { 2_500 } else { 1_200 },
        warmup_refs: 300,
        threads: 1,
        audit: true,
        faults: None,
    };
    let wl = multithreaded("canneal", cores, 0x9a11_7e57).expect("known app");
    let r = run(&cfg, wl, &params).result;
    let record = format!(
        "{:?}|{:?}|{:?}|{}|{}",
        r.stats, r.core_cycles, r.core_instrs, r.completion_cycles, r.refs_retired
    );
    fnv1a(record.as_bytes())
}

/// The pinned behaviour of the whole matrix, row-major over
/// `POLICIES × DESIGNS × [1, 4] sockets`. Harvest order matches
/// `matrix_points()`.
const GOLDEN: [u64; 18] = [
    0x57bd3c5d3009837a, // SpillAll/NonInclusive/1s
    0x9ae3bcd58b59eeaf, // SpillAll/NonInclusive/4s
    0x6a0a9ef5901e8122, // SpillAll/Epd/1s
    0x395d1a8327233a66, // SpillAll/Epd/4s
    0xc6bff6b05c430a53, // SpillAll/Inclusive/1s
    0x0eb21ab27806b2e2, // SpillAll/Inclusive/4s
    0x7bdd14f7e3f07883, // FusePrivateSpillShared/NonInclusive/1s
    0x5644440a4a23c3b4, // FusePrivateSpillShared/NonInclusive/4s
    0x1182a3076d2feff9, // FusePrivateSpillShared/Epd/1s
    0xe66b689706fa2dcb, // FusePrivateSpillShared/Epd/4s
    0x7b10f9e2877b09e4, // FusePrivateSpillShared/Inclusive/1s
    0xc4557d1ad6c59ae1, // FusePrivateSpillShared/Inclusive/4s
    0x78ba5336efad8b05, // FuseAll/NonInclusive/1s
    0x8d851f5f9ef1ef2f, // FuseAll/NonInclusive/4s
    0xeeb1fb9767a9a206, // FuseAll/Epd/1s
    0x509210e480298946, // FuseAll/Epd/4s
    0xfbcfdfe6c9a316d7, // FuseAll/Inclusive/1s
    0x1f492945a4790637, // FuseAll/Inclusive/4s
];

fn matrix_points() -> Vec<(SpillPolicy, LlcDesign, usize)> {
    let mut pts = Vec::new();
    for policy in POLICIES {
        for design in DESIGNS {
            for sockets in [1usize, 4] {
                pts.push((policy, design, sockets));
            }
        }
    }
    pts
}

#[test]
fn audited_matrix_matches_pinned_fingerprints() {
    for (i, (policy, design, sockets)) in matrix_points().into_iter().enumerate() {
        let got = point(policy, design, sockets);
        assert_eq!(
            got, GOLDEN[i],
            "behaviour changed at {policy:?}/{design:?}/{sockets} socket(s) \
             (matrix index {i}): got {got:#018x}, pinned {:#018x}",
            GOLDEN[i]
        );
    }
}

/// Harvest helper: prints the matrix in golden-array form.
/// `cargo test --release -p zerodev-bench --test parity -- --ignored --nocapture`
#[test]
#[ignore = "golden harvest helper, not a check"]
fn print_golden_fingerprints() {
    for (policy, design, sockets) in matrix_points() {
        println!(
            "    {:#018x}, // {policy:?}/{design:?}/{sockets}s",
            point(policy, design, sockets)
        );
    }
}
