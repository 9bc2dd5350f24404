//! Cross-crate integration tests: full simulations through the public API,
//! asserting the paper's qualitative claims hold on the real stack.

use zerodev::prelude::*;

fn quick() -> RunParams {
    RunParams {
        refs_per_core: 12_000,
        warmup_refs: 4_000,
        ..Default::default()
    }
}

fn zerodev_nodir() -> SystemConfig {
    SystemConfig::baseline_8core().with_zerodev(ZeroDevConfig::default(), DirectoryKind::None)
}

#[test]
fn zerodev_is_dev_free_on_every_suite_representative() {
    let cfg = zerodev_nodir();
    for app in ["vips", "ocean_cp", "330.art", "FFTW", "streamcluster"] {
        let r = run(&cfg, multithreaded(app, 8, 3).unwrap(), &quick());
        assert_eq!(r.stats.dev_invalidations, 0, "{app} produced DEVs");
        assert!(
            r.stats.dir_spills + r.stats.dir_fuses > 0,
            "{app} never exercised directory caching"
        );
    }
    for app in ["xalancbmk", "mcf", "gcc.ppO2"] {
        let r = run(&cfg, rate(app, 8, 3).unwrap(), &quick());
        assert_eq!(r.stats.dev_invalidations, 0, "{app} produced DEVs");
    }
}

#[test]
fn baseline_tiny_directory_produces_devs_zerodev_does_not() {
    let tiny_base = SystemConfig::baseline_8core().with_sparse_dir(Ratio::new(1, 32));
    let b = run(&tiny_base, rate("xalancbmk", 8, 3).unwrap(), &quick());
    assert!(b.stats.dev_invalidations > 0, "1/32x baseline must thrash");
    let zd = SystemConfig::baseline_8core().with_zerodev(
        ZeroDevConfig::default(),
        DirectoryKind::Sparse {
            ratio: Ratio::new(1, 32),
            ways: 8,
        },
    );
    let z = run(&zd, rate("xalancbmk", 8, 3).unwrap(), &quick());
    assert_eq!(z.stats.dev_invalidations, 0);
    // Same directory budget: ZeroDEV must be no slower than the baseline.
    let full_base = run(
        &SystemConfig::baseline_8core(),
        rate("xalancbmk", 8, 3).unwrap(),
        &quick(),
    );
    let s_base = b
        .result
        .speedup_vs(&full_base.result)
        .expect("same core count");
    let s_zd = z
        .result
        .speedup_vs(&full_base.result)
        .expect("same core count");
    assert!(
        s_zd > s_base,
        "ZeroDEV ({s_zd:.3}) must beat the baseline ({s_base:.3}) at 1/32x"
    );
}

#[test]
fn zerodev_nodir_tracks_baseline_on_friendly_workload() {
    let base = run(
        &SystemConfig::baseline_8core(),
        rate("leela", 8, 5).unwrap(),
        &quick(),
    );
    let z = run(&zerodev_nodir(), rate("leela", 8, 5).unwrap(), &quick());
    let s = z.result.speedup_vs(&base.result).expect("same core count");
    assert!(
        (0.9..=1.1).contains(&s),
        "cache-friendly workload should be near-neutral, got {s:.3}"
    );
}

#[test]
fn unbounded_directory_never_loses_misses() {
    let mut unb = SystemConfig::baseline_8core();
    unb.directory = DirectoryKind::Unbounded;
    for app in ["xalancbmk", "mcf"] {
        let b = run(
            &SystemConfig::baseline_8core(),
            rate(app, 8, 9).unwrap(),
            &quick(),
        );
        let u = run(&unb, rate(app, 8, 9).unwrap(), &quick());
        // Allow second-order timing noise: interleaving changes can shift a
        // few misses either way, but the unbounded directory must not lose
        // materially.
        assert!(
            u.stats.core_cache_misses as f64 <= b.stats.core_cache_misses as f64 * 1.02,
            "{app}: unbounded directory increased misses ({} vs {})",
            u.stats.core_cache_misses,
            b.stats.core_cache_misses
        );
        assert_eq!(u.stats.dev_invalidations, 0);
    }
}

#[test]
fn inclusive_zerodev_never_evicts_entries_from_llc() {
    let mut cfg = zerodev_nodir();
    cfg.llc_design = LlcDesign::Inclusive;
    // A small LLC guarantees inclusion victims within the short run.
    cfg.llc = zerodev::common::config::CacheGeometry::new(1 << 20, 16);
    let r = run(&cfg, multithreaded("canneal", 8, 7).unwrap(), &quick());
    // §III-F: an inclusive LLC frees entries before they can be evicted.
    assert_eq!(r.stats.dir_llc_evictions, 0);
    assert_eq!(r.stats.dev_invalidations, 0);
    assert!(r.stats.inclusion_invalidations > 0, "inclusion enforced");
}

#[test]
fn epd_spills_instead_of_fusing() {
    let mut cfg = zerodev_nodir();
    cfg.llc_design = LlcDesign::Epd;
    let r = run(&cfg, rate("mcf", 8, 11).unwrap(), &quick());
    // Privately owned blocks are not LLC-resident under EPD, so fusion is
    // rare and spilling dominates (§III-E).
    assert!(
        r.stats.dir_spills > r.stats.dir_fuses,
        "EPD should spill ({} spills vs {} fuses)",
        r.stats.dir_spills,
        r.stats.dir_fuses
    );
    assert_eq!(r.stats.dev_invalidations, 0);
}

#[test]
fn wbde_flow_reaches_memory_under_pressure() {
    // Small LLC + big shared footprint → entries must reach home memory.
    let mut cfg = zerodev_nodir();
    cfg.llc = zerodev::common::config::CacheGeometry::new(1 << 20, 16); // 1 MB
    let r = run(&cfg, multithreaded("canneal", 8, 13).unwrap(), &quick());
    assert!(r.stats.dir_llc_evictions > 0, "no WB_DE under pressure");
    assert_eq!(r.stats.dram_writes_dir, r.stats.dir_llc_evictions);
    assert_eq!(r.stats.dev_invalidations, 0);
    // The paper's §III-D3 claim, relaxed: directory-eviction writes remain
    // a modest fraction of DRAM writes even at 1/8th the LLC capacity.
    // (At 1/8th the normal LLC capacity directory churn is deliberately
    // extreme; the paper's <0.5% figure is measured on the full machine and
    // reproduced by the fig_multisocket harness.)
    let frac = r.stats.dram_writes_dir as f64 / r.stats.dram_writes.max(1) as f64;
    assert!(frac < 0.95, "dir writes dominate DRAM writes: {frac}");
}

#[test]
fn four_socket_machine_stays_coherent_and_dev_free() {
    let cfg =
        SystemConfig::four_socket().with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
    let wl = multithreaded("fft", 32, 17).unwrap();
    let r = run(&cfg, wl, &quick());
    assert_eq!(r.stats.dev_invalidations, 0);
    assert!(r.stats.socket_misses > 0, "inter-socket traffic exercised");
    assert!(r.completion_cycles > 0);
}

#[test]
fn server_machine_runs_all_server_workloads() {
    let cfg = SystemConfig::server_128core();
    let params = RunParams {
        refs_per_core: 1_500,
        warmup_refs: 300,
        ..Default::default()
    };
    for app in suites::SERVER {
        let r = run(&cfg, server(app, 128, 19).unwrap(), &params);
        assert!(r.completion_cycles > 0, "{app} did not complete");
        assert!(r.stats.core_cache_misses > 0);
    }
}

#[test]
fn secdir_avoids_direct_cross_core_devs_but_not_self_conflicts() {
    let mut cfg = SystemConfig::baseline_8core();
    cfg.directory = DirectoryKind::SecDir(
        zerodev::core::DirStore::secdir_geometry(8, true), // 1/8x iso-storage
    );
    let r = run(&cfg, rate("xalancbmk", 8, 23).unwrap(), &quick());
    // SecDir still produces DEVs via private-partition self-conflicts.
    assert!(
        r.stats.dev_invalidations > 0,
        "1/8x SecDir should fragment and self-conflict"
    );
}

#[test]
fn mgd_tracks_private_regions_efficiently() {
    let mut cfg = SystemConfig::baseline_8core();
    cfg.directory = DirectoryKind::MultiGrain {
        ratio: Ratio::new(1, 16),
        ways: 8,
    };
    // Mostly-private workload: MgD's region entries should keep DEVs far
    // below the same-size conventional directory.
    let m = run(&cfg, rate("lbm", 8, 29).unwrap(), &quick());
    let small = SystemConfig::baseline_8core().with_sparse_dir(Ratio::new(1, 16));
    let s = run(&small, rate("lbm", 8, 29).unwrap(), &quick());
    assert!(
        m.stats.dev_invalidations < s.stats.dev_invalidations / 2,
        "MgD ({}) should track private data far better than a 1/16x sparse dir ({})",
        m.stats.dev_invalidations,
        s.stats.dev_invalidations
    );
}

#[test]
fn energy_report_favours_zerodev_nodir() {
    let base = run(
        &SystemConfig::baseline_8core(),
        rate("leela", 8, 31).unwrap(),
        &quick(),
    );
    let z = run(&zerodev_nodir(), rate("leela", 8, 31).unwrap(), &quick());
    assert!(z.energy.dir_leakage_nj == 0.0 && z.energy.dir_dynamic_nj == 0.0);
    assert!(
        z.energy.total_nj() < base.energy.total_nj(),
        "removing the directory must save energy"
    );
}

#[test]
fn determinism_across_full_stack() {
    let cfg = zerodev_nodir();
    let a = run(&cfg, hetero_mix(4, 8, 37), &quick());
    let b = run(&cfg, hetero_mix(4, 8, 37), &quick());
    assert_eq!(a.completion_cycles, b.completion_cycles);
    assert_eq!(a.stats.total_traffic_bytes(), b.stats.total_traffic_bytes());
    assert_eq!(a.stats.dir_llc_evictions, b.stats.dir_llc_evictions);
    assert_eq!(a.dram_rw, b.dram_rw);
}

/// The torture family rides the same determinism contract as the PARSEC /
/// SPLASH generators: every `torture.*` workload must produce an identical
/// run at any `ZERODEV_THREADS` setting (expressed through `RunParams` so
/// the test cannot race on process-global env vars). The soak driver's
/// minimizer and repro commands depend on this.
#[test]
fn torture_workloads_are_deterministic_across_threads() {
    let cfg =
        SystemConfig::baseline_8core().with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
    for app in zerodev::workloads::TORTURE {
        let fingerprint = |threads: usize| {
            let p = RunParams {
                refs_per_core: 2_000,
                warmup_refs: 200,
                threads,
                audit: true,
                ..Default::default()
            };
            let r = run(&cfg, multithreaded(app, 8, 0x7041).unwrap(), &p).result;
            format!(
                "{:?}|{:?}|{:?}|{}|{}",
                r.stats, r.core_cycles, r.core_instrs, r.completion_cycles, r.refs_retired
            )
        };
        assert_eq!(
            fingerprint(4),
            fingerprint(1),
            "{app} diverged at threads=4"
        );
    }
}
