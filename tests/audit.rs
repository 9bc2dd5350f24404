//! Coherence-oracle integration tests: differential (audited vs unaudited)
//! runs across the spill-policy × LLC-design matrix, an injected-fault
//! detection check, and the regression test for the untracked-read
//! multi-socket grant bug.

use zerodev::prelude::*;

fn quick() -> RunParams {
    RunParams {
        refs_per_core: 6_000,
        warmup_refs: 1_500,
        ..Default::default()
    }
}

fn audited() -> RunParams {
    RunParams {
        audit: true,
        ..quick()
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

/// The tentpole acceptance test: every spill policy × LLC design × socket
/// count runs violation-free under the oracle, and auditing changes
/// nothing — the statistics, final cycle counts, and DRAM traffic are
/// byte-identical.
#[test]
fn audited_matrix_is_violation_free_and_byte_identical() {
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
                let threads = 8 * sockets;
                let wl = || multithreaded("ocean_cp", threads, 5).unwrap();
                let base = run(&cfg, wl(), &quick());
                let aud = run(&cfg, wl(), &audited());
                assert_eq!(
                    base.result.stats, aud.result.stats,
                    "{policy:?}/{design:?}/{sockets}s: auditing changed the statistics"
                );
                assert_eq!(
                    base.result.completion_cycles, aud.result.completion_cycles,
                    "{policy:?}/{design:?}/{sockets}s: auditing changed the timing"
                );
                assert_eq!(
                    base.result.dram_rw, aud.result.dram_rw,
                    "{policy:?}/{design:?}/{sockets}s: auditing changed DRAM traffic"
                );
            }
        }
    }
}

/// A DEV-producing baseline (tiny sparse directory) must also audit
/// cleanly: DEVs are legal there, and the dirty-recall path is exercised.
#[test]
fn audited_baseline_with_devs_runs_clean() {
    let cfg = SystemConfig::baseline_8core().with_sparse_dir(Ratio::new(1, 32));
    let base = run(&cfg, rate("xalancbmk", 8, 3).unwrap(), &quick());
    assert!(base.stats.dev_invalidations > 0, "baseline must thrash");
    let aud = run(&cfg, rate("xalancbmk", 8, 3).unwrap(), &audited());
    assert_eq!(base.result.stats, aud.result.stats);
}

/// Multi-socket coherence (Figure 15) under the oracle, for both the
/// paper's configuration and a plain baseline.
#[test]
fn audited_four_socket_runs_are_violation_free_and_identical() {
    let zd =
        SystemConfig::four_socket().with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
    let wl = || multithreaded("fft", 32, 17).unwrap();
    let base = run(&zd, wl(), &quick());
    let aud = run(&zd, wl(), &audited());
    assert!(
        aud.stats.socket_misses > 0,
        "inter-socket traffic exercised"
    );
    assert_eq!(base.result.stats, aud.result.stats);
    assert_eq!(base.result.completion_cycles, aud.result.completion_cycles);

    let plain = SystemConfig::four_socket();
    let b = run(&plain, wl(), &quick());
    let a = run(&plain, wl(), &audited());
    assert_eq!(b.result.stats, a.result.stats);
}

/// The oracle must actually catch corruption: silently dropping a sharer
/// from a live directory entry (a seeded protocol bug) panics with the
/// event log attached.
#[test]
fn injected_lost_sharer_is_caught_with_event_log() {
    let cfg =
        SystemConfig::baseline_8core().with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
    let mut sys = System::new(cfg).unwrap();
    sys.enable_audit();
    let block = BlockAddr(0x40);
    let r0 = sys.access(Cycle(0), SocketId(0), CoreId(0), block, Op::Read);
    assert!(r0.grant.is_owned());
    let r1 = sys.access(Cycle(10), SocketId(0), CoreId(1), block, Op::Read);
    assert_eq!(r1.grant, MesiState::Shared);
    assert!(
        sys.debug_inject_lost_sharer(SocketId(0), block),
        "injection needs a two-sharer entry"
    );
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.audit_sweep()))
        .expect_err("the oracle must flag the lost sharer");
    let msg = zerodev::common::panic_message(&*payload);
    assert!(
        msg.contains("coherence oracle violation"),
        "unexpected panic: {msg}"
    );
    assert!(
        msg.contains("protocol events"),
        "violation report must dump the event log: {msg}"
    );
}

/// Regression test for the untracked-read socket grant bug: an LLC data
/// hit in a socket whose cores all dropped their copies must not grant E
/// while a *remote* socket still shares the block.
#[test]
fn untracked_llc_hit_consults_socket_directory() {
    let mut cfg =
        SystemConfig::four_socket().with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
    cfg.sockets = 2;
    let mut sys = System::new(cfg).unwrap();
    sys.enable_audit();
    let block = BlockAddr(0); // home socket 0

    // Socket 0, core 0 reads: sole holder, granted E.
    let r = sys.access(Cycle(0), SocketId(0), CoreId(0), block, Op::Read);
    assert_eq!(r.grant, MesiState::Exclusive);
    // Socket 1, core 0 reads: the remote owner is downgraded, both share.
    let r = sys.access(Cycle(100), SocketId(1), CoreId(0), block, Op::Read);
    assert_eq!(r.grant, MesiState::Shared);
    // Socket 1's only holder evicts: the in-socket entry dies but the LLC
    // data line (and the socket-level sharer bit) remain.
    let inv = sys.evict(
        Cycle(200),
        SocketId(1),
        CoreId(0),
        block,
        EvictKind::CleanShared,
    );
    assert!(inv.is_empty());
    assert!(sys.entry_of(SocketId(1), block).is_none());
    assert!(sys.llc_line_of(SocketId(1), block).is_some());

    // Socket 1, core 1 reads and hits the orphaned LLC line. Socket 0
    // still shares the block, so E here would break SWMR — the engine must
    // consult the home socket directory and grant S.
    let r = sys.access(Cycle(300), SocketId(1), CoreId(1), block, Op::Read);
    assert_eq!(
        r.grant,
        MesiState::Shared,
        "untracked LLC hit granted exclusivity while socket 0 shares the block"
    );
    sys.audit_sweep();

    // The E side of the same path: a block only socket 1 ever touched.
    let lonely = BlockAddr(64); // home socket 1
    let r = sys.access(Cycle(400), SocketId(1), CoreId(0), lonely, Op::Read);
    assert_eq!(r.grant, MesiState::Exclusive);
    let _ = sys.evict(
        Cycle(500),
        SocketId(1),
        CoreId(0),
        lonely,
        EvictKind::CleanExclusive,
    );
    assert!(sys.llc_line_of(SocketId(1), lonely).is_some());
    let r = sys.access(Cycle(600), SocketId(1), CoreId(1), lonely, Op::Read);
    assert_eq!(
        r.grant,
        MesiState::Exclusive,
        "no other socket shares the block, so the hit may grant E"
    );
    sys.audit_sweep();
}
