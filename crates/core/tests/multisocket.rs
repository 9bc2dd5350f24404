//! Directed multi-socket protocol tests (Figures 13–16 of the paper),
//! driving [`zerodev_core::System`] transaction by transaction.

use zerodev_common::config::{CacheGeometry, DirectoryKind, Ratio, SystemConfig, ZeroDevConfig};
use zerodev_common::{BlockAddr, CoreId, Cycle, MesiState, SocketId};
use zerodev_core::{EvictKind, Op, System};

fn small_cfg(sockets: usize) -> SystemConfig {
    let mut cfg = SystemConfig::baseline_8core();
    cfg.sockets = sockets;
    cfg.cores = 4;
    cfg.l1i = CacheGeometry::new(4 << 10, 2);
    cfg.l1d = CacheGeometry::new(4 << 10, 2);
    cfg.l2 = CacheGeometry::new(8 << 10, 4);
    cfg.llc = CacheGeometry::new(64 << 10, 4);
    cfg.llc_banks = 2;
    cfg
}

fn zd_cfg(sockets: usize) -> SystemConfig {
    small_cfg(sockets).with_zerodev(ZeroDevConfig::default(), DirectoryKind::None)
}

const S0: SocketId = SocketId(0);
const S1: SocketId = SocketId(1);
const S2: SocketId = SocketId(2);
const C0: CoreId = CoreId(0);
const C1: CoreId = CoreId(1);

#[test]
fn exclusive_grant_tracks_socket_ownership() {
    let mut sys = System::new(small_cfg(4)).unwrap();
    let b = BlockAddr(0x40);
    let r = sys.access(Cycle(0), S1, C0, b, Op::Read);
    assert_eq!(r.grant, MesiState::Exclusive);
    assert!(r.latency > 0);
    // A remote write must find and invalidate the socket-1 copy.
    let r2 = sys.access(Cycle(0), S2, C0, b, Op::ReadExclusive);
    assert_eq!(r2.grant, MesiState::Modified);
    assert!(
        r2.invalidations
            .iter()
            .any(|i| i.socket == S1 && i.core == C0 && i.block == b),
        "remote copy must be invalidated: {:?}",
        r2.invalidations
    );
    assert!(sys.entry_of(S1, b).is_none(), "socket 1 entry freed");
    assert_eq!(sys.entry_of(S2, b).unwrap().owner(), Some(C0));
}

#[test]
fn remote_read_downgrades_owner_socket() {
    let mut sys = System::new(small_cfg(4)).unwrap();
    let b = BlockAddr(0x80);
    sys.access(Cycle(0), S0, C0, b, Op::Read);
    let r = sys.access(Cycle(0), S2, C1, b, Op::Read);
    assert_eq!(r.grant, MesiState::Shared);
    assert!(
        r.downgrades
            .iter()
            .any(|d| d.socket == S0 && d.core == C0 && d.block == b),
        "owner core must be downgraded"
    );
    // Both sockets now track the block in S.
    assert!(!sys.entry_of(S0, b).unwrap().state.is_owned());
    assert!(!sys.entry_of(S2, b).unwrap().state.is_owned());
}

#[test]
fn remote_latency_exceeds_local() {
    let mut sys = System::new(small_cfg(4)).unwrap();
    // Find one block homed at socket 0 and one at socket 2.
    let local = (0..4096u64)
        .map(BlockAddr)
        .find(|&b| sys.config().home_socket(b) == S0)
        .unwrap();
    let remote = (0..4096u64)
        .map(BlockAddr)
        .find(|&b| sys.config().home_socket(b) == S2)
        .unwrap();
    let l = sys.access(Cycle(0), S0, C0, local, Op::Read).latency;
    let r = sys.access(Cycle(0), S0, C0, remote, Op::Read).latency;
    assert!(
        r >= l + SystemConfig::INTER_SOCKET_CYCLES,
        "remote fetch {r} must pay the socket hop over local {l}"
    );
}

#[test]
fn socket_departure_clears_socket_directory() {
    let mut sys = System::new(small_cfg(2)).unwrap();
    let b = BlockAddr(0x40);
    sys.access(Cycle(0), S1, C0, b, Op::Read);
    // Evict the private copy; the LLC still holds the line (non-inclusive),
    // so socket 1 stays a sharer.
    let _ = sys.evict(Cycle(0), S1, C0, b, EvictKind::CleanExclusive);
    let r = sys.access(Cycle(0), S0, C0, b, Op::ReadExclusive);
    // No private copies to invalidate, but socket 1's LLC line must not
    // serve stale data afterwards: the write claimed system ownership.
    assert_eq!(r.grant, MesiState::Modified);
    assert!(sys.llc_line_of(S1, b).is_none(), "remote LLC copy dropped");
}

#[test]
fn wbde_to_remote_home_merges_segments() {
    // Two sockets spill entries for blocks of the same home: exercise the
    // read-modify-write merge (Figure 14 steps (i)-(iii)).
    let mut sys = System::new(zd_cfg(2)).unwrap();
    let cfg = sys.config().clone();
    let sets = cfg.llc_sets_per_bank() as u64;
    let banks = cfg.llc_banks as u64;
    // Blocks in one LLC set, shared within each socket so entries spill.
    let blocks: Vec<BlockAddr> = (0..8).map(|i| BlockAddr(banks * (7 + i * sets))).collect();
    for &b in &blocks {
        sys.access(Cycle(0), S0, C0, b, Op::Read);
        sys.access(Cycle(0), S0, C1, b, Op::Read);
        sys.access(Cycle(0), S1, C0, b, Op::Read);
        sys.access(Cycle(0), S1, C1, b, Op::Read);
    }
    assert!(sys.stats.dir_llc_evictions > 0, "spills must overflow");
    // At least one block should have collected segments from both sockets.
    let both = blocks.iter().any(|&b| {
        sys.memory()
            .corrupted_block(b)
            .is_some_and(|cb| cb.sockets().count() == 2)
    });
    if both {
        assert!(sys.stats.dram_reads_dir > 0, "merging needs a memory read");
    }
    assert_eq!(sys.stats.dev_invalidations, 0);
    sys.check_invariants();
}

#[test]
fn sharer_socket_recovers_entry_from_corrupted_block() {
    let mut sys = System::new(zd_cfg(2)).unwrap();
    let cfg = sys.config().clone();
    let sets = cfg.llc_sets_per_bank() as u64;
    let banks = cfg.llc_banks as u64;
    let blocks: Vec<BlockAddr> = (0..10).map(|i| BlockAddr(banks * (9 + i * sets))).collect();
    for &b in &blocks {
        sys.access(Cycle(0), S1, C0, b, Op::Read);
        sys.access(Cycle(0), S1, C1, b, Op::Read);
    }
    let Some(&b) = blocks.iter().find(|&&b| {
        sys.memory_corrupted(b) && sys.entry_of(S1, b).is_none() && sys.llc_line_of(S1, b).is_none()
    }) else {
        assert!(sys.stats.dir_llc_evictions > 0);
        return;
    };
    // A third core of the SAME socket reads: step 3 of Figure 15 — the
    // corrupted block is read, the entry extracted and reinstalled.
    let before = sys.stats.llc_read_misses_corrupted;
    let r = sys.access(Cycle(0), S1, CoreId(2), b, Op::Read);
    assert_eq!(r.grant, MesiState::Shared);
    assert_eq!(sys.stats.llc_read_misses_corrupted, before + 1);
    assert!(sys.entry_of(S1, b).is_some(), "entry recovered in-socket");
    assert_eq!(sys.entry_of(S1, b).unwrap().sharers.count(), 3);
}

#[test]
fn upgrade_recovers_entry_housed_at_home() {
    let mut sys = System::new(zd_cfg(2)).unwrap();
    let cfg = sys.config().clone();
    let sets = cfg.llc_sets_per_bank() as u64;
    let banks = cfg.llc_banks as u64;
    let blocks: Vec<BlockAddr> = (0..10)
        .map(|i| BlockAddr(banks * (11 + i * sets)))
        .collect();
    for &b in &blocks {
        sys.access(Cycle(0), S0, C0, b, Op::Read);
        sys.access(Cycle(0), S0, C1, b, Op::Read);
    }
    let Some(&b) = blocks.iter().find(|&&b| {
        sys.memory_corrupted(b) && sys.entry_of(S0, b).is_none() && sys.llc_line_of(S0, b).is_none()
    }) else {
        return;
    };
    // Core 0 still holds an S copy; its upgrade must recover the entry and
    // invalidate core 1.
    let r = sys.access(Cycle(0), S0, C0, b, Op::Upgrade);
    assert!(r.invalidations.iter().any(|i| i.core == C1 && i.block == b));
    assert_eq!(sys.entry_of(S0, b).unwrap().owner(), Some(C0));
    sys.check_invariants();
}

#[test]
fn last_copy_eviction_restores_corrupted_memory() {
    let mut sys = System::new(zd_cfg(2)).unwrap();
    let cfg = sys.config().clone();
    let sets = cfg.llc_sets_per_bank() as u64;
    let banks = cfg.llc_banks as u64;
    let blocks: Vec<BlockAddr> = (0..10)
        .map(|i| BlockAddr(banks * (13 + i * sets)))
        .collect();
    for &b in &blocks {
        sys.access(Cycle(0), S0, C0, b, Op::Read);
        sys.access(Cycle(0), S0, C1, b, Op::Read);
    }
    let corrupted: Vec<BlockAddr> = blocks
        .iter()
        .copied()
        .filter(|&b| sys.memory_corrupted(b) && sys.entry_of(S0, b).is_none())
        .collect();
    for b in corrupted {
        let _ = sys.evict(Cycle(0), S0, C0, b, EvictKind::CleanShared);
        let _ = sys.evict(Cycle(0), S0, C1, b, EvictKind::CleanShared);
        // All copies gone (the LLC line may keep the block in-socket; if it
        // is also absent, memory must have been restored).
        if sys.llc_line_of(S0, b).is_none() {
            assert!(!sys.memory_corrupted(b), "memory restored at {b:?}");
        }
    }
    sys.check_invariants();
}

#[test]
fn baseline_multisocket_devs_stay_within_socket() {
    let mut cfg = small_cfg(2);
    cfg.directory = DirectoryKind::Sparse {
        ratio: Ratio::new(1, 64),
        ways: 2,
        replacement_disabled: false,
    };
    let mut sys = System::new(cfg).unwrap();
    // Socket 0 thrashes its tiny directory; socket 1's copies must be
    // untouched (DEVs are an intra-socket phenomenon).
    let remote_block = BlockAddr(0x9000);
    sys.access(Cycle(0), S1, C0, remote_block, Op::Read);
    for i in 0..64u64 {
        let r = sys.access(Cycle(0), S0, C0, BlockAddr(0x1000 + i), Op::Read);
        for inv in r.invalidations {
            assert_eq!(inv.socket, S0, "DEV leaked across sockets");
        }
    }
    assert!(sys.stats.dev_invalidations > 0);
    assert!(sys.entry_of(S1, remote_block).is_some());
}

#[test]
fn code_blocks_shared_across_sockets() {
    let mut sys = System::new(small_cfg(4)).unwrap();
    let b = BlockAddr(0x140);
    for s in 0..4u8 {
        let r = sys.access(Cycle(0), SocketId(s), C0, b, Op::CodeRead);
        assert_eq!(r.grant, MesiState::Shared);
        assert!(r.downgrades.is_empty());
    }
    for s in 0..4u8 {
        assert!(sys.entry_of(SocketId(s), b).is_some());
    }
}
