//! Machine-image round-trips: drive an audited
//! [`ProtocolHarness`] through random traffic, image it with
//! [`ProtocolHarness::snap`], restore the image into a freshly built
//! harness, and require (a) a byte-identical re-serialization and (b)
//! byte-identical behaviour when both harnesses continue under the same
//! operation stream. Exercised across every directory family, the ZeroDEV
//! spill policies, multi-socket machines, and with the audit oracle
//! attached.

use zerodev_common::config::{
    CacheGeometry, DirectoryKind, LlcDesign, LlcReplacement, Ratio, SpillPolicy, SystemConfig,
    ZeroDevConfig,
};
use zerodev_common::snap::{SnapReader, SnapWriter};
use zerodev_common::{BlockAddr, CoreId, MesiState, Prng, SocketId};
use zerodev_core::{EvictKind, Op, ProtocolEvent, ProtocolHarness, System};

/// One random operation by a random core on a random block of `blocks`:
/// evict a held copy, write (silently, by upgrade, or by read-exclusive),
/// or read a block the core does not hold.
fn step(h: &mut ProtocolHarness, rng: &mut Prng, blocks: &[BlockAddr]) {
    let socket = SocketId(rng.below(h.sockets() as u64) as u8);
    let core = CoreId(rng.below(h.cores() as u64) as u16);
    let block = blocks[rng.below(blocks.len() as u64) as usize];
    let st = h.shadow_state(socket, core, block);
    let access = |op| Some(ProtocolEvent::access(socket, core, block, op));
    let ev = match rng.below(10) {
        0..=1 if st.is_valid() => {
            EvictKind::for_state(st).map(|kind| ProtocolEvent::evict(socket, core, block, kind))
        }
        2..=4 => match st {
            MesiState::Modified => None,
            MesiState::Exclusive => Some(ProtocolEvent::silent_write(socket, core, block)),
            MesiState::Shared => access(Op::Upgrade),
            MesiState::Invalid => access(Op::ReadExclusive),
        },
        _ if st.is_valid() => None,
        _ => access(Op::Read),
    };
    if let Some(ev) = ev {
        if let Err(v) = h.apply(ev) {
            panic!("{ev}: {v}");
        }
    }
}

fn snap_bytes(h: &ProtocolHarness) -> Vec<u8> {
    let mut w = SnapWriter::image();
    h.snap(&mut w);
    w.as_bytes().to_vec()
}

fn snap_system(sys: &System) -> Vec<u8> {
    let mut w = SnapWriter::image();
    sys.snap(&mut w);
    w.as_bytes().to_vec()
}

/// A fresh harness built without the oracle, restored from `bytes`.
fn restore(cfg: SystemConfig, blocks: Vec<BlockAddr>, bytes: &[u8]) -> ProtocolHarness {
    let mut h = ProtocolHarness::new(cfg, blocks, false).expect("valid config");
    let mut r = SnapReader::image(bytes);
    h.unsnap(&mut r).expect("restore succeeds");
    r.expect_end().expect("image fully consumed");
    h
}

fn round_trip(cfg: SystemConfig, seed: u64) {
    let blocks: Vec<BlockAddr> = (0..96u64).map(|i| BlockAddr(0x1000 + i * 3)).collect();
    let mut rng = Prng::seeded(seed);
    let mut h = ProtocolHarness::new(cfg.clone(), blocks.clone(), true).expect("valid config");
    for _ in 0..2_500 {
        step(&mut h, &mut rng, &blocks);
    }

    // Re-serializing a restored harness must reproduce the image exactly.
    let image = snap_bytes(&h);
    let mut h2 = restore(cfg, blocks.clone(), &image);
    assert!(h2.system().audit_enabled(), "audit flag restored");
    assert_eq!(
        image,
        snap_bytes(&h2),
        "restored harness re-serializes differently (seed {seed:#x})"
    );

    // And the restored harness must behave identically from here on.
    let mut rng2 = rng.clone();
    for _ in 0..1_500 {
        step(&mut h, &mut rng, &blocks);
        step(&mut h2, &mut rng2, &blocks);
    }
    h.system().audit_sweep();
    h2.system().audit_sweep();
    assert_eq!(
        snap_bytes(&h),
        snap_bytes(&h2),
        "restored harness diverged after resume (seed {seed:#x})"
    );
}

fn tiny(
    policy: Option<SpillPolicy>,
    design: LlcDesign,
    dir: Option<DirectoryKind>,
    sockets: usize,
) -> SystemConfig {
    let mut cfg = SystemConfig::baseline_8core();
    cfg.cores = 4;
    cfg.sockets = sockets;
    cfg.l1i = CacheGeometry::new(2 << 10, 2);
    cfg.l1d = CacheGeometry::new(2 << 10, 2);
    cfg.l2 = CacheGeometry::new(4 << 10, 4);
    cfg.llc = CacheGeometry::new(8 << 10, 4);
    cfg.llc_banks = 2;
    cfg.llc_design = design;
    if let Some(p) = policy {
        cfg = cfg.with_zerodev(
            ZeroDevConfig {
                policy: p,
                llc_replacement: LlcReplacement::DataLru,
            },
            dir.unwrap_or(DirectoryKind::None),
        );
    } else if let Some(d) = dir {
        cfg.directory = d;
    }
    cfg
}

fn sparse() -> DirectoryKind {
    DirectoryKind::Sparse {
        ratio: Ratio::new(1, 64),
        ways: 2,
    }
}

#[test]
fn round_trip_baseline_sparse() {
    round_trip(tiny(None, LlcDesign::NonInclusive, Some(sparse()), 1), 0x51);
}

#[test]
fn round_trip_baseline_unbounded() {
    round_trip(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::Unbounded),
            1,
        ),
        0x52,
    );
}

#[test]
fn round_trip_secdir() {
    round_trip(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::SecDir(
                zerodev_core::DirStore::secdir_geometry(4, true),
            )),
            1,
        ),
        0x53,
    );
}

#[test]
fn round_trip_multigrain() {
    round_trip(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::MultiGrain {
                ratio: Ratio::new(1, 64),
                ways: 2,
            }),
            1,
        ),
        0x54,
    );
}

#[test]
fn round_trip_zerodev_fpss() {
    round_trip(
        tiny(
            Some(SpillPolicy::FusePrivateSpillShared),
            LlcDesign::NonInclusive,
            None,
            1,
        ),
        0x55,
    );
}

#[test]
fn round_trip_zerodev_multisocket() {
    round_trip(
        tiny(
            Some(SpillPolicy::FusePrivateSpillShared),
            LlcDesign::NonInclusive,
            None,
            2,
        ),
        0x56,
    );
}

#[test]
fn fingerprint_mismatch_is_rejected() {
    let cfg = tiny(None, LlcDesign::NonInclusive, Some(sparse()), 1);
    let sys = System::new(cfg).expect("valid config");
    let image = snap_system(&sys);
    let other = tiny(None, LlcDesign::NonInclusive, Some(sparse()), 2);
    let mut wrong = System::new(other).expect("valid config");
    let mut r = SnapReader::image(&image);
    assert!(wrong.unsnap(&mut r).is_err(), "fingerprint must not match");
}
