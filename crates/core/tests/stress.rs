//! Randomised protocol stress: thousands of random reads/writes/evictions
//! on a tiny machine, driven through the audited [`ProtocolHarness`], whose
//! shadow cores are checked against the directory, LLC and home memory
//! after every operation. Shakes out entry-loss and tracking bugs that
//! directed tests miss.

use zerodev_common::config::{
    CacheGeometry, DirectoryKind, LlcDesign, LlcReplacement, Ratio, SpillPolicy, SystemConfig,
    ZeroDevConfig,
};
use zerodev_common::{BlockAddr, CoreId, MesiState, Prng, SocketId};
use zerodev_core::{EvictKind, Op, ProtocolEvent, ProtocolHarness};

/// One random operation by a random core on a random block of `blocks`.
fn step(h: &mut ProtocolHarness, rng: &mut Prng, blocks: &[BlockAddr]) {
    let socket = SocketId(rng.below(h.sockets() as u64) as u8);
    let core = CoreId(rng.below(h.cores() as u64) as u16);
    let block = blocks[rng.below(blocks.len() as u64) as usize];
    let st = h.shadow_state(socket, core, block);
    let access = |op| Some(ProtocolEvent::access(socket, core, block, op));
    let ev = match rng.below(10) {
        // Evict (if present)
        0..=1 if st.is_valid() => {
            EvictKind::for_state(st).map(|kind| ProtocolEvent::evict(socket, core, block, kind))
        }
        // Write
        2..=4 => match st {
            MesiState::Modified => None,
            MesiState::Exclusive => Some(ProtocolEvent::silent_write(socket, core, block)),
            MesiState::Shared => access(Op::Upgrade),
            MesiState::Invalid => access(Op::ReadExclusive),
        },
        // Read (and occasionally code read)
        _ if st.is_valid() => return,
        _ => access(if rng.chance(0.1) {
            Op::CodeRead
        } else {
            Op::Read
        }),
    };
    if let Some(ev) = ev {
        if let Err(v) = h.apply(ev) {
            panic!("{ev}: {v}");
        }
    }
    h.system().check_invariants();
}

fn tiny(
    policy: Option<SpillPolicy>,
    design: LlcDesign,
    dir: Option<DirectoryKind>,
) -> SystemConfig {
    let mut cfg = SystemConfig::baseline_8core();
    cfg.cores = 4;
    cfg.l1i = CacheGeometry::new(2 << 10, 2);
    cfg.l1d = CacheGeometry::new(2 << 10, 2);
    cfg.l2 = CacheGeometry::new(4 << 10, 4);
    cfg.llc = CacheGeometry::new(8 << 10, 4); // 128 lines: heavy pressure
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

fn stress(cfg: SystemConfig, steps: u64, seed: u64) {
    let mut rng = Prng::seeded(seed);
    // A small pool of blocks that heavily conflicts in the tiny LLC.
    let blocks: Vec<BlockAddr> = (0..96u64).map(|i| BlockAddr(0x1000 + i * 3)).collect();
    let mut h = ProtocolHarness::new(cfg, blocks.clone(), true).expect("valid");
    for _ in 0..steps {
        step(&mut h, &mut rng, &blocks);
    }
}

#[test]
fn stress_baseline() {
    stress(tiny(None, LlcDesign::NonInclusive, None), 6000, 1);
}

#[test]
fn stress_baseline_tiny_dir() {
    stress(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::Sparse {
                ratio: Ratio::new(1, 64),
                ways: 2,
            }),
        ),
        6000,
        2,
    );
}

#[test]
fn stress_zerodev_fpss() {
    stress(
        tiny(
            Some(SpillPolicy::FusePrivateSpillShared),
            LlcDesign::NonInclusive,
            None,
        ),
        8000,
        3,
    );
}

#[test]
fn stress_zerodev_spillall() {
    stress(
        tiny(Some(SpillPolicy::SpillAll), LlcDesign::NonInclusive, None),
        8000,
        4,
    );
}

#[test]
fn stress_zerodev_fuseall() {
    stress(
        tiny(Some(SpillPolicy::FuseAll), LlcDesign::NonInclusive, None),
        8000,
        5,
    );
}

#[test]
fn stress_zerodev_epd() {
    stress(
        tiny(
            Some(SpillPolicy::FusePrivateSpillShared),
            LlcDesign::Epd,
            Some(DirectoryKind::Sparse {
                ratio: Ratio::new(1, 8),
                ways: 4,
            }),
        ),
        8000,
        6,
    );
}

#[test]
fn stress_zerodev_inclusive() {
    stress(
        tiny(
            Some(SpillPolicy::FusePrivateSpillShared),
            LlcDesign::Inclusive,
            None,
        ),
        8000,
        7,
    );
}

#[test]
fn stress_secdir() {
    let geom = zerodev_common::config::SecDirGeometry {
        shared_sets: 2,
        shared_ways: 2,
        private_sets: 1,
        private_ways: 2,
    };
    stress(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::SecDir(geom)),
        ),
        6000,
        8,
    );
}

#[test]
fn stress_mgd() {
    stress(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::MultiGrain {
                ratio: Ratio::new(1, 16),
                ways: 2,
            }),
        ),
        6000,
        9,
    );
}

#[test]
fn stress_multisocket_zerodev() {
    let mut cfg = tiny(
        Some(SpillPolicy::FusePrivateSpillShared),
        LlcDesign::NonInclusive,
        None,
    );
    cfg.sockets = 2;
    stress(cfg, 8000, 10);
}

#[test]
fn stress_multisocket_baseline() {
    let mut cfg = tiny(None, LlcDesign::NonInclusive, None);
    cfg.sockets = 4;
    stress(cfg, 6000, 11);
}
