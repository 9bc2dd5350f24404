//! Machine-state checkpoint round-trips: drive a machine through random
//! traffic, serialize it with [`System::snap`], restore into a freshly
//! built machine, and require (a) a byte-identical re-serialization and
//! (b) byte-identical behaviour when both machines continue under the same
//! operation stream. Exercised across every directory family, the ZeroDEV
//! spill policies, multi-socket machines, and with the audit oracle
//! attached.

use zerodev_common::config::{
    CacheGeometry, DirectoryKind, LlcDesign, LlcReplacement, Ratio, SpillPolicy, SystemConfig,
    ZeroDevConfig,
};
use zerodev_common::snap::{SnapReader, SnapWriter};
use zerodev_common::{BlockAddr, CoreId, Cycle, MesiState, Prng, SocketId};
use zerodev_core::{system::Downgrade, EvictKind, InvalReason, Invalidation, Op, System};

const MAGIC: u64 = 0x7357_5eed_5eed_7357;
const VERSION: u32 = 1;

/// Minimal private-cache model so invalidations/downgrades are honoured the
/// way the protocol expects (dirty recalls reported back, etc.).
struct Model {
    sys: System,
    lines: std::collections::HashMap<(u8, u16, u64), MesiState>,
}

impl Model {
    fn new(sys: System) -> Self {
        Model {
            sys,
            lines: std::collections::HashMap::new(),
        }
    }

    fn state(&self, s: u8, c: u16, b: BlockAddr) -> MesiState {
        self.lines
            .get(&(s, c, b.0))
            .copied()
            .unwrap_or(MesiState::Invalid)
    }

    fn set(&mut self, s: u8, c: u16, b: BlockAddr, st: MesiState) {
        if st == MesiState::Invalid {
            self.lines.remove(&(s, c, b.0));
        } else {
            self.lines.insert((s, c, b.0), st);
        }
    }

    fn apply(&mut self, invals: Vec<Invalidation>, downs: Vec<Downgrade>) {
        for d in downs {
            if self.state(d.socket.0, d.core.0, d.block) == MesiState::Modified {
                self.sys.sharing_writeback(Cycle(0), d.socket, d.block);
            }
            self.set(d.socket.0, d.core.0, d.block, MesiState::Shared);
        }
        let mut pending = invals;
        while let Some(inv) = pending.pop() {
            if self.state(inv.socket.0, inv.core.0, inv.block) == MesiState::Modified {
                match inv.reason {
                    InvalReason::Dev => {
                        pending.extend(self.sys.dev_dirty_recall(Cycle(0), inv.socket, inv.block));
                    }
                    InvalReason::Inclusion => {
                        self.sys
                            .inclusion_dirty_writeback(Cycle(0), inv.socket, inv.block);
                    }
                    InvalReason::Coherence => {}
                }
            }
            self.set(inv.socket.0, inv.core.0, inv.block, MesiState::Invalid);
        }
    }

    fn step(&mut self, rng: &mut Prng, blocks: &[BlockAddr]) {
        let s = (rng.below(self.sys.config().sockets as u64)) as u8;
        let c = (rng.below(self.sys.config().cores as u64)) as u16;
        let b = blocks[rng.below(blocks.len() as u64) as usize];
        let st = self.state(s, c, b);
        match rng.below(10) {
            0..=1 if st.is_valid() => {
                let kind = match st {
                    MesiState::Modified => EvictKind::Dirty,
                    MesiState::Exclusive => EvictKind::CleanExclusive,
                    MesiState::Shared => EvictKind::CleanShared,
                    MesiState::Invalid => unreachable!(),
                };
                let invals = self.sys.evict(Cycle(0), SocketId(s), CoreId(c), b, kind);
                self.set(s, c, b, MesiState::Invalid);
                self.apply(invals, Vec::new());
            }
            2..=4 => match st {
                MesiState::Modified => {}
                MesiState::Exclusive => self.set(s, c, b, MesiState::Modified),
                MesiState::Shared => {
                    let r = self
                        .sys
                        .access(Cycle(0), SocketId(s), CoreId(c), b, Op::Upgrade);
                    self.apply(r.invalidations, r.downgrades);
                    self.set(s, c, b, MesiState::Modified);
                }
                MesiState::Invalid => {
                    let r = self
                        .sys
                        .access(Cycle(0), SocketId(s), CoreId(c), b, Op::ReadExclusive);
                    let grant = r.grant;
                    self.apply(r.invalidations, r.downgrades);
                    self.set(s, c, b, grant);
                }
            },
            _ => {
                if st.is_valid() {
                    return;
                }
                let r = self
                    .sys
                    .access(Cycle(0), SocketId(s), CoreId(c), b, Op::Read);
                let grant = r.grant;
                self.apply(r.invalidations, r.downgrades);
                self.set(s, c, b, grant);
            }
        }
    }
}

fn snap_bytes(sys: &System) -> Vec<u8> {
    let mut w = SnapWriter::new(MAGIC, VERSION);
    sys.snap(&mut w);
    w.finish()
}

fn restore(cfg: SystemConfig, bytes: &[u8]) -> System {
    let mut sys = System::new(cfg).expect("valid config");
    let mut r = SnapReader::open(bytes, MAGIC, VERSION).expect("container valid");
    sys.unsnap(&mut r).expect("restore succeeds");
    r.expect_end().expect("image fully consumed");
    sys
}

fn round_trip(cfg: SystemConfig, seed: u64) {
    let blocks: Vec<BlockAddr> = (0..96u64).map(|i| BlockAddr(0x1000 + i * 3)).collect();
    let mut rng = Prng::seeded(seed);
    let mut sys = System::new(cfg.clone()).expect("valid config");
    sys.enable_audit();
    let mut m = Model::new(sys);
    for _ in 0..2_500 {
        m.step(&mut rng, &blocks);
    }

    // Re-serializing a restored machine must reproduce the image exactly.
    let image = snap_bytes(&m.sys);
    let restored = restore(cfg, &image);
    assert!(restored.audit_enabled(), "audit flag restored");
    assert_eq!(
        image,
        snap_bytes(&restored),
        "restored machine re-serializes differently (seed {seed:#x})"
    );

    // And the restored machine must behave identically from here on.
    let mut rng2 = rng.clone();
    let mut m2 = Model {
        sys: restored,
        lines: m.lines.clone(),
    };
    for _ in 0..1_500 {
        m.step(&mut rng, &blocks);
        m2.step(&mut rng2, &blocks);
    }
    m.sys.audit_sweep();
    m2.sys.audit_sweep();
    assert_eq!(
        snap_bytes(&m.sys),
        snap_bytes(&m2.sys),
        "restored machine diverged after resume (seed {seed:#x})"
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
        replacement_disabled: false,
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
    let image = snap_bytes(&sys);
    let other = tiny(None, LlcDesign::NonInclusive, Some(sparse()), 2);
    let mut wrong = System::new(other).expect("valid config");
    let mut r = SnapReader::open(&image, MAGIC, VERSION).expect("container valid");
    assert!(wrong.unsnap(&mut r).is_err(), "fingerprint must not match");
}
