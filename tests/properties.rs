//! Randomised-but-deterministic property tests over the core data
//! structures and the protocol's headline invariants. Stimulus comes from
//! the repo's own `Prng` (fixed seed sweeps), so the suite needs no
//! external crates and every failure reproduces exactly.

use zerodev::cache::{Replacement, SetAssoc};
use zerodev::common::ids::SharerSet;
use zerodev::common::rng::Zipf;
use zerodev::common::table::geomean;
use zerodev::common::Prng;
use zerodev::core::{ProtocolEvent, ProtocolHarness};
use zerodev::prelude::*;

// ---------------------------------------------------------------------
// SetAssoc against a reference LRU model
// ---------------------------------------------------------------------

/// A straightforward reference LRU cache.
struct RefLru {
    sets: usize,
    ways: usize,
    // per set: (key, value), MRU first
    data: Vec<Vec<(u64, u32)>>,
}

impl RefLru {
    fn new(sets: usize, ways: usize) -> Self {
        RefLru {
            sets,
            ways,
            data: vec![Vec::new(); sets],
        }
    }
    fn set_of(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize
    }
    fn touch(&mut self, key: u64) -> Option<u32> {
        let s = self.set_of(key);
        let pos = self.data[s].iter().position(|(k, _)| *k == key)?;
        let e = self.data[s].remove(pos);
        let v = e.1;
        self.data[s].insert(0, e);
        Some(v)
    }
    fn insert(&mut self, key: u64, val: u32) -> Option<(u64, u32)> {
        let s = self.set_of(key);
        if let Some(pos) = self.data[s].iter().position(|(k, _)| *k == key) {
            self.data[s].remove(pos);
            self.data[s].insert(0, (key, val));
            return None;
        }
        let victim = if self.data[s].len() == self.ways {
            self.data[s].pop()
        } else {
            None
        };
        self.data[s].insert(0, (key, val));
        victim
    }
    fn remove(&mut self, key: u64) -> Option<u32> {
        let s = self.set_of(key);
        let pos = self.data[s].iter().position(|(k, _)| *k == key)?;
        Some(self.data[s].remove(pos).1)
    }
}

#[derive(Debug, Clone)]
enum CacheOp {
    Touch(u64),
    Insert(u64, u32),
    Remove(u64),
}

fn random_op(rng: &mut Prng) -> CacheOp {
    match rng.below(3) {
        0 => CacheOp::Touch(rng.below(64)),
        1 => CacheOp::Insert(rng.below(64), rng.next_u64() as u32),
        _ => CacheOp::Remove(rng.below(64)),
    }
}

#[test]
fn setassoc_matches_reference_lru() {
    for seed in 0..32u64 {
        let mut rng = Prng::seeded(0x1e57_0001 ^ seed);
        let ops = 1 + rng.below(299);
        let mut c: SetAssoc<u32> = SetAssoc::new(4, 3, Replacement::Lru);
        let mut r = RefLru::new(4, 3);
        for _ in 0..ops {
            match random_op(&mut rng) {
                CacheOp::Touch(k) => {
                    let a = c.touch(k, |_| true).map(|i| *c.at(i));
                    let b = r.touch(k);
                    assert_eq!(a, b, "seed {seed}");
                }
                CacheOp::Insert(k, v) => {
                    // SetAssoc::insert always inserts a NEW line; emulate the
                    // update-in-place convention of the reference by removing
                    // first when present.
                    if c.peek(k, |_| true).is_some() {
                        let _ = c.remove(k, |_| true);
                        let _ = r.remove(k);
                    }
                    let a = c.insert(k, v, |_| false).1;
                    let b = r.insert(k, v);
                    assert_eq!(a, b, "seed {seed}");
                }
                CacheOp::Remove(k) => {
                    let a = c.remove(k, |_| true).map(|(_, v)| v);
                    let b = r.remove(k);
                    assert_eq!(a, b, "seed {seed}");
                }
            }
            assert_eq!(c.len(), r.data.iter().map(Vec::len).sum::<usize>());
        }
    }
}

#[test]
fn setassoc_no_duplicate_unique_keys() {
    for seed in 0..32u64 {
        let mut rng = Prng::seeded(0x1e57_0002 ^ seed);
        let ops = 1 + rng.below(199);
        let mut c: SetAssoc<u32> = SetAssoc::new(8, 2, Replacement::Nru);
        for _ in 0..ops {
            match random_op(&mut rng) {
                CacheOp::Touch(k) => {
                    let _ = c.touch(k, |_| true);
                }
                CacheOp::Insert(k, v) => {
                    if c.peek(k, |_| true).is_none() {
                        let _ = c.insert(k, v, |_| false);
                    }
                }
                CacheOp::Remove(k) => {
                    let _ = c.remove(k, |_| true);
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        for (k, _, _) in c.iter() {
            assert!(seen.insert(k), "duplicate key {k} in array (seed {seed})");
        }
    }
}

#[test]
fn protected_lines_survive_any_pressure() {
    // One protected line per set must never be evicted while any
    // unprotected line exists in the set (the dataLRU guarantee).
    for seed in 0..16u64 {
        let mut rng = Prng::seeded(0x1e57_0003 ^ seed);
        let nkeys = 1 + rng.below(199);
        let mut c: SetAssoc<bool> = SetAssoc::new(4, 4, Replacement::Lru);
        for s in 0..4u64 {
            let _ = c.insert(s, true, |_| false); // protected marker lines
        }
        for _ in 0..nkeys {
            let k = rng.below(256);
            let key = 4 + k * 4 + (k % 4); // spread over sets, never key<4
            if c.peek(key, |_| true).is_none() {
                if let (_, Some((_vk, vline))) = c.insert(key, false, |v| *v) {
                    assert!(
                        !vline,
                        "protected line evicted under pressure (seed {seed})"
                    );
                }
            }
        }
        for s in 0..4u64 {
            assert_eq!(c.peek(s, |_| true).map(|i| *c.at(i)), Some(true));
        }
    }
}

// ---------------------------------------------------------------------
// SharerSet against a HashSet reference
// ---------------------------------------------------------------------

#[test]
fn sharer_set_matches_hashset() {
    for seed in 0..32u64 {
        let mut rng = Prng::seeded(0x1e57_0004 ^ seed);
        let ops = rng.below(200);
        let mut s = SharerSet::default();
        let mut r = std::collections::HashSet::new();
        for _ in 0..ops {
            let core = rng.below(128) as u16;
            if rng.chance(0.5) {
                s.insert(CoreId(core));
                r.insert(core);
            } else {
                s.remove(CoreId(core));
                r.remove(&core);
            }
            assert_eq!(s.count() as usize, r.len());
        }
        let collected: Vec<u16> = s.iter().map(|c| c.0).collect();
        let mut expected: Vec<u16> = r.into_iter().collect();
        expected.sort_unstable();
        assert_eq!(collected, expected, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// RNG / math helpers
// ---------------------------------------------------------------------

#[test]
fn zipf_samples_in_range() {
    for seed in 0..24u64 {
        let mut rng = Prng::seeded(0x1e57_0005 ^ seed);
        let n = 1 + rng.below(99_999);
        let theta = rng.unit_f64() * 0.99;
        let z = Zipf::new(n, theta);
        for _ in 0..64 {
            assert!(z.sample(&mut rng) < n, "seed {seed} n {n} theta {theta}");
        }
    }
}

#[test]
fn geomean_between_min_and_max() {
    for seed in 0..32u64 {
        let mut rng = Prng::seeded(0x1e57_0006 ^ seed);
        let len = 1 + rng.below(19) as usize;
        let values: Vec<f64> = (0..len).map(|_| 0.01 + rng.unit_f64() * 99.99).collect();
        let g = geomean(&values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(0.0f64, f64::max);
        assert!(g >= min * 0.999 && g <= max * 1.001, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Protocol invariants under random stimulus
// ---------------------------------------------------------------------

#[test]
fn zerodev_never_devs_under_random_traffic() {
    for seed in 0..12u64 {
        let policy = [
            SpillPolicy::SpillAll,
            SpillPolicy::FusePrivateSpillShared,
            SpillPolicy::FuseAll,
        ][(seed % 3) as usize];
        let mut rng = Prng::seeded(0x1e57_0007 ^ seed);
        let ops = 200 + rng.below(400);
        let mut cfg = SystemConfig::baseline_8core();
        cfg.cores = 4;
        cfg.l1i = zerodev::common::config::CacheGeometry::new(2 << 10, 2);
        cfg.l1d = zerodev::common::config::CacheGeometry::new(2 << 10, 2);
        cfg.l2 = zerodev::common::config::CacheGeometry::new(4 << 10, 4);
        cfg.llc = zerodev::common::config::CacheGeometry::new(16 << 10, 4);
        cfg.llc_banks = 2;
        let cfg = cfg.with_zerodev(
            ZeroDevConfig {
                policy,
                llc_replacement: LlcReplacement::DataLru,
            },
            DirectoryKind::None,
        );
        let blocks: Vec<BlockAddr> = (0..48).map(|k| BlockAddr(0x100 + k * 5)).collect();
        let mut h = ProtocolHarness::new(cfg, blocks, true).unwrap();
        for _ in 0..ops {
            let socket = SocketId(0);
            let core = CoreId(rng.below(4) as u16);
            let block = BlockAddr(0x100 + rng.below(48) * 5);
            let st = h.shadow_state(socket, core, block);
            let access = |op| Some(ProtocolEvent::access(socket, core, block, op));
            let ev = match (st, rng.below(3)) {
                (MesiState::Invalid, 0) => access(Op::ReadExclusive),
                (MesiState::Invalid, _) => access(Op::Read),
                (MesiState::Shared, 0) => access(Op::Upgrade),
                (s2, 1) => EvictKind::for_state(s2)
                    .map(|kind| ProtocolEvent::evict(socket, core, block, kind)),
                _ => None,
            };
            if let Some(ev) = ev {
                if let Err(v) = h.apply(ev) {
                    panic!("{policy:?} (seed {seed}): {ev}: {v}");
                }
            }
            assert_eq!(
                h.system().stats.dev_invalidations,
                0,
                "{policy:?} produced a DEV (seed {seed})"
            );
        }
        h.system().check_invariants();
    }
}
