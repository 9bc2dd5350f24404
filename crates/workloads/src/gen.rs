//! Reference-stream generation from workload specs.

use crate::spec::{lookup, suites, WorkloadSpec};

use zerodev_common::rng::Zipf;
use zerodev_common::{BlockAddr, Prng};

/// One memory reference emitted by a thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemRef {
    /// The referenced block.
    pub block: BlockAddr,
    /// True for stores.
    pub write: bool,
    /// True for instruction fetches (filled in S state by the protocol).
    pub code: bool,
    /// Non-memory instructions preceding this reference (1 cycle each).
    pub gap: u32,
}

/// How a workload's performance is summarised.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    /// One parallel program: speedup = completion-time ratio.
    MultiThreaded,
    /// Independent programs: weighted speedup over per-core IPCs.
    MultiProgrammed,
}

/// Region spacing in blocks (64 MB of address space per region slot keeps
/// every region disjoint while exercising all banks/sets uniformly).
const REGION_STRIDE: u64 = 1 << 20;

#[derive(Clone, Copy, Debug)]
struct Bases {
    code: u64,
    sro: u64,
    srw: u64,
    private: u64,
}

/// The per-thread reference generator: either synthetic (spec-driven) or a
/// recorded-trace replay (wrapping around at the end).
#[derive(Clone, Debug)]
pub struct ThreadGen {
    spec: WorkloadSpec,
    bases: Bases,
    rng: Prng,
    z_priv: Zipf,
    z_sro: Option<Zipf>,
    z_srw: Option<Zipf>,
    z_code: Option<Zipf>,
    walk: u64,
    /// Torture references drawn so far (drives phase/rotation schedules).
    tstep: u64,
    /// `(index, count)` position among the workload's threads; torture
    /// patterns use it to assign roles (writer lane, rotation offset).
    lane: (u32, u32),
    replay: Option<(Vec<MemRef>, usize)>,
}

/// Zipf samplers memoized by `(n, θ)` while one workload is built. A
/// sampler's setup sums up to 10,000 powers; threads running the same spec
/// clone one sampler instead of each recomputing it.
#[derive(Default)]
struct Samplers(Vec<((u64, u64), Zipf)>);

impl Samplers {
    fn zipf(&mut self, n: u64, theta: f64) -> Zipf {
        let key = (n, theta.to_bits());
        if let Some((_, z)) = self.0.iter().find(|(k, _)| *k == key) {
            return z.clone();
        }
        let z = Zipf::new(n, theta);
        self.0.push((key, z.clone()));
        z
    }
}

impl ThreadGen {
    fn new(spec: WorkloadSpec, bases: Bases, rng: Prng, zs: &mut Samplers) -> Self {
        ThreadGen {
            spec,
            bases,
            rng,
            z_priv: zs.zipf(spec.priv_blocks.max(1), spec.priv_theta),
            z_sro: (spec.sro_blocks > 0).then(|| zs.zipf(spec.sro_blocks, 0.4)),
            z_srw: (spec.srw_blocks > 0).then(|| zs.zipf(spec.srw_blocks, 0.3)),
            z_code: (spec.code_blocks > 0).then(|| zs.zipf(spec.code_blocks, 0.4)),
            walk: 0,
            tstep: 0,
            lane: (0, 1),
            replay: None,
        }
    }

    fn with_lane(mut self, index: usize, count: usize) -> Self {
        self.lane = (index as u32, count.max(1) as u32);
        self
    }

    /// A generator that replays a recorded reference sequence, wrapping
    /// around at the end.
    ///
    /// # Panics
    /// Panics when `refs` is empty.
    pub fn replaying(refs: Vec<MemRef>) -> Self {
        assert!(!refs.is_empty(), "replay needs at least one reference");
        let mut g = ThreadGen::new(
            WorkloadSpec::trace_default(),
            Bases {
                code: 0,
                sro: 0,
                srw: 0,
                private: 0,
            },
            Prng::seeded(0),
            &mut Samplers::default(),
        );
        g.replay = Some((refs, 0));
        g
    }

    /// The spec driving this thread.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Draws the next memory reference.
    pub fn next_ref(&mut self) -> MemRef {
        if let Some((refs, pos)) = &mut self.replay {
            let r = refs[*pos];
            *pos = (*pos + 1) % refs.len();
            return r;
        }
        if let Some(kind) = self.spec.torture {
            let step = self.tstep;
            self.tstep += 1;
            return crate::torture::draw(
                kind,
                &self.spec,
                &mut self.rng,
                &mut self.walk,
                step,
                self.lane,
                self.bases.srw,
                self.bases.private,
            );
        }
        let gap = self.rng.below(u64::from(2 * self.spec.mean_gap) + 1) as u32;
        let r = self.rng.unit_f64();
        let s = &self.spec;
        if r < s.p_code {
            if let Some(z) = &self.z_code {
                return MemRef {
                    block: BlockAddr(self.bases.code + z.sample(&mut self.rng)),
                    write: false,
                    code: true,
                    gap,
                };
            }
        } else if r < s.p_code + s.p_sro {
            if let Some(z) = &self.z_sro {
                return MemRef {
                    block: BlockAddr(self.bases.sro + z.sample(&mut self.rng)),
                    write: false,
                    code: false,
                    gap,
                };
            }
        } else if r < s.p_code + s.p_sro + s.p_srw {
            if let Some(z) = &self.z_srw {
                let write = self.rng.chance(s.wr_srw);
                return MemRef {
                    block: BlockAddr(self.bases.srw + z.sample(&mut self.rng)),
                    write,
                    code: false,
                    gap,
                };
            }
        }
        let write = self.rng.chance(s.wr_priv);
        // Two-level private locality: most references stay in an L1-sized
        // hot subset; the rest wander the full (Zipf-skewed) footprint.
        let offset = if self.rng.chance(s.p_hot) {
            self.rng.below(s.hot_blocks.max(1))
        } else if self.rng.chance(s.p_seq) {
            // Sequential streaming walk over the full footprint.
            self.walk = (self.walk + 1) % s.priv_blocks.max(1);
            self.walk
        } else {
            self.z_priv.sample(&mut self.rng)
        };
        MemRef {
            block: BlockAddr(self.bases.private + offset),
            write,
            code: false,
            gap,
        }
    }
}

/// A complete workload: one generator per hardware thread/core.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name (application or mix name).
    pub name: String,
    /// Performance-summary kind.
    pub kind: WorkloadKind,
    /// One generator per core, in core order.
    pub threads: Vec<ThreadGen>,
}

impl Workload {
    /// Builds a workload that replays recorded per-thread traces.
    ///
    /// # Panics
    /// Panics when `traces` is empty or any thread's sequence is empty.
    pub fn from_traces(name: &str, kind: WorkloadKind, traces: Vec<Vec<MemRef>>) -> Self {
        assert!(!traces.is_empty(), "need at least one thread");
        Workload {
            name: name.to_string(),
            kind,
            threads: traces.into_iter().map(ThreadGen::replaying).collect(),
        }
    }
}

/// A bump allocator for disjoint region bases.
///
/// Region starts are *staggered* by a per-region pseudo-random offset:
/// bases that are all multiples of a large power of two would alias every
/// region onto the same directory/LLC sets, fabricating conflicts that real
/// (page-scattered) physical allocations do not have.
struct Alloc {
    next: u64,
    count: u64,
}

impl Alloc {
    fn new() -> Self {
        Alloc {
            next: REGION_STRIDE, // keep block 0 free
            count: 0,
        }
    }
    fn region(&mut self, blocks: u64) -> u64 {
        let stagger = self.count.wrapping_mul(0x2545_f491_4f6c_dd1d) % (REGION_STRIDE / 2);
        self.count += 1;
        // Reserve the stagger headroom plus the footprint.
        let slots = (blocks + REGION_STRIDE / 2).div_ceil(REGION_STRIDE).max(1);
        let base = self.next + stagger;
        self.next += slots * REGION_STRIDE;
        base
    }
}

/// Builds a multi-threaded workload: all threads share the code and shared
/// regions; each thread gets its own private region.
///
/// Returns `None` for unknown application names.
pub fn multithreaded(name: &str, threads: usize, seed: u64) -> Option<Workload> {
    let spec = lookup(name)?;
    let mut alloc = Alloc::new();
    let code = alloc.region(spec.code_blocks);
    let sro = alloc.region(spec.sro_blocks);
    let srw = alloc.region(spec.srw_blocks);
    let mut rng = Prng::seeded(seed ^ hash_name(name));
    let mut zs = Samplers::default();
    let gens = (0..threads)
        .map(|t| {
            let private = alloc.region(spec.priv_blocks);
            ThreadGen::new(
                spec,
                Bases {
                    code,
                    sro,
                    srw,
                    private,
                },
                rng.fork(),
                &mut zs,
            )
            .with_lane(t, threads)
        })
        .collect();
    Some(Workload {
        name: name.to_string(),
        kind: WorkloadKind::MultiThreaded,
        threads: gens,
    })
}

/// Builds a homogeneous (rate) multi-programmed workload: `copies`
/// independent copies of one application. Code pages are shared across the
/// copies (same binary), which is what puts the paper's ≈9 % of CPU2017
/// directory entries in shared state.
pub fn rate(app: &str, copies: usize, seed: u64) -> Option<Workload> {
    let spec = lookup(app)?;
    let mut alloc = Alloc::new();
    let code = alloc.region(spec.code_blocks);
    let mut rng = Prng::seeded(seed ^ hash_name(app) ^ 0x5ce0_11ab);
    let mut zs = Samplers::default();
    let gens = (0..copies)
        .map(|t| {
            let sro = alloc.region(spec.sro_blocks);
            let srw = alloc.region(spec.srw_blocks);
            let private = alloc.region(spec.priv_blocks);
            ThreadGen::new(
                spec,
                Bases {
                    code,
                    sro,
                    srw,
                    private,
                },
                rng.fork(),
                &mut zs,
            )
            .with_lane(t, copies)
        })
        .collect();
    Some(Workload {
        name: format!("{app}.rate{copies}"),
        kind: WorkloadKind::MultiProgrammed,
        threads: gens,
    })
}

/// Builds heterogeneous multi-programmed mix `index` (0-based; the paper's
/// W1–W36) over `cores` cores. Applications are assigned round-robin from
/// the CPU2017 list so every application appears equally often across the
/// 36 mixes.
pub fn hetero_mix(index: usize, cores: usize, seed: u64) -> Workload {
    let apps = suites::CPU2017;
    let mut alloc = Alloc::new();
    let mut rng = Prng::seeded(seed ^ (index as u64).wrapping_mul(0x9e37_79b9));
    let mut zs = Samplers::default();
    let gens = (0..cores)
        .map(|j| {
            let app = apps[(index * cores + j) % apps.len()];
            let spec = lookup(app).expect("CPU2017 app listed");
            let code = alloc.region(spec.code_blocks);
            let sro = alloc.region(spec.sro_blocks);
            let srw = alloc.region(spec.srw_blocks);
            let private = alloc.region(spec.priv_blocks);
            ThreadGen::new(
                spec,
                Bases {
                    code,
                    sro,
                    srw,
                    private,
                },
                rng.fork(),
                &mut zs,
            )
            .with_lane(j, cores)
        })
        .collect();
    Workload {
        name: format!("W{}", index + 1),
        kind: WorkloadKind::MultiProgrammed,
        threads: gens,
    }
}

/// Builds a server workload over `threads` hardware threads (the paper
/// replays these on 128 cores).
pub fn server(name: &str, threads: usize, seed: u64) -> Option<Workload> {
    let mut wl = multithreaded(name, threads, seed)?;
    wl.kind = WorkloadKind::MultiThreaded;
    Some(wl)
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_streams() {
        let mut a = multithreaded("vips", 8, 7).unwrap();
        let mut b = multithreaded("vips", 8, 7).unwrap();
        for t in 0..8 {
            for _ in 0..100 {
                assert_eq!(a.threads[t].next_ref(), b.threads[t].next_ref());
            }
        }
        let mut c = multithreaded("vips", 8, 8).unwrap();
        let refs_a: Vec<MemRef> = (0..50).map(|_| a.threads[0].next_ref()).collect();
        let refs_c: Vec<MemRef> = (0..50).map(|_| c.threads[0].next_ref()).collect();
        assert_ne!(refs_a, refs_c, "different seeds differ");
    }

    #[test]
    fn private_regions_are_disjoint() {
        let mut wl = multithreaded("ferret", 4, 1).unwrap();
        let mut per_thread: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        for (t, set) in per_thread.iter_mut().enumerate() {
            for _ in 0..2000 {
                let r = wl.threads[t].next_ref();
                if !r.code {
                    set.insert(r.block.0);
                }
            }
        }
        // Shared regions overlap, private regions do not; verify that the
        // *private* tails (above the shared bases) are disjoint by checking
        // blocks unique to one thread exist for every thread.
        for t in 0..4 {
            let others: HashSet<u64> = per_thread
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != t)
                .flat_map(|(_, s)| s.iter().copied())
                .collect();
            let unique = per_thread[t].difference(&others).count();
            assert!(unique > 0, "thread {t} has no private blocks");
        }
    }

    #[test]
    fn threads_share_code_and_shared_regions() {
        let mut wl = multithreaded("streamcluster", 4, 3).unwrap();
        let mut sets: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        for (t, set) in sets.iter_mut().enumerate() {
            for _ in 0..5000 {
                let r = wl.threads[t].next_ref();
                set.insert(r.block.0);
            }
        }
        let common: HashSet<u64> = sets[0]
            .iter()
            .filter(|b| sets[1..].iter().all(|s| s.contains(*b)))
            .copied()
            .collect();
        assert!(!common.is_empty(), "no shared blocks across threads");
    }

    #[test]
    fn rate_copies_share_only_code() {
        let mut wl = rate("xalancbmk", 4, 5).unwrap();
        assert_eq!(wl.kind, WorkloadKind::MultiProgrammed);
        let mut code: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        let mut data: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        for t in 0..4 {
            for _ in 0..5000 {
                let r = wl.threads[t].next_ref();
                if r.code {
                    code[t].insert(r.block.0);
                } else {
                    data[t].insert(r.block.0);
                }
            }
        }
        // Code overlaps.
        assert!(code[0].intersection(&code[1]).count() > 0);
        // Data never overlaps.
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(data[i].intersection(&data[j]).count(), 0);
                }
            }
        }
    }

    #[test]
    fn code_refs_are_reads() {
        let mut wl = multithreaded("blackscholes", 2, 1).unwrap();
        for _ in 0..5000 {
            let r = wl.threads[0].next_ref();
            if r.code {
                assert!(!r.write, "code fetch marked as write");
            }
        }
    }

    #[test]
    fn write_fraction_tracks_spec() {
        let mut wl = rate("lbm", 1, 9).unwrap();
        let spec = *wl.threads[0].spec();
        let mut writes = 0;
        let n = 20_000;
        for _ in 0..n {
            if wl.threads[0].next_ref().write {
                writes += 1;
            }
        }
        let frac = f64::from(writes) / f64::from(n);
        assert!(
            (frac - spec.wr_priv * (1.0 - spec.p_code)).abs() < 0.05,
            "write fraction {frac} vs spec {}",
            spec.wr_priv
        );
    }

    #[test]
    fn hetero_mixes_balanced() {
        // Every CPU2017 app appears exactly 8 times across the 36 mixes.
        let mut counts = std::collections::HashMap::new();
        for i in 0..36 {
            let wl = hetero_mix(i, 8, 1);
            assert_eq!(wl.name, format!("W{}", i + 1));
            for t in &wl.threads {
                *counts.entry(t.spec().name).or_insert(0u32) += 1;
            }
        }
        assert_eq!(counts.len(), 36);
        for (app, n) in counts {
            assert_eq!(n, 8, "{app} appears {n} times");
        }
    }

    #[test]
    fn server_workload_scales_to_128() {
        let wl = server("TPC-C", 128, 2).unwrap();
        assert_eq!(wl.threads.len(), 128);
    }

    #[test]
    fn unknown_app_returns_none() {
        assert!(multithreaded("nope", 8, 1).is_none());
        assert!(rate("nope", 8, 1).is_none());
        assert!(server("nope", 8, 1).is_none());
    }

    #[test]
    fn footprint_matches_spec_order_of_magnitude() {
        let mut wl = multithreaded("swaptions", 1, 4).unwrap();
        let mut blocks = HashSet::new();
        for _ in 0..50_000 {
            blocks.insert(wl.threads[0].next_ref().block.0);
        }
        let spec = wl.threads[0].spec();
        let cap = spec.priv_blocks + spec.code_blocks + spec.sro_blocks + spec.srw_blocks;
        assert!(blocks.len() as u64 <= cap);
        assert!(blocks.len() as u64 > cap / 4, "footprint too small");
    }
}
