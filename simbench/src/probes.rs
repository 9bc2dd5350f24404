//! Isolated layer probes: each layer's public functions timed from outside
//! the simulator, fed with the workload's own machine geometry and block
//! stream; the model checker's per-state operations; and the three ratios
//! of the traced run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use zerodev_cache::{Replacement, SetAssoc};
use zerodev_common::config::LlcReplacement;
use zerodev_common::{BlockAddr, CoreId, Cycle, FlatMap, MesiState, MsgClass};
use zerodev_core::{DirEntry, DirStore, LlcBank, ProtocolHarness};
use zerodev_dram::DramModel;
use zerodev_model::state::canonical_key;
use zerodev_model::{explore, Limits};
use zerodev_noc::SocketTopology;
use zerodev_sim::parallel::{Engine, RunJob};
use zerodev_sim::runner::RunParams;
use zerodev_sim::Simulation;
use zerodev_workloads::{MemRef, Trace};

use crate::metrics::{MODEL_PROBES, PROBES};
use crate::run::{fingerprint, isolate};
use crate::suite::{probe_machine, Point};

/// References recorded per point for the probes, and how many times each
/// probe walks them.
const STREAM_REFS: usize = 1 << 15;
const PASSES: usize = 4;

/// Nanoseconds since `t`, paired with the `ops` operations they covered.
fn ns_per(t: Instant, ops: usize) -> (f64, usize) {
    (t.elapsed().as_secs_f64() * 1e9, ops)
}

/// The workload's references interleaved round-robin across threads, as
/// the warm-up issues them: `(thread, reference)`.
fn stream(p: &Point, seed: u64) -> Vec<(usize, MemRef)> {
    let mut wl = p.workload(seed);
    let threads = wl.threads.len();
    let trace = Trace::record(&mut wl, (STREAM_REFS / threads).max(1));
    let per = trace.threads[0].len();
    (0..per)
        .flat_map(|i| (0..threads).map(move |t| (t, i)))
        .map(|(t, i)| (t, trace.threads[t][i]))
        .collect()
}

/// Times every probe in [`PROBES`] over every point; each value is the
/// total time over the total operations of all points.
pub fn layer_probes(points: &[Point], seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let mut acc = [(0.0f64, 0usize); PROBES.len()];
    for p in points {
        let timed = isolate(&format!("{} probes", p.label), || Ok(probe_point(p, seed)))?;
        for (a, (ns, ops)) in acc.iter_mut().zip(timed) {
            a.0 += ns;
            a.1 += ops;
        }
    }
    Ok(PROBES
        .iter()
        .zip(acc)
        .map(|(name, (ns, ops))| (*name, ns / ops.max(1) as f64))
        .collect())
}

/// One point's probes, in [`PROBES`] order, as `(total ns, ops)`.
fn probe_point(p: &Point, seed: u64) -> Vec<(f64, usize)> {
    let cfg = &p.cfg;
    let refs = stream(p, seed);
    let n = refs.len() * PASSES;
    let walk = || (0..PASSES).flat_map(|_| refs.iter());
    let mut out = Vec::with_capacity(PROBES.len());

    // workloads: drain the generators round-robin.
    let mut wl = p.workload(seed);
    let threads = wl.threads.len();
    let t = Instant::now();
    for i in 0..n {
        black_box(wl.threads[i % threads].next_ref());
    }
    out.push(ns_per(t, n));

    // cache: one private L1 and L2 per core, filled by the stream first.
    let mut l1: Vec<SetAssoc<()>> = (0..threads)
        .map(|_| SetAssoc::new(cfg.l1d.sets(), cfg.l1d.ways, Replacement::Lru))
        .collect();
    let mut l2: Vec<SetAssoc<MesiState>> = (0..threads)
        .map(|_| SetAssoc::new(cfg.l2.sets(), cfg.l2.ways, Replacement::Lru))
        .collect();
    for &(t, r) in &refs {
        if l1[t].touch(r.block.0, |_| true).is_none() {
            l1[t].insert(r.block.0, (), |_| false);
        }
        if l2[t].touch(r.block.0, |_| true).is_none() {
            l2[t].insert(r.block.0, MesiState::Shared, |_| false);
        }
    }
    let t = Instant::now();
    for &(c, r) in walk() {
        black_box(l1[c].touch(r.block.0, |_| true).is_some());
    }
    out.push(ns_per(t, n));
    let t = Instant::now();
    for &(c, r) in walk() {
        black_box(l2[c].touch(r.block.0, |_| true).is_some());
    }
    out.push(ns_per(t, n));
    // Keys above bit 40 are new tags in the stream's own sets, so every
    // insert misses and evicts.
    let t = Instant::now();
    for (i, &(c, r)) in walk().enumerate() {
        let key = r.block.0 + ((i as u64 + 1) << 40);
        black_box(l2[c].insert(key, MesiState::Exclusive, |_| false));
    }
    out.push(ns_per(t, n));

    // common: the open-addressed map keyed by block.
    let mut map: FlatMap<u64> = FlatMap::new();
    let t = Instant::now();
    for (i, &(_, r)) in walk().enumerate() {
        black_box(map.insert(r.block.0, i as u64));
    }
    let insert = ns_per(t, n);
    let t = Instant::now();
    for &(_, r) in walk() {
        black_box(map.get(r.block.0));
    }
    out.push(ns_per(t, n));
    out.push(insert);

    // core: the point's own directory and LLC banks.
    let core_of = |t: usize| CoreId((t % cfg.cores) as u16);
    let mut dir = DirStore::build(cfg);
    let t = Instant::now();
    for &(c, r) in walk() {
        if dir.peek(r.block).is_none() {
            black_box(dir.allocate(r.block, DirEntry::owned(core_of(c))));
        } else {
            black_box(dir.remove(r.block));
        }
    }
    let alloc_remove = ns_per(t, n);
    let t = Instant::now();
    for &(_, r) in walk() {
        black_box(dir.peek(r.block));
    }
    out.push(ns_per(t, n));
    out.push(alloc_remove);
    let policy = cfg
        .zerodev
        .map_or(LlcReplacement::Lru, |z| z.llc_replacement);
    let banks = cfg.llc_banks;
    let mut llc: Vec<LlcBank> = (0..banks)
        .map(|b| LlcBank::new(cfg.llc_sets_per_bank(), cfg.llc.ways, banks, b))
        .collect();
    let bank = |b: BlockAddr| (b.0 % banks as u64) as usize;
    let t = Instant::now();
    for &(_, r) in walk() {
        black_box(llc[bank(r.block)].fill_data(r.block, r.write, policy));
    }
    out.push(ns_per(t, n));
    let t = Instant::now();
    for &(c, r) in walk() {
        black_box(llc[bank(r.block)].spill_entry(r.block, DirEntry::shared(core_of(c)), policy));
    }
    out.push(ns_per(t, n));

    // noc: core-to-home-bank latency on the socket mesh.
    let topo = SocketTopology::new(cfg.cores, banks, cfg.dram.channels, cfg.noc);
    let bytes = MsgClass::Data.bytes();
    let t = Instant::now();
    for &(c, r) in walk() {
        black_box(topo.core_bank_latency(c % cfg.cores, bank(r.block), bytes));
    }
    out.push(ns_per(t, n));

    // dram: back-to-back accesses through the timing model.
    for write in [false, true] {
        let mut dram = DramModel::new(cfg.dram);
        let mut now = Cycle(0);
        let t = Instant::now();
        for &(_, r) in walk() {
            now = if write {
                dram.write(now, r.block)
            } else {
                dram.read(now, r.block)
            };
        }
        black_box(now);
        out.push(ns_per(t, n));
    }
    out
}

/// States the model probes' bounded exploration may reach.
const MODEL_STATES: usize = 3_000;
/// Times each probe replays the exploration's sample traces.
const MODEL_REPS: usize = 20;

/// The model checker's per-state operations, timed on the harness states
/// along the sample traces of a bounded exploration of
/// [`probe_machine`], plus that exploration's transitions per second.
pub fn model_probes() -> Result<Vec<(&'static str, f64)>, String> {
    isolate("model probes", || {
        let mc = probe_machine();
        let t = Instant::now();
        let e = explore(
            &mc,
            &Limits {
                max_states: MODEL_STATES,
                max_depth: usize::MAX,
            },
        );
        let transitions_per_s = e.transitions as f64 / t.elapsed().as_secs_f64();
        if let Some(v) = &e.violation {
            return Err(v.message.clone());
        }
        // [clone, enabled_events, apply, check, canonical_key] as (ns, ops).
        let mut acc = [(0.0f64, 0usize); MODEL_PROBES.len()];
        let mut time = |i: usize, t: Instant| {
            acc[i].0 += t.elapsed().as_secs_f64() * 1e9;
            acc[i].1 += 1;
        };
        for _ in 0..MODEL_REPS {
            for (trace, _) in &e.sample_traces {
                let mut h = ProtocolHarness::new(mc.cfg.clone(), mc.blocks.clone(), true)
                    .map_err(|err| err.to_string())?;
                for step in 0..=trace.len() {
                    let t = Instant::now();
                    black_box(h.clone());
                    time(0, t);
                    let t = Instant::now();
                    let events = h.enabled_events();
                    time(1, t);
                    for &ev in &events {
                        let mut next = h.clone();
                        let t = Instant::now();
                        let applied = next.apply(ev);
                        time(2, t);
                        applied.map_err(|v| v.to_string())?;
                    }
                    let t = Instant::now();
                    let checked = h.check();
                    time(3, t);
                    checked.map_err(|v| v.to_string())?;
                    let t = Instant::now();
                    black_box(canonical_key(&h));
                    time(4, t);
                    if let Some(&ev) = trace.get(step) {
                        h.apply(ev).map_err(|v| v.to_string())?;
                    }
                }
            }
        }
        let mut out: Vec<(&'static str, f64)> = MODEL_PROBES
            .iter()
            .zip(acc)
            .map(|(name, (ns, ops))| (*name, ns / ops.max(1) as f64))
            .collect();
        out.push(("model.transitions_per_s", transitions_per_s));
        Ok(out)
    })
}

/// Host seconds of a whole run of `p` (set-up included), and its
/// fingerprint, with `prepare` applied to the simulation first.
fn timed_run(
    p: &Point,
    seed: u64,
    shards: usize,
    prepare: impl FnOnce(&mut Simulation),
) -> Result<(f64, u64), String> {
    isolate(&p.label, || {
        let t = Instant::now();
        let mut sim = Simulation::new(&p.cfg, p.workload(seed));
        prepare(&mut sim);
        let r = sim
            .try_run_sharded(p.refs, p.warmup, shards)
            .map_err(|e| e.to_string())?;
        Ok((t.elapsed().as_secs_f64(), fingerprint(&r)))
    })
}

/// `shard.speedup_2` and `oracle.audit_ratio` on one point: serial over
/// sharded wall time, and audited over unaudited. Both variants must
/// reproduce the serial run exactly.
pub fn point_ratios(
    p: &Point,
    seed: u64,
    nproc: usize,
) -> Result<[(&'static str, f64); 2], String> {
    let (serial, fp) = timed_run(p, seed, 1, |_| {})?;
    // Two shards, or the one core there is: the benchmark never runs more
    // threads than the host has.
    let (sharded, fp_sharded) = timed_run(p, seed, nproc.min(2), |_| {})?;
    let (audited, fp_audited) = timed_run(p, seed, 1, Simulation::enable_audit)?;
    if fp_sharded != fp || fp_audited != fp {
        return Err(format!(
            "{}: sharded ({fp_sharded:#018x}) or audited ({fp_audited:#018x}) run differs from serial ({fp:#018x})",
            p.label
        ));
    }
    Ok([
        ("shard.speedup_2", serial / sharded),
        ("oracle.audit_ratio", audited / serial),
    ])
}

/// `parallel.sweep_efficiency`: the points as one grid on the sweep engine
/// with `nproc` workers, worker-busy time over wall time × workers. Every
/// point must reproduce `expected`, its serial fingerprint.
pub fn sweep_efficiency(
    points: &[Point],
    seed: u64,
    nproc: usize,
    expected: &[u64],
) -> Result<f64, String> {
    let jobs: Vec<RunJob> = points
        .iter()
        .map(|p| {
            let point = p.clone();
            RunJob {
                cfg: p.cfg.clone(),
                make: Arc::new(move || point.workload(seed)),
                params: RunParams {
                    refs_per_core: p.refs,
                    warmup_refs: p.warmup,
                    threads: nproc,
                    ..RunParams::default()
                },
                seed,
                memo: false,
            }
        })
        .collect();
    let engine = Engine::new(nproc);
    let t = Instant::now();
    let outcomes = engine.run_grid(&jobs);
    let wall = t.elapsed().as_secs_f64();
    let mut busy = 0.0;
    for ((o, p), want) in outcomes.iter().zip(points).zip(expected) {
        let run = o
            .run
            .ok()
            .ok_or_else(|| format!("{}: {}", p.label, o.run.failure().unwrap_or("failed")))?;
        let got = fingerprint(&run.result);
        if got != *want {
            return Err(format!(
                "{}: sweep-engine run {got:#018x} differs from serial {want:#018x}",
                p.label
            ));
        }
        busy += o.wall.as_secs_f64();
    }
    Ok(busy / (wall * engine.threads() as f64))
}
