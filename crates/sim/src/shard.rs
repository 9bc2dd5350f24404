//! Deterministic intra-run parallel simulation (`ZERODEV_SHARDS`).
//!
//! The serial engine's semantics are defined entirely by the global
//! `(time, core)` event order: statistics, oracle observations, and fault
//! draws all evolve along that single sequence. Any parallelisation must
//! therefore reproduce it *exactly* — the repo's parity idiom demands
//! byte-identical results at any shard count.
//!
//! The natural seam is the core boundary: between uncore transactions, a
//! core's references touch only its own L1I/L1D/L2, so their effects
//! commute with every other core's private work. This driver exploits
//! that with **epoch-based speculation + serial commit**:
//!
//! 1. **Phase A (parallel)** — cores are partitioned into shards, each
//!    shard's [`CoreSlot`]s are *moved* to a worker thread (plain `Send`
//!    ownership transfer over channels; no locks, no interior references).
//!    Each core runs ahead through [`CoreModel::speculate_cow`]: pure
//!    private references (L1 hits, L1→L2 refills, silent E→M stores)
//!    execute directly on the committed hierarchy, guarded by a
//!    copy-on-write undo log that snapshots each touched cache set once
//!    per epoch; the first reference that needs the uncore — or the end
//!    of the speculation window — stops the run-ahead.
//! 2. **Phase B (serial)** — the walker processes the global event queue
//!    on the main thread. A speculated reference *commits* with pure
//!    bookkeeping (fault draw, latency, L1-miss counters, next event) —
//!    no cache probes, no generator draws. When a core's speculation is
//!    exhausted, every prior reference of that core has already committed
//!    (its event times strictly increase), so its hierarchy already *is*
//!    the committed state: the core simply goes live and runs its
//!    remaining references through the ordinary serial path
//!    ([`CoreModel::access_into`] + [`apply_effects_via`]). The epoch
//!    ends once every core has gone serial; then Phase A begins anew.
//!
//! Cross-core protocol traffic (invalidations/downgrades) produced by a
//! serial access may land on a core that still has uncommitted
//! speculation. If the delivery cannot interact with the uncommitted
//! suffix — the usual case — it is applied in place (its sets snapshotted
//! first) and logged at its commit position; otherwise the speculation is
//! *poisoned*: the undo log restores the hierarchy to its epoch-start
//! state, the committed prefix is replayed (interleaving the logged
//! deliveries at their recorded positions), the discarded suffix's
//! references are queued for serial re-execution, and the core goes
//! serial early. Either way the observable state at every commit point
//! equals the serial run's, so the result is byte-identical — the parity
//! matrix in `crates/bench/tests/parity.rs` pins this against the serial
//! golden fingerprints.

use std::collections::VecDeque;
use std::sync::mpsc;

use crate::core_model::{AccessEffects, CoreModel, ModelUndo, SpecEntry};
use crate::engine::{
    apply_effects_via, fault_post_at, fault_pre_at, EffectSink, EventQueue, SimError, SimResult,
    Simulation,
};
use crate::faults::FaultPlan;
use zerodev_common::{BlockAddr, CoreId, Cycle, MesiState, SocketId, Stats, SystemConfig};
use zerodev_workloads::{MemRef, ThreadGen};

/// Speculation window of the first epoch (references per core).
const WINDOW_START: usize = 128;
/// Window floor: below this the epoch overhead (buffer refresh, channel
/// round-trip) dominates and the serial path would win anyway.
const WINDOW_MIN: usize = 64;
/// Window ceiling: bounds the rollback cost of a poisoned speculation and
/// the memory held in speculation logs.
const WINDOW_MAX: usize = 8_192;

/// How Phase A distributes the speculation work.
///
/// `Threads` is the parallel transport: each shard's slots move to a
/// persistent worker thread by ownership transfer and speculate
/// concurrently. On a single-CPU host the OS can only time-slice those
/// workers over one core, so the channel round-trips buy nothing;
/// `Inline` runs the identical speculation loop on the driver thread
/// instead. The transport moves *where* Phase A executes, never *what*
/// it computes — results are byte-identical either way (pinned by
/// `thread_transport_matches_inline_exactly`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Transport {
    Inline,
    Threads,
}

impl Transport {
    /// Threaded when the host can actually run workers in parallel, or
    /// when `ZERODEV_SHARD_THREADS=1` forces the threaded transport (for
    /// measuring its overhead); inline on single-CPU hosts.
    fn auto() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cpus > 1 || zerodev_common::env::var_flag("ZERODEV_SHARD_THREADS") {
            Transport::Threads
        } else {
            Transport::Inline
        }
    }
}

/// The shard boundary contract (and the enabler for ROADMAP item 5):
/// everything a shard owns is plain movable data.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CoreSlot>();
};

/// The geometry facts the walker needs without borrowing the `System`.
#[derive(Clone, Copy)]
struct Geom {
    /// Cores per socket (flattens `(socket, core)` to a slot index).
    cores_per_socket: usize,
    /// L1I set count (conflict checks on speculated code refills).
    l1i_sets: u64,
    /// L1D set count (conflict checks on speculated data refills).
    l1d_sets: u64,
}

impl Geom {
    fn of(cfg: &SystemConfig) -> Self {
        Geom {
            cores_per_socket: cfg.cores,
            l1i_sets: cfg.l1i.sets() as u64,
            l1d_sets: cfg.l1d.sets() as u64,
        }
    }
}

/// An uncore effect that arrived while the target core was speculating.
#[derive(Clone, Copy, Debug)]
enum Delivery {
    /// Remove the block everywhere in the private hierarchy.
    Invalidate(BlockAddr),
    /// Demote the block's coherence-point copy to Shared.
    Downgrade(BlockAddr),
}

/// Per-epoch speculation bookkeeping of one core.
#[derive(Debug, Default)]
struct Lane {
    /// References speculated this epoch, in program order.
    entries: Vec<SpecEntry>,
    /// How many of `entries` the walker has committed.
    committed: usize,
    /// Deliveries applied to the speculation buffer, tagged with the
    /// commit position they arrived at (replayed on rollback).
    deliveries: Vec<(usize, Delivery)>,
    /// Drawn-but-unexecuted references (the pausing reference and any
    /// rolled-back suffix), consumed before fresh generator draws so the
    /// per-thread draw order matches the serial run exactly.
    pending: VecDeque<MemRef>,
    /// True once the core executes serially on its committed model (set at
    /// the epoch's commit-exhaustion transition, on rollback, and during
    /// warm-up).
    live: bool,
}

/// One core's state in the sharded driver: the hierarchy, its speculation
/// undo log, the reference generator, and the epoch bookkeeping.
struct CoreSlot {
    /// The private hierarchy. Holds the committed state plus — while the
    /// core speculates — the uncommitted speculated suffix, rolled back
    /// through `undo` if the speculation is poisoned.
    real: CoreModel,
    /// Copy-on-write snapshots of the cache sets touched this epoch.
    undo: ModelUndo,
    /// This core's reference generator.
    wl: ThreadGen,
    /// Memory-level parallelism of the workload thread (constant per run).
    mlp: f64,
    lane: Lane,
}

/// Phase A worker body: start a fresh undo epoch and run ahead until the
/// window closes or a reference needs the uncore.
fn speculate_slot(slot: &mut CoreSlot, window: usize) {
    let lane = &mut slot.lane;
    lane.entries.clear();
    lane.committed = 0;
    lane.deliveries.clear();
    lane.live = false;
    slot.undo.begin_epoch();
    for _ in 0..window {
        let r = match lane.pending.pop_front() {
            Some(r) => r,
            None => slot.wl.next_ref(),
        };
        match slot.real.speculate_cow(r, &mut slot.undo) {
            Some(e) => lane.entries.push(e),
            None => {
                // Needs the uncore: executed live at its committed position.
                lane.pending.push_front(r);
                break;
            }
        }
    }
}

/// True when `d`'s effect on `block` could change what the uncommitted
/// suffix of `lane` did on the speculation buffer.
///
/// * An **invalidation** conflicts with any suffix reference to the block
///   itself (the re-run would miss), and with any suffix L1 refill into
///   the block's L1 set (removing the block frees a way, so the refill
///   would have picked a different victim). Speculation never inserts
///   into the L2, and removing one key commutes with recency promotions
///   of other keys, so no L2-set check is needed.
/// * A **downgrade** (`write_only`) conflicts only with a suffix *store*
///   to the block (it would have needed an upgrade after the demotion);
///   suffix loads behave identically in M/E/S.
fn conflicts(lane: &Lane, geom: Geom, block: BlockAddr, write_only: bool) -> bool {
    lane.entries[lane.committed..].iter().any(|e| {
        if e.mref.block == block {
            return !write_only || e.mref.write;
        }
        if write_only {
            return false;
        }
        e.l1_fill && {
            let sets = if e.mref.code {
                geom.l1i_sets
            } else {
                geom.l1d_sets
            };
            e.mref.block.0 % sets == block.0 % sets
        }
    })
}

fn apply_delivery(cm: &mut CoreModel, d: Delivery) {
    match d {
        Delivery::Invalidate(b) => {
            let _ = cm.apply_invalidation(b);
        }
        Delivery::Downgrade(b) => {
            let _ = cm.apply_downgrade(b);
        }
    }
}

/// Poisoned-speculation rollback: restore the hierarchy to its epoch-start
/// state through the undo log, rebuild the committed state by replaying
/// the committed prefix with the logged deliveries interleaved at their
/// recorded positions, queue the discarded suffix for serial
/// re-execution, and go live.
///
/// Replay touches no global state — the committed entries' statistics and
/// fault draws were already applied by the walker in global order.
fn rollback(slot: &mut CoreSlot) {
    slot.real.restore_from(&slot.undo);
    let lane = &mut slot.lane;
    let mut next_d = 0;
    for i in 0..lane.committed {
        while next_d < lane.deliveries.len() && lane.deliveries[next_d].0 == i {
            apply_delivery(&mut slot.real, lane.deliveries[next_d].1);
            next_d += 1;
        }
        let replayed = slot.real.speculate(lane.entries[i].mref);
        debug_assert!(
            matches!(replayed, Some(r) if r.latency == lane.entries[i].latency
                && r.l1_fill == lane.entries[i].l1_fill),
            "committed speculation diverged on replay"
        );
    }
    while next_d < lane.deliveries.len() {
        apply_delivery(&mut slot.real, lane.deliveries[next_d].1);
        next_d += 1;
    }
    // The suffix re-executes serially, ahead of any reference drawn later
    // (the pause reference, if any, is already behind it in `pending`).
    for e in lane.entries[lane.committed..].iter().rev() {
        lane.pending.push_front(e.mref);
    }
    lane.entries.truncate(lane.committed);
    lane.deliveries.clear();
    lane.live = true;
}

/// The walker's effect sink: deliveries to live cores land on the
/// committed model (exactly the serial path); deliveries to speculating
/// cores are conflict-checked, then either applied in place (sets
/// snapshotted first, so a later poison can still roll back) or resolved
/// by rollback.
struct SlotSink<'a> {
    slots: &'a mut [CoreSlot],
    geom: Geom,
    /// The walker's gone-serial counter (rollback flips a core live).
    live_cores: &'a mut usize,
}

impl EffectSink for SlotSink<'_> {
    fn downgrade(&mut self, socket: SocketId, core: CoreId, block: BlockAddr) -> bool {
        let idx = socket.0 as usize * self.geom.cores_per_socket + core.0 as usize;
        let slot = &mut self.slots[idx];
        if slot.lane.live {
            return slot.real.apply_downgrade(block);
        }
        if conflicts(&slot.lane, self.geom, block, true) {
            rollback(slot);
            *self.live_cores += 1;
            return slot.real.apply_downgrade(block);
        }
        // No conflict: the delivery commutes with the uncommitted suffix,
        // so the post-suffix state it sees equals the post-prefix state
        // the serial run would have shown it.
        slot.real.save_delivery_sets(block, &mut slot.undo);
        slot.lane
            .deliveries
            .push((slot.lane.committed, Delivery::Downgrade(block)));
        slot.real.apply_downgrade(block)
    }

    fn invalidate(&mut self, socket: SocketId, core: CoreId, block: BlockAddr) -> MesiState {
        let idx = socket.0 as usize * self.geom.cores_per_socket + core.0 as usize;
        let slot = &mut self.slots[idx];
        if slot.lane.live {
            return slot.real.apply_invalidation(block);
        }
        if conflicts(&slot.lane, self.geom, block, false) {
            rollback(slot);
            *self.live_cores += 1;
            return slot.real.apply_invalidation(block);
        }
        slot.real.save_delivery_sets(block, &mut slot.undo);
        slot.lane
            .deliveries
            .push((slot.lane.committed, Delivery::Invalidate(block)));
        slot.real.apply_invalidation(block)
    }
}

/// Runs `sim` to completion with `shards >= 2` speculation shards,
/// byte-identical to [`Simulation::try_run`].
pub(crate) fn run(
    sim: Simulation,
    refs_per_core: u64,
    warmup_refs: u64,
    shards: usize,
) -> Result<SimResult, SimError> {
    run_with(sim, refs_per_core, warmup_refs, shards, Transport::auto())
}

/// [`run`] with an explicit Phase A transport (tests force `Threads` so
/// the worker/channel path stays covered on single-CPU CI hosts).
fn run_with(
    sim: Simulation,
    refs_per_core: u64,
    warmup_refs: u64,
    shards: usize,
    transport: Transport,
) -> Result<SimResult, SimError> {
    let (mut sys, cores, workload, mut faults, watchdog) = sim.into_parts();
    let n = cores.len();
    debug_assert!(shards >= 2 && shards <= n);
    let geom = Geom::of(sys.config());
    let name = workload.name;
    let kind = workload.kind;
    let mut slots: Vec<CoreSlot> = cores
        .into_iter()
        .zip(workload.threads)
        .map(|(real, wl)| CoreSlot {
            undo: ModelUndo::for_model(&real),
            real,
            mlp: wl.spec().mlp,
            wl,
            lane: Lane {
                live: true,
                ..Lane::default()
            },
        })
        .collect();

    // Warm-up runs serially: its round-robin order is untimed and every
    // lane is live, so this is the serial engine's warm-up verbatim.
    let mut fx = AccessEffects::default();
    let mut warm_live = n;
    for _ in 0..warmup_refs {
        for t in 0..n {
            let r = slots[t].wl.next_ref();
            let mlp = slots[t].mlp;
            slots[t].real.access_into(&mut sys, Cycle(0), r, &mut fx);
            let mut sink = SlotSink {
                slots: &mut slots,
                geom,
                live_cores: &mut warm_live,
            };
            let _ = apply_effects_via(&mut sys, Cycle(0), &mut fx, mlp, &mut sink);
        }
    }
    // Reset statistics after warm-up, preserving the live gauges (they
    // track real structure occupancy, not events).
    let mut fresh = Stats::new();
    fresh.spilled_lines_current = sys.stats.spilled_lines_current;
    fresh.spilled_lines_max = fresh.spilled_lines_current;
    fresh.dir_live_entries = sys.stats.dir_live_entries;
    fresh.dir_live_entries_max = fresh.dir_live_entries;
    sys.stats = fresh;

    // Contiguous shard ranges, sized within one core of each other.
    let chunk = |s: usize| -> std::ops::Range<usize> {
        let (base, extra) = (n / shards, n % shards);
        let start = s * base + s.min(extra);
        start..start + base + usize::from(s < extra)
    };

    let mut queue = EventQueue::new(n);
    let mut refs_done = vec![0u64; n];
    let mut instrs = vec![0u64; n];
    let mut core_cycles = vec![0u64; n];
    let mut core_instrs = vec![0u64; n];
    let mut finished = 0usize;
    let mut last_retire = vec![0u64; n];
    let mut pops = 0u64;
    let mut window = WINDOW_START;

    std::thread::scope(|scope| -> Result<SimResult, SimError> {
        // One persistent worker per shard (threaded transport only); slots
        // travel by ownership transfer. Dropping the feed senders (closure
        // return) ends the workers, and the scope joins them.
        let (back_tx, back_rx) = mpsc::channel::<(usize, Vec<CoreSlot>)>();
        let mut feeds = Vec::with_capacity(shards);
        if transport == Transport::Threads {
            for s in 0..shards {
                let (tx, rx) = mpsc::channel::<(Vec<CoreSlot>, usize)>();
                let back = back_tx.clone();
                // lint:allow(thread_spawn, shard speculation workers; the commit walker re-validates every speculated slot in deterministic order (ZERODEV_SHARDS is bit-identical to serial))
                scope.spawn(move || {
                    while let Ok((mut batch, window)) = rx.recv() {
                        for slot in &mut batch {
                            speculate_slot(slot, window);
                        }
                        if back.send((s, batch)).is_err() {
                            return;
                        }
                    }
                });
                feeds.push(tx);
            }
        }
        drop(back_tx);
        let mut parts: Vec<Option<Vec<CoreSlot>>> = (0..shards).map(|_| None).collect();

        'run: loop {
            // ---- Phase A: speculate every core forward one window.
            match transport {
                Transport::Inline => {
                    for slot in &mut slots {
                        speculate_slot(slot, window);
                    }
                }
                Transport::Threads => {
                    // Scatter the slots to the workers, gather them back.
                    for s in (0..shards).rev() {
                        let batch = slots.split_off(chunk(s).start);
                        feeds[s].send((batch, window)).expect("shard worker alive");
                    }
                    for _ in 0..shards {
                        let (s, batch) = back_rx.recv().expect("shard worker alive");
                        parts[s] = Some(batch);
                    }
                    for p in parts.iter_mut() {
                        slots.extend(p.take().expect("every shard reported"));
                    }
                }
            }

            // ---- Phase B: commit the global (time, core) order serially.
            let mut live_cores = 0usize;
            while live_cores < n {
                let (now, t) = queue.peek_min();
                pops += 1;
                watchdog.check(pops, now, &last_retire)?;
                let slot = &mut slots[t];
                if !slot.lane.live {
                    if slot.lane.committed < slot.lane.entries.len() {
                        // Commit a speculated pure reference: the cache
                        // effects already happened on the buffer, so only
                        // the global-order bookkeeping runs here.
                        let e = slot.lane.entries[slot.lane.committed];
                        slot.lane.committed += 1;
                        let (socket, core) = (slot.real.socket(), slot.real.core());
                        let issue = now + u64::from(e.mref.gap);
                        let draw = faults.as_deref_mut().map(FaultPlan::draw);
                        if let Some(d) = draw {
                            fault_pre_at(
                                &mut sys,
                                &mut faults,
                                t,
                                socket,
                                core,
                                issue,
                                e.mref.block,
                                d,
                            )?;
                        }
                        if e.l1_fill {
                            if e.mref.code {
                                sys.stats.l1i_misses += 1;
                            } else {
                                sys.stats.l1d_misses += 1;
                            }
                        }
                        let done = issue + e.latency;
                        if let Some(d) = draw {
                            fault_post_at(
                                &mut sys,
                                &mut faults,
                                socket,
                                core,
                                done,
                                e.mref.block,
                                d,
                            );
                        }
                        instrs[t] += u64::from(e.mref.gap) + 1;
                        refs_done[t] += 1;
                        last_retire[t] = done;
                        if refs_done[t] == refs_per_core {
                            core_cycles[t] = done;
                            core_instrs[t] = instrs[t];
                            finished += 1;
                            if finished == n {
                                break 'run;
                            }
                        }
                        queue.replace_min(done, t);
                        continue;
                    }
                    // Every prior reference of this core has committed, so
                    // its hierarchy already holds the committed state: go
                    // serial for the rest of the epoch (the undo log is
                    // simply abandoned until the next epoch resets it).
                    slot.lane.live = true;
                    live_cores += 1;
                }
                // Serial execution on the committed model — the serial
                // engine's loop body.
                let r = match slot.lane.pending.pop_front() {
                    Some(r) => r,
                    None => slot.wl.next_ref(),
                };
                let mlp = slot.mlp;
                let (socket, core) = (slot.real.socket(), slot.real.core());
                let issue = now + u64::from(r.gap);
                let draw = faults.as_deref_mut().map(FaultPlan::draw);
                if let Some(d) = draw {
                    fault_pre_at(&mut sys, &mut faults, t, socket, core, issue, r.block, d)?;
                }
                slots[t]
                    .real
                    .access_into(&mut sys, Cycle(issue), r, &mut fx);
                let mut sink = SlotSink {
                    slots: &mut slots,
                    geom,
                    live_cores: &mut live_cores,
                };
                let lat = apply_effects_via(&mut sys, Cycle(issue), &mut fx, mlp, &mut sink);
                let done = issue + lat;
                if let Some(d) = draw {
                    fault_post_at(&mut sys, &mut faults, socket, core, done, r.block, d);
                }
                instrs[t] += u64::from(r.gap) + 1;
                refs_done[t] += 1;
                last_retire[t] = done;
                if refs_done[t] == refs_per_core {
                    core_cycles[t] = done;
                    core_instrs[t] = instrs[t];
                    finished += 1;
                    if finished == n {
                        break 'run;
                    }
                }
                queue.replace_min(done, t);
            }

            // Epoch over: retarget the window at twice the average commit
            // depth, so it tracks just past the typical uncore distance.
            // Purely a throughput knob — results never depend on it.
            let committed: usize = slots.iter().map(|s| s.lane.committed).sum();
            window = (committed / n * 2).clamp(WINDOW_MIN, WINDOW_MAX);
        }

        // A final exhaustive pass over every shadow-tracked block before
        // the statistics are frozen (no-op unless auditing).
        sys.audit_sweep();

        let (dr, dw) = sys.memory().dram_counts();
        Ok(SimResult {
            name,
            kind,
            stats: sys.stats.clone(),
            completion_cycles: core_cycles.iter().copied().max().unwrap_or(0),
            refs_retired: pops,
            core_cycles,
            core_instrs,
            dram_rw: (dr, dw),
            faults: faults.take().map(|p| p.stats).unwrap_or_default(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_workloads::multithreaded;

    fn serial(name: &str, shards: usize) -> SimResult {
        let cfg = SystemConfig::baseline_8core();
        let wl = multithreaded(name, 8, 11).unwrap();
        Simulation::new(&cfg, wl).run_sharded(2_000, 200, shards)
    }

    #[test]
    fn sharded_matches_serial_exactly() {
        let a = serial("canneal", 1);
        for shards in [2, 4, 8] {
            let b = serial("canneal", shards);
            assert_eq!(a.stats, b.stats, "stats diverged at {shards} shards");
            assert_eq!(a.core_cycles, b.core_cycles);
            assert_eq!(a.core_instrs, b.core_instrs);
            assert_eq!(a.completion_cycles, b.completion_cycles);
            assert_eq!(a.refs_retired, b.refs_retired);
            assert_eq!(a.dram_rw, b.dram_rw);
        }
    }

    #[test]
    fn sharded_matches_serial_under_audit() {
        let cfg = SystemConfig::baseline_8core();
        let mk = || {
            let mut sim = Simulation::new(&cfg, multithreaded("ferret", 8, 7).unwrap());
            sim.enable_audit();
            sim
        };
        let a = mk().run_sharded(1_500, 150, 1);
        let b = mk().run_sharded(1_500, 150, 3);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.completion_cycles, b.completion_cycles);
        assert_eq!(a.refs_retired, b.refs_retired);
    }

    /// The threaded transport must produce the same bytes as the inline
    /// one even where [`Transport::auto`] would never pick it (a
    /// single-CPU CI host), so force both sides explicitly.
    #[test]
    fn thread_transport_matches_inline_exactly() {
        let cfg = SystemConfig::baseline_8core();
        let mk = || Simulation::new(&cfg, multithreaded("canneal", 8, 11).unwrap());
        let a = run_with(mk(), 2_000, 200, 4, Transport::Inline).unwrap();
        let b = run_with(mk(), 2_000, 200, 4, Transport::Threads).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.core_cycles, b.core_cycles);
        assert_eq!(a.core_instrs, b.core_instrs);
        assert_eq!(a.completion_cycles, b.completion_cycles);
        assert_eq!(a.refs_retired, b.refs_retired);
        assert_eq!(a.dram_rw, b.dram_rw);
    }

    /// Throughput scratch harness for tuning the speculation window;
    /// prints serial vs 4-shard wall clock per app.
    /// `cargo test --release -p zerodev-sim -- --ignored --nocapture shard_throughput`
    #[test]
    #[ignore = "timing harness, not a check"]
    fn shard_throughput_survey() {
        for (app, refs, warm) in [
            ("swaptions", 12_000u64, 1_200u64),
            ("x264.pass1", 12_000, 6_000),
            ("blackscholes", 12_000, 6_000),
            ("ferret", 12_000, 6_000),
        ] {
            let cfg = SystemConfig::four_socket();
            let mut best = [f64::MAX; 2];
            for (i, shards) in [1usize, 4].into_iter().enumerate() {
                for _ in 0..2 {
                    let wl = multithreaded(app, 32, 7).unwrap();
                    let sim = Simulation::new(&cfg, wl);
                    let t0 = std::time::Instant::now();
                    let _ = sim.run_sharded(refs, warm, shards);
                    best[i] = best[i].min(t0.elapsed().as_secs_f64());
                }
            }
            println!(
                "{app:<14} refs {refs} warm {warm}: serial {:.3}s sharded {:.3}s ({:.2}x)",
                best[0],
                best[1],
                best[0] / best[1],
            );
        }
    }

    #[test]
    fn shard_count_clamps_to_core_count() {
        let a = serial("swaptions", 1);
        let b = serial("swaptions", 64);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.completion_cycles, b.completion_cycles);
    }
}
