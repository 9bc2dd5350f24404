//! Adversarial torture workloads for soak testing.
//!
//! Real applications are gentle with the coherence machinery: private
//! footprints dominate, sharing is a few percent, and writers are sparse.
//! The soak campaign needs the opposite — streams engineered to sit on the
//! protocol's worst seams:
//!
//! * [`TortureKind::FalseSharing`] — every core hammers the same handful of
//!   blocks with a 50/50 read/write mix, so ownership of each block
//!   ping-pongs on nearly every reference (invalidation storms, upgrade
//!   races, maximal sharing-writeback traffic).
//! * [`TortureKind::EntryThrash`] — each core streams a working set far
//!   beyond any dedicated directory's reach while revisiting old blocks at
//!   random, so entries are continuously spilled, written back to home
//!   memory (`WB_DE`), and recalled (`GET_DE`) at the housed-entry seam.
//! * [`TortureKind::PingPong`] — exclusive ownership of a small block set
//!   rotates around the cores in lockstep bursts; on multi-socket machines
//!   the rotation constantly crosses sockets, churning the socket-level
//!   directory and forwarded-socket flows.
//! * [`TortureKind::ReaderSwarm`] — one rotating writer against a swarm of
//!   readers: each rotation inverts a full sharer set into a single owner
//!   and back, stressing full-map invalidation fan-out.
//! * [`TortureKind::PhaseMix`] — cycles through the four patterns every
//!   [`PHASE_LEN`] references so phase transitions (the moments the
//!   steady-state assumptions break) are themselves exercised.
//!
//! Torture workloads are ordinary [`WorkloadSpec`]s resolved through
//! [`crate::lookup`] under `torture.*` names, so every existing harness —
//! figure sweeps, oracle auditing, fault campaigns, trace recording and
//! replay — composes with them unchanged.

use crate::gen::MemRef;
use crate::spec::{Suite, WorkloadSpec};
use zerodev_common::{BlockAddr, Prng};

/// One adversarial access pattern.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TortureKind {
    /// N cores hammer disjoint bytes of a few blocks (modelled at block
    /// granularity as a shared read/write storm on a tiny block set).
    FalseSharing,
    /// Working set sized to force continuous entry spill/writeback/recall.
    EntryThrash,
    /// Exclusive ownership rotates across cores (and sockets) in bursts.
    PingPong,
    /// A rotating lone writer against a swarm of readers.
    ReaderSwarm,
    /// Phase-switching mixture of the other four.
    PhaseMix,
}

/// References per phase under [`TortureKind::PhaseMix`].
pub const PHASE_LEN: u64 = 2_048;

/// References per ownership burst under [`TortureKind::PingPong`].
const PINGPONG_BURST: u64 = 8;

/// Contended-set size under [`TortureKind::FalseSharing`] (also used for
/// the false-sharing phase of [`TortureKind::PhaseMix`], whose shared
/// region is sized for the reader-swarm phase).
const FALSE_SHARING_BLOCKS: u64 = 8;

/// References per writer rotation under [`TortureKind::ReaderSwarm`].
const SWARM_ROTATION: u64 = 512;

/// The torture workload names, in catalog order (usable with
/// [`crate::lookup`] and [`crate::multithreaded`] like any application).
pub const TORTURE: [&str; 5] = [
    "torture.false_sharing",
    "torture.entry_thrash",
    "torture.ping_pong",
    "torture.reader_swarm",
    "torture.phase_mix",
];

const fn torture_base(name: &'static str, kind: TortureKind) -> WorkloadSpec {
    WorkloadSpec {
        name,
        suite: Suite::Torture,
        torture: Some(kind),
        priv_blocks: 512,
        priv_theta: 0.0,
        sro_blocks: 0,
        srw_blocks: 0,
        code_blocks: 0,
        p_code: 0.0,
        p_sro: 0.0,
        p_srw: 0.0,
        wr_priv: 0.5,
        wr_srw: 0.5,
        mean_gap: 1,
        p_hot: 0.0,
        hot_blocks: 1,
        p_seq: 0.0,
        mlp: 2.0,
    }
}

/// Looks up a torture spec by its `torture.*` catalog name.
pub(crate) fn lookup(name: &str) -> Option<WorkloadSpec> {
    let mut s = match name {
        "torture.false_sharing" => torture_base("torture.false_sharing", TortureKind::FalseSharing),
        "torture.entry_thrash" => torture_base("torture.entry_thrash", TortureKind::EntryThrash),
        "torture.ping_pong" => torture_base("torture.ping_pong", TortureKind::PingPong),
        "torture.reader_swarm" => torture_base("torture.reader_swarm", TortureKind::ReaderSwarm),
        "torture.phase_mix" => torture_base("torture.phase_mix", TortureKind::PhaseMix),
        _ => return None,
    };
    match s.torture.expect("torture spec has a kind") {
        TortureKind::FalseSharing => s.srw_blocks = 8,
        TortureKind::EntryThrash => s.priv_blocks = 65_536,
        TortureKind::PingPong => s.srw_blocks = 64,
        TortureKind::ReaderSwarm => s.srw_blocks = 1_024,
        TortureKind::PhaseMix => {
            s.srw_blocks = 1_024;
            s.priv_blocks = 65_536;
        }
    }
    Some(s)
}

/// Draws one torture reference. `walk` is the thread's persistent
/// sequential-walk cursor, `step` the number of torture references already
/// drawn by this thread, and `lane` its `(index, count)` position among the
/// workload's threads.
#[allow(clippy::too_many_arguments)]
pub(crate) fn draw(
    kind: TortureKind,
    spec: &WorkloadSpec,
    rng: &mut Prng,
    walk: &mut u64,
    step: u64,
    lane: (u32, u32),
    srw_base: u64,
    priv_base: u64,
) -> MemRef {
    let effective = match kind {
        TortureKind::PhaseMix => match (step / PHASE_LEN) % 4 {
            0 => TortureKind::FalseSharing,
            1 => TortureKind::EntryThrash,
            2 => TortureKind::PingPong,
            _ => TortureKind::ReaderSwarm,
        },
        k => k,
    };
    let gap = rng.below(u64::from(2 * spec.mean_gap) + 1) as u32;
    match effective {
        TortureKind::FalseSharing => {
            // Everyone storms the same tiny block set; half the references
            // are stores, so nearly every access steals ownership.
            let n = spec.srw_blocks.clamp(1, FALSE_SHARING_BLOCKS);
            MemRef {
                block: BlockAddr(srw_base + rng.below(n)),
                write: rng.chance(0.5),
                code: false,
                gap,
            }
        }
        TortureKind::EntryThrash => {
            // Mostly a sequential sweep that never fits any directory, with
            // random long-distance revisits: the revisited block's entry has
            // long since been evicted and housed in home memory, so the
            // access forces a GET_DE recall.
            let n = spec.priv_blocks.max(1);
            let offset = if rng.chance(0.25) {
                rng.below(n)
            } else {
                *walk = (*walk + 1) % n;
                *walk
            };
            MemRef {
                block: BlockAddr(priv_base + offset),
                write: rng.chance(0.3),
                code: false,
                gap,
            }
        }
        TortureKind::PingPong => {
            // Each lane writes a sliding slot of a small shared set; slots
            // advance every burst, so each block's owner rotates through all
            // lanes (and across sockets) continuously.
            let n = spec.srw_blocks.max(1);
            let slot = (step / PINGPONG_BURST + u64::from(lane.0)) % n;
            MemRef {
                block: BlockAddr(srw_base + slot),
                write: true,
                code: false,
                gap,
            }
        }
        TortureKind::ReaderSwarm | TortureKind::PhaseMix => {
            // A single rotating writer against a reader swarm: every
            // rotation collapses a full sharer set into one owner.
            let n = spec.srw_blocks.max(1);
            let writer = (step / SWARM_ROTATION) % u64::from(lane.1.max(1));
            let write = u64::from(lane.0) == writer && rng.chance(0.7);
            MemRef {
                block: BlockAddr(srw_base + rng.below(n)),
                write,
                code: false,
                gap,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multithreaded;
    use std::collections::HashSet;

    #[test]
    fn catalog_resolves_through_lookup() {
        for name in TORTURE {
            let s = crate::lookup(name).unwrap_or_else(|| panic!("missing torture spec {name}"));
            assert_eq!(s.name, name);
            assert_eq!(s.suite, Suite::Torture);
            assert!(s.torture.is_some());
        }
        assert!(crate::lookup("torture.unknown").is_none());
    }

    #[test]
    fn deterministic_streams() {
        for name in TORTURE {
            let mut a = multithreaded(name, 4, 11).unwrap();
            let mut b = multithreaded(name, 4, 11).unwrap();
            for t in 0..4 {
                for _ in 0..500 {
                    assert_eq!(a.threads[t].next_ref(), b.threads[t].next_ref(), "{name}");
                }
            }
        }
    }

    #[test]
    fn false_sharing_contends_on_a_tiny_set() {
        let mut wl = multithreaded("torture.false_sharing", 4, 1).unwrap();
        let mut blocks = HashSet::new();
        let mut writes = 0u32;
        for t in 0..4 {
            for _ in 0..1000 {
                let r = wl.threads[t].next_ref();
                blocks.insert(r.block.0);
                writes += u32::from(r.write);
            }
        }
        assert!(blocks.len() <= 8, "contended set too big: {}", blocks.len());
        assert!(writes > 1000, "not enough stores: {writes}");
    }

    #[test]
    fn entry_thrash_covers_a_huge_footprint() {
        let mut wl = multithreaded("torture.entry_thrash", 2, 1).unwrap();
        let mut blocks = HashSet::new();
        for _ in 0..20_000 {
            blocks.insert(wl.threads[0].next_ref().block.0);
        }
        assert!(
            blocks.len() > 10_000,
            "thrash should stream, saw {} blocks",
            blocks.len()
        );
    }

    #[test]
    fn ping_pong_rotates_writers_over_shared_blocks() {
        let mut wl = multithreaded("torture.ping_pong", 4, 1).unwrap();
        // Every thread writes, and all threads touch the same shared set.
        let mut per_thread: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        for (t, set) in per_thread.iter_mut().enumerate() {
            for _ in 0..2000 {
                let r = wl.threads[t].next_ref();
                assert!(r.write, "ping-pong references are stores");
                set.insert(r.block.0);
            }
        }
        let common = per_thread[0]
            .iter()
            .filter(|b| per_thread[1..].iter().all(|s| s.contains(*b)))
            .count();
        assert!(common > 0, "no ownership rotation across threads");
    }

    #[test]
    fn reader_swarm_has_one_writer_at_a_time() {
        let mut wl = multithreaded("torture.reader_swarm", 4, 1).unwrap();
        // Within one rotation window, at most one lane writes.
        let mut writers = HashSet::new();
        for (t, g) in wl.threads.iter_mut().enumerate() {
            for _ in 0..SWARM_ROTATION / 2 {
                if g.next_ref().write {
                    writers.insert(t);
                }
            }
        }
        assert!(writers.len() <= 1, "concurrent writers: {writers:?}");
    }

    #[test]
    fn phase_mix_switches_behaviour() {
        let mut wl = multithreaded("torture.phase_mix", 2, 1).unwrap();
        // Phase 0 (false sharing) touches few blocks; phase 1 (entry
        // thrash) streams. Distinguish them by footprint.
        let mut phase0 = HashSet::new();
        for _ in 0..PHASE_LEN {
            phase0.insert(wl.threads[0].next_ref().block.0);
        }
        let mut phase1 = HashSet::new();
        for _ in 0..PHASE_LEN {
            phase1.insert(wl.threads[0].next_ref().block.0);
        }
        assert!(phase0.len() < 64, "phase 0 footprint {}", phase0.len());
        assert!(phase1.len() > 500, "phase 1 footprint {}", phase1.len());
    }
}
