//! The private cache hierarchy of one core.
//!
//! Each core has split 32 KB L1I/L1D caches and a unified 256 KB L2
//! (Table I), all LRU. The L2 is the coherence point tracked by the
//! directory; the L1s are inclusive presence filters beneath it. All L2
//! evictions are notified to the uncore (clean notices are dataless),
//! keeping the directory exact — the protocol relies on this (§III-A).

use zerodev_cache::{Replacement, SetAssoc};
use zerodev_common::snap::{SnapError, SnapReader, SnapWriter};
use zerodev_common::{BlockAddr, CoreId, Cycle, MesiState, SocketId, SystemConfig};
use zerodev_core::{EvictKind, Op, System};
use zerodev_workloads::MemRef;

/// An L2 line: the MESI state of this core's copy.
#[derive(Clone, Copy, Debug)]
struct L2Line {
    state: MesiState,
}

/// Effects of one core access that the engine must apply to *other* cores.
#[derive(Debug, Default)]
pub struct AccessEffects {
    /// Latency spent in the private hierarchy (never overlapped).
    pub latency: u64,
    /// Latency spent in the uncore (overlappable: the engine divides this
    /// by the workload's memory-level parallelism before stalling the core).
    pub uncore_latency: u64,
    /// Invalidations to apply across the machine.
    pub invalidations: Vec<zerodev_core::Invalidation>,
    /// Downgrades to apply across the machine.
    pub downgrades: Vec<zerodev_core::Downgrade>,
}

/// One core's private hierarchy.
#[derive(Debug)]
pub struct CoreModel {
    socket: SocketId,
    core: CoreId,
    l1i: SetAssoc<()>,
    l1d: SetAssoc<()>,
    l2: SetAssoc<L2Line>,
}

impl CoreModel {
    /// Builds the hierarchy for one core of the machine in `cfg`.
    pub fn new(cfg: &SystemConfig, socket: SocketId, core: CoreId) -> Self {
        CoreModel {
            socket,
            core,
            l1i: SetAssoc::new(cfg.l1i.sets(), cfg.l1i.ways, Replacement::Lru),
            l1d: SetAssoc::new(cfg.l1d.sets(), cfg.l1d.ways, Replacement::Lru),
            l2: SetAssoc::new(cfg.l2.sets(), cfg.l2.ways, Replacement::Lru),
        }
    }

    /// The MESI state of this core's copy of `block` (Invalid if absent).
    pub fn state_of(&self, block: BlockAddr) -> MesiState {
        self.l2
            .peek(block.0, |_| true)
            .map_or(MesiState::Invalid, |i| self.l2.at(i).state)
    }

    /// Serializes the private hierarchy lane-exactly for checkpointing (the
    /// ids are config-derived and rebuilt by [`Self::new`], not stored).
    // lint:allow(snapshot_complete(socket, core), ids are config-derived and rebuilt by CoreModel::new)
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        self.l1i.snapshot_with(w, |_, _, ()| {});
        self.l1d.snapshot_with(w, |_, _, ()| {});
        self.l2
            .snapshot_with(w, |w, _, l| w.variant(&MesiState::ALL, &l.state));
    }

    /// Restores a [`Self::snap`] image into this freshly built hierarchy.
    ///
    /// # Errors
    /// Fails with a decode [`SnapError`] on geometry mismatch or corrupt
    /// input.
    // lint:allow(snapshot_complete(socket, core), ids are config-derived and rebuilt by CoreModel::new)
    pub(crate) fn unsnap(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.l1i.restore_with(r, |_, _| Ok(()))?;
        self.l1d.restore_with(r, |_, _| Ok(()))?;
        self.l2.restore_with(r, |r, _| {
            Ok(L2Line {
                state: r.variant(&MesiState::ALL, "l2 line state")?,
            })
        })
    }

    /// Processes one memory reference at time `now`, driving the uncore on
    /// misses and upgrades, and resets and refills the caller-owned effects
    /// buffer for the engine to apply. The engine reuses one buffer across
    /// every reference, so the invalidation/downgrade vectors stop churning
    /// the allocator on the hot path.
    pub fn access_into(&mut self, sys: &mut System, now: Cycle, r: MemRef, fx: &mut AccessEffects) {
        fx.latency = SystemConfig::L1_HIT_CYCLES;
        fx.uncore_latency = 0;
        fx.invalidations.clear();
        fx.downgrades.clear();
        let key = r.block.0;
        let l1 = if r.code { &mut self.l1i } else { &mut self.l1d };
        // The L2 slot of the line, once it is held.
        let mut slot;
        if l1.touch(key, |_| true).is_some() {
            if !r.write {
                // The L2 state matters only to misses and stores.
                return;
            }
            slot = self.l2.peek(key, |_| true);
        } else {
            if r.code {
                sys.stats.l1i_misses += 1;
            } else {
                sys.stats.l1d_misses += 1;
            }
            fx.latency += SystemConfig::L2_HIT_CYCLES;
            // One L2 probe: a hit is promoted as the source of the L1 refill.
            slot = self.l2.touch(key, |_| true);
            if slot.is_none() {
                // Full private-hierarchy miss → uncore.
                let op = if r.write {
                    Op::ReadExclusive
                } else if r.code {
                    Op::CodeRead
                } else {
                    Op::Read
                };
                let (lat, grant) = sys.access_into(
                    now,
                    self.socket,
                    self.core,
                    r.block,
                    op,
                    &mut fx.invalidations,
                    &mut fx.downgrades,
                );
                fx.uncore_latency += lat;
                slot = Some(self.fill_l2(sys, now, r.block, grant, fx));
            }
            // Refill the L1 (inclusive; L1 victims are silent).
            let l1 = if r.code { &mut self.l1i } else { &mut self.l1d };
            let _ = l1.insert(key, (), |_| false);
        }
        // Stores need ownership at the coherence point.
        if r.write {
            let slot = slot.expect("the L1s are inclusive: a held line is in the L2");
            match self.l2.at(slot).state {
                MesiState::Modified => {}
                MesiState::Exclusive => {
                    // Silent E→M upgrade.
                    self.l2.at_mut(slot).state = MesiState::Modified;
                }
                MesiState::Shared => {
                    let (lat, _) = sys.access_into(
                        now,
                        self.socket,
                        self.core,
                        r.block,
                        Op::Upgrade,
                        &mut fx.invalidations,
                        &mut fx.downgrades,
                    );
                    fx.uncore_latency += lat;
                    self.l2.at_mut(slot).state = MesiState::Modified;
                }
                MesiState::Invalid => {
                    unreachable!("write path installed the line above")
                }
            }
        }
    }

    /// Installs a freshly granted line in the L2, notifying the uncore of
    /// the victim (and keeping the L1s inclusive); returns the line's slot.
    fn fill_l2(
        &mut self,
        sys: &mut System,
        now: Cycle,
        block: BlockAddr,
        grant: MesiState,
        fx: &mut AccessEffects,
    ) -> usize {
        debug_assert!(grant.is_valid());
        let (slot, victim) = self.l2.insert(block.0, L2Line { state: grant }, |_| false);
        if let Some((vkey, vline)) = victim {
            let vblock = BlockAddr(vkey);
            // L1 copies of the victim vanish with it (inclusive hierarchy).
            let _ = self.l1i.remove(vkey, |_| true);
            let _ = self.l1d.remove(vkey, |_| true);
            let kind = EvictKind::for_state(vline.state).expect("valid lines only in L2");
            sys.evict_into(
                now,
                self.socket,
                self.core,
                vblock,
                kind,
                &mut fx.invalidations,
            );
        }
        slot
    }

    /// Applies an invalidation from the uncore. Returns the state the line
    /// was in (M lines report their dirty data back to the protocol).
    pub fn apply_invalidation(&mut self, block: BlockAddr) -> MesiState {
        let state = self
            .l2
            .remove(block.0, |_| true)
            .map_or(MesiState::Invalid, |(_, line)| line.state);
        let _ = self.l1i.remove(block.0, |_| true);
        let _ = self.l1d.remove(block.0, |_| true);
        state
    }

    /// Applies a downgrade (M/E → S). Returns the state the line was in
    /// (an M line reports the sharing writeback).
    pub fn apply_downgrade(&mut self, block: BlockAddr) -> MesiState {
        match self.l2.peek(block.0, |_| true) {
            Some(slot) => std::mem::replace(&mut self.l2.at_mut(slot).state, MesiState::Shared),
            None => MesiState::Invalid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_common::config::CacheGeometry;
    use zerodev_workloads::MemRef;

    fn cfg() -> SystemConfig {
        let mut cfg = SystemConfig::baseline_8core();
        cfg.cores = 2;
        cfg.l1i = CacheGeometry::new(1 << 10, 2);
        cfg.l1d = CacheGeometry::new(1 << 10, 2);
        cfg.l2 = CacheGeometry::new(4 << 10, 4);
        cfg.llc = CacheGeometry::new(64 << 10, 4);
        cfg.llc_banks = 2;
        cfg
    }

    fn mk(sys: &System, core: u16) -> CoreModel {
        CoreModel::new(sys.config(), SocketId(0), CoreId(core))
    }

    fn read(b: u64) -> MemRef {
        MemRef {
            block: BlockAddr(b),
            write: false,
            code: false,
            gap: 0,
        }
    }

    fn write(b: u64) -> MemRef {
        MemRef {
            block: BlockAddr(b),
            write: true,
            code: false,
            gap: 0,
        }
    }

    #[test]
    fn l1_hit_is_cheap() {
        let mut sys = System::new(cfg()).unwrap();
        let (mut c, mut fx) = (mk(&sys, 0), AccessEffects::default());
        c.access_into(&mut sys, Cycle(0), read(5), &mut fx);
        assert!(fx.uncore_latency > 100);
        c.access_into(&mut sys, Cycle(10), read(5), &mut fx);
        assert_eq!(fx.latency, SystemConfig::L1_HIT_CYCLES);
        assert_eq!(fx.uncore_latency, 0);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut sys = System::new(cfg()).unwrap();
        let (mut c, mut fx) = (mk(&sys, 0), AccessEffects::default());
        // L1D: 8 sets × 2 ways. Fill one set with 3 blocks: 5, 5+8, 5+16.
        for b in [5, 5 + 8, 5 + 16] {
            c.access_into(&mut sys, Cycle(0), read(b), &mut fx);
        }
        // Block 5 fell out of L1 but is still in L2.
        c.access_into(&mut sys, Cycle(0), read(5), &mut fx);
        assert_eq!(
            fx.latency,
            SystemConfig::L1_HIT_CYCLES + SystemConfig::L2_HIT_CYCLES
        );
    }

    #[test]
    fn write_to_exclusive_is_silent() {
        let mut sys = System::new(cfg()).unwrap();
        let (mut c, mut fx) = (mk(&sys, 0), AccessEffects::default());
        c.access_into(&mut sys, Cycle(0), read(5), &mut fx);
        assert_eq!(c.state_of(BlockAddr(5)), MesiState::Exclusive);
        let before = sys.stats.upgrades;
        c.access_into(&mut sys, Cycle(0), write(5), &mut fx);
        assert_eq!(fx.latency, SystemConfig::L1_HIT_CYCLES);
        assert_eq!(sys.stats.upgrades, before, "no upgrade message for E→M");
        assert_eq!(c.state_of(BlockAddr(5)), MesiState::Modified);
    }

    #[test]
    fn write_to_shared_upgrades() {
        let mut sys = System::new(cfg()).unwrap();
        let mut c0 = mk(&sys, 0);
        let (mut c1, mut fx) = (mk(&sys, 1), AccessEffects::default());
        c0.access_into(&mut sys, Cycle(0), read(5), &mut fx);
        c1.access_into(&mut sys, Cycle(0), read(5), &mut fx);
        assert_eq!(fx.downgrades.len(), 1);
        assert_eq!(fx.downgrades[0].core, CoreId(0));
        // The sole reader held the block clean: the downgrade reports E.
        assert_eq!(c0.apply_downgrade(BlockAddr(5)), MesiState::Exclusive);
        assert_eq!(c0.state_of(BlockAddr(5)), MesiState::Shared);
        c0.access_into(&mut sys, Cycle(0), write(5), &mut fx);
        assert_eq!(sys.stats.upgrades, 1);
        // c1 must be invalidated.
        assert!(fx
            .invalidations
            .iter()
            .any(|i| i.core == CoreId(1) && i.block == BlockAddr(5)));
        c1.apply_invalidation(BlockAddr(5));
        assert_eq!(c1.state_of(BlockAddr(5)), MesiState::Invalid);
        assert_eq!(c0.state_of(BlockAddr(5)), MesiState::Modified);
    }

    #[test]
    fn l2_eviction_notifies_uncore() {
        let mut sys = System::new(cfg()).unwrap();
        let (mut c, mut fx) = (mk(&sys, 0), AccessEffects::default());
        // L2: 16 sets × 4 ways. Overfill one set.
        let sets = sys.config().l2.sets() as u64;
        for i in 0..5 {
            c.access_into(&mut sys, Cycle(0), read(3 + i * sets), &mut fx);
        }
        // The first block was evicted and its entry freed.
        assert!(sys.entry_of(SocketId(0), BlockAddr(3)).is_none());
        assert_eq!(c.state_of(BlockAddr(3)), MesiState::Invalid);
        for i in 1..5 {
            assert!(c.state_of(BlockAddr(3 + i * sets)).is_valid());
        }
    }

    #[test]
    fn dirty_l2_eviction_writes_back() {
        let mut sys = System::new(cfg()).unwrap();
        let (mut c, mut fx) = (mk(&sys, 0), AccessEffects::default());
        let sets = sys.config().l2.sets() as u64;
        c.access_into(&mut sys, Cycle(0), write(3), &mut fx);
        for i in 1..5 {
            c.access_into(&mut sys, Cycle(0), read(3 + i * sets), &mut fx);
        }
        assert!(matches!(
            sys.llc_line_of(SocketId(0), BlockAddr(3)),
            Some(zerodev_core::LlcLine::Data { dirty: true })
        ));
    }

    #[test]
    fn code_reads_use_l1i_and_share() {
        let mut sys = System::new(cfg()).unwrap();
        let mut c0 = mk(&sys, 0);
        let (mut c1, mut fx) = (mk(&sys, 1), AccessEffects::default());
        let code = MemRef {
            block: BlockAddr(7),
            write: false,
            code: true,
            gap: 0,
        };
        c0.access_into(&mut sys, Cycle(0), code, &mut fx);
        assert_eq!(c0.state_of(BlockAddr(7)), MesiState::Shared);
        c1.access_into(&mut sys, Cycle(0), code, &mut fx);
        assert!(fx.downgrades.is_empty(), "code is S-state, no downgrade");
        assert_eq!(c1.state_of(BlockAddr(7)), MesiState::Shared);
    }
}
