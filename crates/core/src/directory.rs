//! Directory entries and the dedicated directory structures.
//!
//! [`DirStore`] is the *dedicated* (SRAM) directory structure of one socket:
//! the traditional sparse directory, the idealised unbounded directory, the
//! SecDir and Multi-grain baselines, or nothing at all. ZeroDEV's LLC-resident
//! entries are *not* stored here — they live in [`crate::llc::LlcBank`] lines;
//! the lookup across both happens in [`crate::system::System`].

use crate::mgd::MultiGrainDir;
use crate::secdir::SecDir;
use zerodev_cache::{Replacement, SetAssoc};
use zerodev_common::config::{DirectoryKind, SecDirGeometry, SystemConfig};
use zerodev_common::ids::SharerSet;
use zerodev_common::FlatMap;
use zerodev_common::{BlockAddr, CoreId, DirState};

/// One coherence-directory entry: the state and location(s) of a block that
/// is privately cached by at least one core of the socket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DirEntry {
    /// M/E (single owner) or S (one or more sharers).
    pub state: DirState,
    /// Full-map sharer vector (the owner for M/E entries).
    pub sharers: SharerSet,
}

impl DirEntry {
    /// A fresh entry for a block just granted to `core` in M or E.
    pub fn owned(core: CoreId) -> Self {
        DirEntry {
            state: DirState::OwnedME,
            sharers: SharerSet::only(core),
        }
    }

    /// A fresh entry for a block granted to `core` in S.
    pub fn shared(core: CoreId) -> Self {
        DirEntry {
            state: DirState::Shared,
            sharers: SharerSet::only(core),
        }
    }

    /// The owning core, when the entry is in the M/E state.
    pub fn owner(&self) -> Option<CoreId> {
        if self.state.is_owned() {
            self.sharers.any()
        } else {
            None
        }
    }

    /// True when no core holds a copy any more (the entry can be freed).
    pub fn is_dead(&self) -> bool {
        self.sharers.is_empty()
    }

    /// Serializes the entry for checkpointing.
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        w.u8(match self.state {
            DirState::OwnedME => 0,
            DirState::Shared => 1,
        });
        w.u128(self.sharers.0);
    }

    /// Decodes a [`DirEntry::snap`] image.
    ///
    /// # Errors
    /// Fails with a decode [`zerodev_common::snap::SnapError`] on a bad
    /// state tag or truncated input.
    pub fn unsnap(
        r: &mut zerodev_common::snap::SnapReader<'_>,
    ) -> Result<DirEntry, zerodev_common::snap::SnapError> {
        let state = match r.u8("dir entry state")? {
            0 => DirState::OwnedME,
            1 => DirState::Shared,
            _ => {
                return Err(zerodev_common::snap::SnapError::Corrupt {
                    context: "dir entry state",
                })
            }
        };
        Ok(DirEntry {
            state,
            sharers: SharerSet(r.u128("dir entry sharers")?),
        })
    }
}

/// A directory entry forcibly evicted from a dedicated structure, together
/// with the block it was tracking. In the baseline protocol every private
/// copy it tracked must be invalidated — these invalidations are the DEVs.
pub type EvictedEntry = (BlockAddr, DirEntry);

/// Result of trying to place a new entry in the dedicated directory.
#[derive(Debug, PartialEq, Eq)]
pub enum AllocOutcome {
    /// Entry stored in the dedicated structure without casualties.
    Stored,
    /// Entry stored, but one or more victim entries were evicted to make
    /// room (baseline behaviour; SecDir migrations and Multi-grain region
    /// breakups can evict several at once).
    Evicted(Vec<EvictedEntry>),
    /// The structure refused the entry (replacement-disabled and full, or a
    /// directory-less configuration); ZeroDEV must accommodate it in the LLC.
    Overflow,
}

/// The dedicated directory structure of one socket.
#[derive(Clone, Debug)]
pub enum DirStore {
    /// Traditional set-associative sparse directory (1-bit NRU).
    Sparse {
        /// Monolithic array (equivalent to the per-bank slices of the paper;
        /// same index bits, same conflict behaviour).
        array: SetAssoc<DirEntry>,
        /// Set under ZeroDEV: overflow instead of evicting (§III-C4).
        replacement_disabled: bool,
    },
    /// Idealised unlimited-capacity directory.
    Unbounded(FlatMap<DirEntry>),
    /// No dedicated structure (ZeroDEV "No Dir"): every allocation overflows.
    None,
    /// SecDir baseline.
    SecDir(SecDir),
    /// Multi-grain Directory baseline.
    MultiGrain(MultiGrainDir),
}

impl DirStore {
    /// Builds the directory configured in `cfg` for one socket.
    pub fn build(cfg: &SystemConfig) -> Self {
        match &cfg.directory {
            DirectoryKind::Sparse { ratio, ways } => {
                let entries = cfg.dir_entries(*ratio);
                let sets = (entries / ways).next_power_of_two().max(1);
                DirStore::Sparse {
                    array: SetAssoc::new(sets, *ways, Replacement::Nru),
                    replacement_disabled: cfg.zerodev.is_some(),
                }
            }
            DirectoryKind::Unbounded => DirStore::Unbounded(FlatMap::new()),
            DirectoryKind::None => DirStore::None,
            DirectoryKind::SecDir(geom) => {
                DirStore::SecDir(SecDir::new(*geom, cfg.cores, cfg.llc_banks))
            }
            DirectoryKind::MultiGrain { ratio, ways } => {
                let entries = cfg.dir_entries(*ratio);
                DirStore::MultiGrain(MultiGrainDir::new(entries, *ways))
            }
        }
    }

    /// Picks the SecDir geometry for a machine/ratio pair (the paper's
    /// iso-storage configurations).
    pub fn secdir_geometry(cores: usize, eighth: bool) -> SecDirGeometry {
        match (cores >= 128, eighth) {
            (false, false) => SecDirGeometry::eight_core_1x(),
            (false, true) => SecDirGeometry::eight_core_eighth(),
            (true, false) => SecDirGeometry::server_1x(),
            (true, true) => SecDirGeometry::server_eighth(),
        }
    }

    /// Looks up the entry for `block` without touching replacement state.
    pub fn peek(&self, block: BlockAddr) -> Option<DirEntry> {
        match self {
            DirStore::Sparse { array, .. } => array.peek(block.0, |_| true).map(|i| *array.at(i)),
            DirStore::Unbounded(map) => map.get(block.0).copied(),
            DirStore::None => None,
            DirStore::SecDir(sd) => sd.peek(block),
            DirStore::MultiGrain(mgd) => mgd.peek(block),
        }
    }

    /// Overwrites the entry for `block` with the new sharer set / state.
    /// The entry must already be present.
    ///
    /// Returns any victim entries the reshaping evicted (SecDir may have to
    /// re-consolidate a partition-split entry into its shared partition;
    /// Multi-grain may have to break a block out of a region entry).
    ///
    /// # Panics
    /// Panics when the entry is absent (protocol invariant violation) or
    /// `entry` is dead.
    pub fn update(&mut self, block: BlockAddr, entry: DirEntry) -> Vec<EvictedEntry> {
        assert!(
            !entry.is_dead(),
            "dead entries must be removed, not updated"
        );
        match self {
            DirStore::Sparse { array, .. } => {
                let slot = array
                    .peek(block.0, |_| true)
                    .expect("updated entry present in sparse directory");
                *array.at_mut(slot) = entry;
                Vec::new()
            }
            DirStore::Unbounded(map) => {
                let e = map.get_mut(block.0).expect("updated entry present");
                *e = entry;
                Vec::new()
            }
            DirStore::None => panic!("no dedicated directory to update"),
            DirStore::SecDir(sd) => sd.update(block, entry),
            DirStore::MultiGrain(mgd) => mgd.update(block, entry),
        }
    }

    /// Removes and returns the entry for `block` (all private copies gone).
    pub fn remove(&mut self, block: BlockAddr) -> Option<DirEntry> {
        match self {
            DirStore::Sparse { array, .. } => array.remove(block.0, |_| true).map(|(_, e)| e),
            DirStore::Unbounded(map) => map.remove(block.0),
            DirStore::None => None,
            DirStore::SecDir(sd) => sd.remove(block),
            DirStore::MultiGrain(mgd) => mgd.remove(block),
        }
    }

    /// Allocates a new entry for a previously untracked block.
    pub fn allocate(&mut self, block: BlockAddr, entry: DirEntry) -> AllocOutcome {
        debug_assert!(self.peek(block).is_none(), "allocate over live entry");
        match self {
            DirStore::Sparse {
                array,
                replacement_disabled,
            } => {
                if *replacement_disabled {
                    match array.insert_no_evict(block.0, entry) {
                        Ok(_) => AllocOutcome::Stored,
                        Err(_) => AllocOutcome::Overflow,
                    }
                } else {
                    match array.insert(block.0, entry, |_| false).1 {
                        None => AllocOutcome::Stored,
                        Some((key, victim)) => {
                            AllocOutcome::Evicted(vec![(BlockAddr(key), victim)])
                        }
                    }
                }
            }
            DirStore::Unbounded(map) => {
                map.insert(block.0, entry);
                AllocOutcome::Stored
            }
            DirStore::None => AllocOutcome::Overflow,
            DirStore::SecDir(sd) => sd.allocate(block, entry),
            DirStore::MultiGrain(mgd) => mgd.allocate(block, entry),
        }
    }

    /// Current number of live dedicated-structure entries (diagnostics).
    pub fn live_entries(&self) -> usize {
        match self {
            DirStore::Sparse { array, .. } => array.len(),
            DirStore::Unbounded(map) => map.len(),
            DirStore::None => 0,
            DirStore::SecDir(sd) => sd.live_entries(),
            DirStore::MultiGrain(mgd) => mgd.live_entries(),
        }
    }

    /// Serializes the directory contents for checkpointing. Geometry is
    /// rebuilt from configuration on restore; only occupancy is written.
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        match self {
            DirStore::Sparse {
                array,
                replacement_disabled,
            } => {
                w.u8(0);
                w.bool(*replacement_disabled);
                array.snapshot_with(w, |w, _, e| e.snap(w));
            }
            DirStore::Unbounded(map) => {
                w.u8(1);
                map.snapshot_with(w, |w, e| e.snap(w));
            }
            DirStore::None => w.u8(2),
            DirStore::SecDir(sd) => {
                w.u8(3);
                sd.snap(w);
            }
            DirStore::MultiGrain(mgd) => {
                w.u8(4);
                mgd.snap(w);
            }
        }
    }

    /// Restores a [`DirStore::snap`] image into this store, which must have
    /// been freshly built from the same configuration ([`DirStore::build`]).
    ///
    /// # Errors
    /// Fails with a structural [`zerodev_common::snap::SnapError`] when the
    /// image's directory kind or geometry disagrees with this store.
    pub fn unsnap(
        &mut self,
        r: &mut zerodev_common::snap::SnapReader<'_>,
    ) -> Result<(), zerodev_common::snap::SnapError> {
        use zerodev_common::snap::SnapError;
        let tag = r.u8("dirstore kind")?;
        match (tag, self) {
            (
                0,
                DirStore::Sparse {
                    array,
                    replacement_disabled,
                },
            ) => {
                if r.bool("dirstore replacement_disabled")? != *replacement_disabled {
                    return Err(SnapError::Corrupt {
                        context: "dirstore replacement_disabled",
                    });
                }
                array.restore_with(r, |r, _| DirEntry::unsnap(r))
            }
            (1, DirStore::Unbounded(map)) => map.restore_with(r, DirEntry::unsnap),
            (2, DirStore::None) => Ok(()),
            (3, DirStore::SecDir(sd)) => sd.unsnap(r),
            (4, DirStore::MultiGrain(mgd)) => mgd.unsnap(r),
            _ => Err(SnapError::Corrupt {
                context: "dirstore kind",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_common::config::{Ratio, ZeroDevConfig};

    fn cfg() -> SystemConfig {
        SystemConfig::baseline_8core()
    }

    fn small_sparse(ways: usize, zerodev: bool) -> (DirStore, usize) {
        let mut c = cfg();
        c.directory = DirectoryKind::Sparse {
            ratio: Ratio::new(1, 1024),
            ways,
        };
        c.zerodev = zerodev.then(ZeroDevConfig::default);
        let d = DirStore::build(&c);
        let sets = match &d {
            DirStore::Sparse { array, .. } => array.sets(),
            _ => unreachable!(),
        };
        (d, sets)
    }

    #[test]
    fn entry_constructors() {
        let e = DirEntry::owned(CoreId(3));
        assert_eq!(e.owner(), Some(CoreId(3)));
        assert!(!e.is_dead());
        let s = DirEntry::shared(CoreId(1));
        assert_eq!(s.owner(), None);
        assert_eq!(s.state, DirState::Shared);
    }

    #[test]
    fn sparse_store_roundtrip() {
        let mut d = DirStore::build(&cfg());
        let b = BlockAddr(0x42);
        assert_eq!(d.peek(b), None);
        assert_eq!(
            d.allocate(b, DirEntry::owned(CoreId(1))),
            AllocOutcome::Stored
        );
        assert_eq!(d.peek(b).unwrap().owner(), Some(CoreId(1)));
        let mut e = d.peek(b).unwrap();
        e.sharers.insert(CoreId(2));
        e.state = DirState::Shared;
        assert!(d.update(b, e).is_empty());
        assert_eq!(d.peek(b).unwrap().sharers.count(), 2);
        assert!(d.remove(b).is_some());
        assert_eq!(d.peek(b), None);
        assert_eq!(d.live_entries(), 0);
    }

    #[test]
    fn sparse_conflict_evicts() {
        let (mut d, sets) = small_sparse(2, false);
        let blocks: Vec<BlockAddr> = (0..3).map(|i| BlockAddr(i * sets as u64)).collect();
        assert_eq!(
            d.allocate(blocks[0], DirEntry::owned(CoreId(0))),
            AllocOutcome::Stored
        );
        assert_eq!(
            d.allocate(blocks[1], DirEntry::owned(CoreId(1))),
            AllocOutcome::Stored
        );
        match d.allocate(blocks[2], DirEntry::owned(CoreId(2))) {
            AllocOutcome::Evicted(victims) => {
                assert_eq!(victims.len(), 1);
                let (block, entry) = victims[0];
                assert!(block == blocks[0] || block == blocks[1]);
                assert!(entry.owner().is_some());
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(d.live_entries(), 2);
    }

    #[test]
    fn replacement_disabled_overflows() {
        let (mut d, sets) = small_sparse(2, true);
        for i in 0..2 {
            assert_eq!(
                d.allocate(BlockAddr(i * sets as u64), DirEntry::owned(CoreId(0))),
                AllocOutcome::Stored
            );
        }
        assert_eq!(
            d.allocate(BlockAddr(2 * sets as u64), DirEntry::owned(CoreId(0))),
            AllocOutcome::Overflow
        );
        assert_eq!(d.live_entries(), 2);
    }

    #[test]
    fn none_always_overflows() {
        let mut d = DirStore::None;
        assert_eq!(
            d.allocate(BlockAddr(1), DirEntry::owned(CoreId(0))),
            AllocOutcome::Overflow
        );
        assert_eq!(d.live_entries(), 0);
        assert_eq!(d.peek(BlockAddr(1)), None);
        assert_eq!(d.remove(BlockAddr(1)), None);
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut d = DirStore::Unbounded(FlatMap::new());
        for i in 0..10_000u64 {
            assert_eq!(
                d.allocate(BlockAddr(i), DirEntry::shared(CoreId(0))),
                AllocOutcome::Stored
            );
        }
        assert_eq!(d.live_entries(), 10_000);
    }

    #[test]
    #[should_panic(expected = "dead entries")]
    fn update_rejects_dead_entry() {
        let mut d = DirStore::build(&cfg());
        let b = BlockAddr(7);
        d.allocate(b, DirEntry::owned(CoreId(0)));
        let mut e = d.peek(b).unwrap();
        e.sharers.remove(CoreId(0));
        let _ = d.update(b, e);
    }

    #[test]
    fn secdir_geometry_selection() {
        let g = DirStore::secdir_geometry(8, false);
        assert_eq!(g.shared_ways, 5);
        let g = DirStore::secdir_geometry(128, true);
        assert_eq!(g.shared_sets, 32);
    }
}
