//! SecDir (Yan et al., ISCA 2019) — the side-channel-mitigation baseline the
//! paper compares against in Figure 27.
//!
//! SecDir divides the sparse directory into a *shared* partition plus one
//! *private* partition per core. A new entry starts in the shared partition;
//! an entry evicted from the shared partition migrates into the private
//! partitions of the cores caching the block. Cross-core conflicts therefore
//! never directly invalidate another core's blocks — but migrations can
//! *self-conflict* inside a private partition, and those private-partition
//! evictions still produce DEVs (the weakness §I-A2 of the ZeroDEV paper
//! points out).

use crate::directory::{AllocOutcome, DirEntry, EvictedEntry};
use zerodev_cache::{Replacement, SetAssoc};
use zerodev_common::config::SecDirGeometry;
use zerodev_common::ids::SharerSet;
use zerodev_common::FlatMap;
use zerodev_common::{BlockAddr, CoreId, DirState};

/// A private-partition entry: tracks that the partition's core caches the
/// block, plus whether it is the owner. No sharer list is needed, which is
/// how SecDir saves bits (and why its iso-storage entry count is higher).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PrivEntry {
    owned: bool,
}

/// Where a block's tracking currently resides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Residency {
    Shared,
    Private,
}

/// The SecDir structure of one socket.
#[derive(Clone, Debug)]
pub struct SecDir {
    shared: SetAssoc<DirEntry>,
    private: Vec<SetAssoc<PrivEntry>>,
    /// Fast residency index (performance only; the arrays are authoritative
    /// for conflicts).
    index: FlatMap<Residency>,
}

impl SecDir {
    /// Builds SecDir from per-slice geometry, scaled to a monolithic array.
    ///
    /// The geometry fields are per-slice, and the paper puts one slice
    /// beside each LLC bank, so the caller passes the bank count as
    /// `slices` and each partition's sets are multiplied by it.
    pub fn new(geom: SecDirGeometry, cores: usize, slices: usize) -> Self {
        let shared_sets = (geom.shared_sets * slices).next_power_of_two();
        let private_sets = (geom.private_sets * slices).next_power_of_two();
        SecDir {
            shared: SetAssoc::new(shared_sets, geom.shared_ways, Replacement::Nru),
            private: (0..cores)
                .map(|_| SetAssoc::new(private_sets, geom.private_ways, Replacement::Nru))
                .collect(),
            index: FlatMap::new(),
        }
    }

    fn merged_private_view(&self, block: BlockAddr) -> Option<DirEntry> {
        let mut sharers = SharerSet::EMPTY;
        let mut owned = false;
        for (c, part) in self.private.iter().enumerate() {
            if let Some(slot) = part.peek(block.0, |_| true) {
                sharers.insert(CoreId(c as u16));
                owned |= part.at(slot).owned;
            }
        }
        if sharers.is_empty() {
            None
        } else {
            Some(DirEntry {
                state: if owned {
                    DirState::OwnedME
                } else {
                    DirState::Shared
                },
                sharers,
            })
        }
    }

    /// Looks up without touching replacement state.
    pub fn peek(&self, block: BlockAddr) -> Option<DirEntry> {
        match self.index.get(block.0)? {
            Residency::Shared => self
                .shared
                .peek(block.0, |_| true)
                .map(|i| *self.shared.at(i)),
            Residency::Private => self.merged_private_view(block),
        }
    }

    /// Migrates a shared-partition victim into the private partitions of its
    /// sharers, collecting any private-partition victims as evicted entries.
    fn migrate(&mut self, block: BlockAddr, entry: DirEntry, victims: &mut Vec<EvictedEntry>) {
        self.index.insert(block.0, Residency::Private);
        let owned = entry.state.is_owned();
        for core in entry.sharers.iter() {
            let part = &mut self.private[core.0 as usize];
            if let (_, Some((vkey, vpe))) = part.insert(block.0, PrivEntry { owned }, |_| false) {
                // Self-conflict: this core loses its copy of the victim block.
                let vblock = BlockAddr(vkey);
                victims.push((
                    vblock,
                    DirEntry {
                        state: if vpe.owned {
                            DirState::OwnedME
                        } else {
                            DirState::Shared
                        },
                        sharers: SharerSet::only(core),
                    },
                ));
                // If that was the block's last private trace, drop the index.
                if self.merged_private_view(vblock).is_none() {
                    self.index.remove(vblock.0);
                }
            }
        }
        // All sharers may have failed to land (victim chains); if nothing
        // landed the block is untracked now.
        if self.merged_private_view(block).is_none() {
            self.index.remove(block.0);
        }
    }

    /// Allocates a fresh entry in the shared partition.
    pub fn allocate(&mut self, block: BlockAddr, entry: DirEntry) -> AllocOutcome {
        debug_assert!(self.peek(block).is_none(), "allocate over live entry");
        let mut victims = Vec::new();
        self.index.insert(block.0, Residency::Shared);
        if let (_, Some((vkey, ventry))) = self.shared.insert(block.0, entry, |_| false) {
            let vblock = BlockAddr(vkey);
            self.index.remove(vblock.0);
            self.migrate(vblock, ventry, &mut victims);
        }
        if victims.is_empty() {
            AllocOutcome::Stored
        } else {
            AllocOutcome::Evicted(victims)
        }
    }

    /// Rewrites the entry for a live block.
    ///
    /// A shared-resident entry is updated in place. A partition-split entry
    /// that gains a new sharer must be re-consolidated into the shared
    /// partition (private entries cannot grow sharer lists), which may evict
    /// a shared victim and trigger migrations.
    pub fn update(&mut self, block: BlockAddr, entry: DirEntry) -> Vec<EvictedEntry> {
        let mut victims = Vec::new();
        match self.index.get(block.0).copied() {
            Some(Residency::Shared) => {
                let slot = self
                    .shared
                    .peek(block.0, |_| true)
                    .expect("index says shared");
                *self.shared.at_mut(slot) = entry;
            }
            Some(Residency::Private) => {
                let current = self.merged_private_view(block).expect("index says private");
                let grew = entry.sharers.iter().any(|c| !current.sharers.contains(c));
                if grew {
                    // Consolidate: pull private traces, re-allocate shared.
                    for part in &mut self.private {
                        let _ = part.remove(block.0, |_| true);
                    }
                    self.index.remove(block.0);
                    match self.allocate(block, entry) {
                        AllocOutcome::Evicted(mut v) => victims.append(&mut v),
                        AllocOutcome::Stored => {}
                        AllocOutcome::Overflow => unreachable!("SecDir never overflows"),
                    }
                } else {
                    // Shrink / state change: adjust private entries in place.
                    let owned = entry.state.is_owned();
                    for (c, part) in self.private.iter_mut().enumerate() {
                        let core = CoreId(c as u16);
                        if entry.sharers.contains(core) {
                            if let Some(slot) = part.peek(block.0, |_| true) {
                                part.at_mut(slot).owned = owned && entry.owner() == Some(core);
                            }
                        } else {
                            let _ = part.remove(block.0, |_| true);
                        }
                    }
                    if self.merged_private_view(block).is_none() {
                        self.index.remove(block.0);
                    }
                }
            }
            None => panic!("update of untracked block {block:?}"),
        }
        victims
    }

    /// Removes every trace of `block`.
    pub fn remove(&mut self, block: BlockAddr) -> Option<DirEntry> {
        match self.index.remove(block.0)? {
            Residency::Shared => self.shared.remove(block.0, |_| true).map(|(_, e)| e),
            Residency::Private => {
                let view = self.merged_private_view(block);
                for part in &mut self.private {
                    let _ = part.remove(block.0, |_| true);
                }
                view
            }
        }
    }

    /// Live entries across all partitions.
    pub fn live_entries(&self) -> usize {
        self.shared.len() + self.private.iter().map(|p| p.len()).sum::<usize>()
    }

    /// Serializes all partitions and the residency index into a machine
    /// image.
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        self.shared.snapshot_with(w, |w, _, e| e.snap(w));
        w.usize(self.private.len());
        for part in &self.private {
            part.snapshot_with(w, |w, _, p| w.bool(p.owned));
        }
        self.index.snapshot_with(w, |w, res| {
            w.u8(match res {
                Residency::Shared => 0,
                Residency::Private => 1,
            });
        });
    }

    /// Restores a [`SecDir::snap`] image into this structure, which must
    /// have the same geometry (freshly built from the same configuration).
    ///
    /// # Errors
    /// Fails with a structural [`zerodev_common::snap::SnapError`] on
    /// geometry mismatch or decode error.
    pub fn unsnap(
        &mut self,
        r: &mut zerodev_common::snap::SnapReader<'_>,
    ) -> Result<(), zerodev_common::snap::SnapError> {
        use zerodev_common::snap::SnapError;
        self.shared.restore_with(r, |r, _| DirEntry::unsnap(r))?;
        if r.usize("secdir partition count")? != self.private.len() {
            return Err(SnapError::Corrupt {
                context: "secdir partition count",
            });
        }
        for part in self.private.iter_mut() {
            part.restore_with(r, |r, _| {
                Ok(PrivEntry {
                    owned: r.bool("secdir priv owned")?,
                })
            })?;
        }
        self.index
            .restore_with(r, |r| match r.u8("secdir residency")? {
                0 => Ok(Residency::Shared),
                1 => Ok(Residency::Private),
                _ => Err(SnapError::Corrupt {
                    context: "secdir residency",
                }),
            })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SecDir {
        // 8 cores, per-slice 1-set/1-way shared, 1-set/1-way private → after
        // the ×8 slice scaling: 8-set/1-way shared, 8-set/1-way private.
        SecDir::new(
            SecDirGeometry {
                shared_sets: 1,
                shared_ways: 1,
                private_sets: 1,
                private_ways: 1,
            },
            8,
            8,
        )
    }

    #[test]
    fn allocate_and_lookup() {
        let mut sd = tiny();
        let b = BlockAddr(3);
        assert_eq!(
            sd.allocate(b, DirEntry::owned(CoreId(2))),
            AllocOutcome::Stored
        );
        assert_eq!(sd.peek(b).unwrap().owner(), Some(CoreId(2)));
        assert_eq!(sd.live_entries(), 1);
    }

    #[test]
    fn shared_conflict_migrates_not_evicts() {
        let mut sd = tiny();
        // Same shared set (8 sets): blocks 1 and 9 collide.
        let b1 = BlockAddr(1);
        let b2 = BlockAddr(9);
        sd.allocate(b1, DirEntry::owned(CoreId(0)));
        let out = sd.allocate(b2, DirEntry::owned(CoreId(1)));
        // b1 migrated to core 0's private partition: no DEV.
        assert_eq!(out, AllocOutcome::Stored);
        assert_eq!(sd.index.get(b1.0), Some(&Residency::Private));
        assert_eq!(sd.peek(b1).unwrap().sharers.count(), 1);
        assert!(sd.peek(b1).unwrap().state.is_owned());
        assert_eq!(sd.peek(b2).unwrap().owner(), Some(CoreId(1)));
    }

    #[test]
    fn private_self_conflict_produces_victim() {
        let mut sd = tiny();
        // Private partitions have 8 sets × 1 way. Force two migrations of
        // same-core blocks that collide in the private partition.
        let a = BlockAddr(1); // shared set 1, private set 1
        let b = BlockAddr(17); // shared set 1, private set 1
        let c = BlockAddr(9); // shared set 1, private set 1
        sd.allocate(a, DirEntry::owned(CoreId(0)));
        // a migrates to core0 private set 1.
        sd.allocate(c, DirEntry::owned(CoreId(0)));
        // c migrates too → self-conflict with a → DEV victim (a, core0).
        let out = sd.allocate(b, DirEntry::owned(CoreId(0)));
        match out {
            AllocOutcome::Evicted(victims) => {
                assert_eq!(victims.len(), 1);
                assert_eq!(victims[0].0, a);
                assert_eq!(victims[0].1.sharers.any(), Some(CoreId(0)));
            }
            other => panic!("expected private victim, got {other:?}"),
        }
        assert_eq!(sd.peek(a), None, "victim untracked now");
    }

    #[test]
    fn update_in_shared_partition() {
        let mut sd = tiny();
        let b = BlockAddr(5);
        sd.allocate(b, DirEntry::owned(CoreId(1)));
        let mut e = sd.peek(b).unwrap();
        e.state = DirState::Shared;
        e.sharers.insert(CoreId(3));
        assert!(sd.update(b, e).is_empty());
        assert_eq!(sd.peek(b).unwrap().sharers.count(), 2);
    }

    #[test]
    fn split_entry_grows_by_consolidation() {
        let mut sd = tiny();
        let b1 = BlockAddr(1);
        let b2 = BlockAddr(9);
        sd.allocate(b1, DirEntry::owned(CoreId(0)));
        sd.allocate(b2, DirEntry::owned(CoreId(1))); // b1 now private-split
                                                     // A new core reads b1: sharers grow → consolidation back to shared.
        let mut e = sd.peek(b1).unwrap();
        e.state = DirState::Shared;
        e.sharers.insert(CoreId(4));
        let _victims = sd.update(b1, e);
        let view = sd.peek(b1).unwrap();
        assert_eq!(view.sharers.count(), 2);
        assert!(view.sharers.contains(CoreId(4)));
    }

    #[test]
    fn split_entry_shrinks_in_place() {
        let mut sd = tiny();
        let b1 = BlockAddr(1);
        let b2 = BlockAddr(9);
        sd.allocate(
            b1,
            DirEntry {
                state: DirState::Shared,
                sharers: [CoreId(0), CoreId(1)].into_iter().collect(),
            },
        );
        sd.allocate(b2, DirEntry::owned(CoreId(2))); // b1 splits to 2 privates
        let mut e = sd.peek(b1).unwrap();
        e.sharers.remove(CoreId(0));
        assert!(sd.update(b1, e).is_empty());
        assert_eq!(
            sd.peek(b1).unwrap().sharers.iter().collect::<Vec<_>>(),
            vec![CoreId(1)]
        );
        // Removing the last sharer goes through remove().
        assert!(sd.remove(b1).is_some());
        assert_eq!(sd.peek(b1), None);
    }

    #[test]
    fn remove_shared_resident() {
        let mut sd = tiny();
        let b = BlockAddr(2);
        sd.allocate(b, DirEntry::shared(CoreId(0)));
        assert!(sd.remove(b).is_some());
        assert_eq!(sd.live_entries(), 0);
        assert!(sd.remove(b).is_none());
    }
}
