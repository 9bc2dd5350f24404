//! Multi-grain Directory (Zebchuk et al., MICRO 2013) — the space-efficiency
//! baseline the paper compares against in Figure 26.
//!
//! MgD stores two entry grains in one array: a *region* entry tracks an
//! entire 1 KB region (16 blocks) privately cached by a single core, while a
//! *block* entry tracks one (potentially shared) block with a full sharer
//! vector. Private-heavy workloads need roughly 1/16th the entries of a
//! conventional sparse directory; shared data degrades to block grain.
//! Evicting a region entry invalidates every tracked block of the region at
//! its owner — MgD therefore still produces DEVs, which is exactly what
//! Figure 26 shows at small directory sizes.

use crate::directory::{AllocOutcome, DirEntry, EvictedEntry};
use zerodev_cache::{Replacement, SetAssoc};
use zerodev_common::{BlockAddr, CoreId};

/// Key-space offset separating region keys from block keys. Any physical
/// block address stays far below this.
const REGION_KEY_OFFSET: u64 = 1 << 52;

fn region_key(block: BlockAddr) -> u64 {
    block.region().0 + REGION_KEY_OFFSET
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MgdEntry {
    Block(DirEntry),
    Region { owner: CoreId, presence: u16 },
}

impl MgdEntry {
    fn is_block(&self) -> bool {
        matches!(self, MgdEntry::Block(_))
    }
    fn is_region(&self) -> bool {
        matches!(self, MgdEntry::Region { .. })
    }
}

/// The dual-grain directory of one socket.
#[derive(Clone, Debug)]
pub struct MultiGrainDir {
    array: SetAssoc<MgdEntry>,
}

impl MultiGrainDir {
    /// Builds an MgD with `entries` total entries at the given associativity.
    pub fn new(entries: usize, ways: usize) -> Self {
        let sets = (entries / ways).next_power_of_two().max(1);
        MultiGrainDir {
            array: SetAssoc::new(sets, ways, Replacement::Nru),
        }
    }

    fn expand_victim(key: u64, entry: MgdEntry, out: &mut Vec<EvictedEntry>) {
        match entry {
            MgdEntry::Block(e) => out.push((BlockAddr(key), e)),
            MgdEntry::Region { owner, presence } => {
                let region = zerodev_common::ids::RegionAddr(key - REGION_KEY_OFFSET);
                for (i, block) in region.blocks().enumerate() {
                    if presence & (1 << i) != 0 {
                        out.push((block, DirEntry::owned(owner)));
                    }
                }
            }
        }
    }

    /// Looks up the tracking information for `block` without promotion.
    pub fn peek(&self, block: BlockAddr) -> Option<DirEntry> {
        let array = &self.array;
        if let Some(MgdEntry::Block(e)) =
            array.peek(block.0, MgdEntry::is_block).map(|i| array.at(i))
        {
            return Some(*e);
        }
        if let Some(MgdEntry::Region { owner, presence }) = array
            .peek(region_key(block), MgdEntry::is_region)
            .map(|i| array.at(i))
        {
            if presence & (1 << block.region_offset()) != 0 {
                return Some(DirEntry::owned(*owner));
            }
        }
        None
    }

    fn insert_raw(&mut self, key: u64, entry: MgdEntry, victims: &mut Vec<EvictedEntry>) {
        if let (_, Some((vkey, ventry))) = self.array.insert(key, entry, |_| false) {
            Self::expand_victim(vkey, ventry, victims);
        }
    }

    /// Allocates tracking for a previously untracked block.
    ///
    /// Single-core owned (M/E) blocks prefer region-grain tracking: they
    /// join an existing region entry of the same owner for free, or allocate
    /// a new region entry. Shared or S-state blocks get block-grain entries.
    pub fn allocate(&mut self, block: BlockAddr, entry: DirEntry) -> AllocOutcome {
        debug_assert!(self.peek(block).is_none(), "allocate over live entry");
        let mut victims = Vec::new();
        let single_owner = entry.owner();
        match single_owner {
            Some(core) => {
                let rkey = region_key(block);
                match self
                    .array
                    .touch(rkey, MgdEntry::is_region)
                    .map(|i| self.array.at_mut(i))
                {
                    Some(MgdEntry::Region { owner, presence }) if *owner == core => {
                        *presence |= 1 << block.region_offset();
                    }
                    Some(MgdEntry::Region { .. }) => {
                        // Region owned by someone else: block grain.
                        self.insert_raw(block.0, MgdEntry::Block(entry), &mut victims);
                    }
                    _ => {
                        self.insert_raw(
                            rkey,
                            MgdEntry::Region {
                                owner: core,
                                presence: 1 << block.region_offset(),
                            },
                            &mut victims,
                        );
                    }
                }
            }
            None => {
                self.insert_raw(block.0, MgdEntry::Block(entry), &mut victims);
            }
        }
        if victims.is_empty() {
            AllocOutcome::Stored
        } else {
            AllocOutcome::Evicted(victims)
        }
    }

    /// Rewrites the tracking for a live block. A region-covered block whose
    /// sharer set changes is broken out into a block-grain entry.
    pub fn update(&mut self, block: BlockAddr, entry: DirEntry) -> Vec<EvictedEntry> {
        let mut victims = Vec::new();
        if let Some(MgdEntry::Block(e)) = self
            .array
            .peek(block.0, MgdEntry::is_block)
            .map(|i| self.array.at_mut(i))
        {
            *e = entry;
            return victims;
        }
        let rkey = region_key(block);
        let still_region_private = {
            match self
                .array
                .peek(rkey, MgdEntry::is_region)
                .map(|i| self.array.at(i))
            {
                Some(MgdEntry::Region { owner, presence }) => {
                    assert!(
                        presence & (1 << block.region_offset()) != 0,
                        "update of untracked block {block:?}"
                    );
                    entry.owner() == Some(*owner)
                }
                _ => panic!("update of untracked block {block:?}"),
            }
        };
        if still_region_private {
            // Same single owner, state change only: region covers it.
            return victims;
        }
        // Break the block out of the region.
        self.clear_region_bit(block);
        self.insert_raw(block.0, MgdEntry::Block(entry), &mut victims);
        victims
    }

    fn clear_region_bit(&mut self, block: BlockAddr) {
        let rkey = region_key(block);
        let empty = match self
            .array
            .peek(rkey, MgdEntry::is_region)
            .map(|i| self.array.at_mut(i))
        {
            Some(MgdEntry::Region { presence, .. }) => {
                *presence &= !(1 << block.region_offset());
                *presence == 0
            }
            _ => return,
        };
        if empty {
            let _ = self.array.remove(rkey, MgdEntry::is_region);
        }
    }

    /// Removes the tracking for `block` (all private copies gone).
    pub fn remove(&mut self, block: BlockAddr) -> Option<DirEntry> {
        if let Some((_, MgdEntry::Block(e))) = self.array.remove(block.0, MgdEntry::is_block) {
            return Some(e);
        }
        let view = self.peek(block)?;
        self.clear_region_bit(block);
        Some(view)
    }

    /// Live entries in the array (regions count once).
    pub fn live_entries(&self) -> usize {
        self.array.len()
    }

    /// Serializes the array into a machine image.
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        self.array.snapshot_with(w, |w, _, e| match e {
            MgdEntry::Block(entry) => {
                w.u8(0);
                entry.snap(w);
            }
            MgdEntry::Region { owner, presence } => {
                w.u8(1);
                w.u16(owner.0);
                w.u16(*presence);
            }
        });
    }

    /// Restores a [`MultiGrainDir::snap`] image into this directory, which
    /// must have the same geometry (freshly built from the same
    /// configuration).
    ///
    /// # Errors
    /// Fails with a structural [`zerodev_common::snap::SnapError`] on
    /// geometry mismatch or decode error.
    pub fn unsnap(
        &mut self,
        r: &mut zerodev_common::snap::SnapReader<'_>,
    ) -> Result<(), zerodev_common::snap::SnapError> {
        use zerodev_common::snap::SnapError;
        self.array
            .restore_with(r, |r, _| match r.u8("mgd entry tag")? {
                0 => Ok(MgdEntry::Block(DirEntry::unsnap(r)?)),
                1 => Ok(MgdEntry::Region {
                    owner: CoreId(r.u16("mgd region owner")?),
                    presence: r.u16("mgd region presence")?,
                }),
                _ => Err(SnapError::Corrupt {
                    context: "mgd entry tag",
                }),
            })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_common::ids::SharerSet;
    use zerodev_common::DirState;

    fn mgd() -> MultiGrainDir {
        MultiGrainDir::new(64, 4)
    }

    /// The region entry covering `block` in the array: (owner, presence).
    fn region(d: &MultiGrainDir, block: BlockAddr) -> Option<(CoreId, u16)> {
        let slot = d.array.peek(region_key(block), MgdEntry::is_region)?;
        match *d.array.at(slot) {
            MgdEntry::Region { owner, presence } => Some((owner, presence)),
            MgdEntry::Block(_) => None,
        }
    }

    #[test]
    fn private_blocks_share_one_region_entry() {
        let mut d = mgd();
        for i in 0..16u64 {
            assert_eq!(
                d.allocate(BlockAddr(0x100 + i), DirEntry::owned(CoreId(2))),
                AllocOutcome::Stored
            );
        }
        assert_eq!(d.live_entries(), 1, "16 blocks, one region entry");
        assert_eq!(region(&d, BlockAddr(0x100)), Some((CoreId(2), 0xffff)));
        let e = d.peek(BlockAddr(0x105)).unwrap();
        assert_eq!(e.owner(), Some(CoreId(2)));
    }

    #[test]
    fn shared_blocks_use_block_grain() {
        let mut d = mgd();
        let e = DirEntry {
            state: DirState::Shared,
            sharers: [CoreId(0), CoreId(1)].into_iter().collect(),
        };
        assert_eq!(d.allocate(BlockAddr(7), e), AllocOutcome::Stored);
        assert_eq!(d.peek(BlockAddr(7)).unwrap().sharers.count(), 2);
        assert_eq!(region(&d, BlockAddr(7)), None);
    }

    #[test]
    fn foreign_owner_in_region_uses_block_grain() {
        let mut d = mgd();
        d.allocate(BlockAddr(0x100), DirEntry::owned(CoreId(0)));
        // Another core owns a different block of the same region.
        d.allocate(BlockAddr(0x101), DirEntry::owned(CoreId(1)));
        assert_eq!(d.live_entries(), 2);
        assert_eq!(d.peek(BlockAddr(0x101)).unwrap().owner(), Some(CoreId(1)));
        assert_eq!(d.peek(BlockAddr(0x100)).unwrap().owner(), Some(CoreId(0)));
    }

    #[test]
    fn sharing_breaks_block_out_of_region() {
        let mut d = mgd();
        d.allocate(BlockAddr(0x100), DirEntry::owned(CoreId(0)));
        d.allocate(BlockAddr(0x101), DirEntry::owned(CoreId(0)));
        let mut e = d.peek(BlockAddr(0x100)).unwrap();
        e.state = DirState::Shared;
        e.sharers.insert(CoreId(3));
        let victims = d.update(BlockAddr(0x100), e);
        assert!(victims.is_empty());
        // Only 0x101's presence bit is left in the region entry.
        assert_eq!(region(&d, BlockAddr(0x100)), Some((CoreId(0), 0b10)));
        assert_eq!(d.peek(BlockAddr(0x100)).unwrap().sharers.count(), 2);
        // The other region block is still region-tracked.
        assert_eq!(d.peek(BlockAddr(0x101)).unwrap().owner(), Some(CoreId(0)));
        assert_eq!(d.live_entries(), 2);
    }

    #[test]
    fn same_owner_state_change_stays_in_region() {
        let mut d = mgd();
        d.allocate(BlockAddr(0x100), DirEntry::owned(CoreId(0)));
        // E→M is invisible to the directory; updating with the same owner
        // keeps region tracking.
        let victims = d.update(BlockAddr(0x100), DirEntry::owned(CoreId(0)));
        assert!(victims.is_empty());
        assert_eq!(region(&d, BlockAddr(0x100)), Some((CoreId(0), 0b1)));
    }

    #[test]
    fn region_eviction_expands_to_block_victims() {
        // 1 set × 1 way: every allocation conflicts.
        let mut d = MultiGrainDir::new(1, 1);
        d.allocate(BlockAddr(0x100), DirEntry::owned(CoreId(0)));
        d.allocate(BlockAddr(0x103), DirEntry::owned(CoreId(0)));
        assert_eq!(d.live_entries(), 1);
        // A shared block evicts the region entry → 2 block victims (DEVs).
        let e = DirEntry {
            state: DirState::Shared,
            sharers: SharerSet::only(CoreId(1)),
        };
        match d.allocate(BlockAddr(0x900), e) {
            AllocOutcome::Evicted(victims) => {
                assert_eq!(victims.len(), 2);
                let blocks: Vec<u64> = victims.iter().map(|(b, _)| b.0).collect();
                assert!(blocks.contains(&0x100) && blocks.contains(&0x103));
                assert!(victims.iter().all(|(_, e)| e.owner() == Some(CoreId(0))));
            }
            other => panic!("expected region expansion, got {other:?}"),
        }
    }

    #[test]
    fn remove_clears_region_bits_and_entry() {
        let mut d = mgd();
        d.allocate(BlockAddr(0x100), DirEntry::owned(CoreId(0)));
        d.allocate(BlockAddr(0x101), DirEntry::owned(CoreId(0)));
        assert!(d.remove(BlockAddr(0x100)).is_some());
        assert_eq!(d.peek(BlockAddr(0x100)), None);
        assert_eq!(d.live_entries(), 1);
        assert!(d.remove(BlockAddr(0x101)).is_some());
        assert_eq!(d.live_entries(), 0, "empty region entry freed");
        assert!(d.remove(BlockAddr(0x101)).is_none());
    }

    #[test]
    fn remove_block_grain() {
        let mut d = mgd();
        d.allocate(BlockAddr(5), DirEntry::shared(CoreId(0)));
        assert!(d.remove(BlockAddr(5)).is_some());
        assert_eq!(d.live_entries(), 0);
    }
}
