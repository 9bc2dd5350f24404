//! LLC banks with ZeroDEV line states.
//!
//! Besides ordinary valid/dirty data lines, a ZeroDEV LLC line can be a
//! *spilled* directory entry occupying a full line in the same set as its
//! block (state V=0, D=1, b0=1 in the paper's encoding) or a *fused* line
//! carrying both the block and its directory entry (V=0, D=1, b0=0), §III-C.
//!
//! The bank exposes victim selection with a *protected* predicate so the
//! `dataLRU` policy (§III-D1) can victimise every ordinary data/code line
//! before any spilled or fused entry.

use crate::directory::DirEntry;
use zerodev_cache::{Replacement, SetAssoc};
use zerodev_common::config::LlcReplacement;
use zerodev_common::{BlockAddr, Cycle, Divisor};

/// One LLC line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LlcLine {
    /// An ordinary cached block (V=1; D = `dirty`).
    Data {
        /// Block modified relative to memory.
        dirty: bool,
    },
    /// A spilled directory entry occupying a full line (V=0, D=1, b0=1).
    Spilled {
        /// The directory entry stored in the data array.
        entry: DirEntry,
    },
    /// A block line whose low bits hold its own directory entry
    /// (V=0, D=1, b0=0). `block_dirty` is the preserved D bit (b1).
    Fused {
        /// The fused directory entry.
        entry: DirEntry,
        /// Whether the block bits are dirty relative to memory.
        block_dirty: bool,
    },
}

impl LlcLine {
    /// True for lines that carry the block itself (data or fused).
    pub fn holds_block(&self) -> bool {
        matches!(self, LlcLine::Data { .. } | LlcLine::Fused { .. })
    }

    /// True for lines holding a directory entry (spilled or fused).
    pub fn holds_entry(&self) -> bool {
        matches!(self, LlcLine::Spilled { .. } | LlcLine::Fused { .. })
    }

    /// The directory entry, if this line holds one.
    pub fn entry(&self) -> Option<DirEntry> {
        match self {
            LlcLine::Spilled { entry } | LlcLine::Fused { entry, .. } => Some(*entry),
            LlcLine::Data { .. } => None,
        }
    }

    /// Serializes the line for checkpointing.
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        match self {
            LlcLine::Data { dirty } => {
                w.u8(0);
                w.bool(*dirty);
            }
            LlcLine::Spilled { entry } => {
                w.u8(1);
                entry.snap(w);
            }
            LlcLine::Fused { entry, block_dirty } => {
                w.u8(2);
                entry.snap(w);
                w.bool(*block_dirty);
            }
        }
    }

    /// Decodes a [`LlcLine::snap`] image.
    ///
    /// # Errors
    /// Fails with a decode [`zerodev_common::snap::SnapError`] on a bad
    /// line tag or truncated input.
    pub fn unsnap(
        r: &mut zerodev_common::snap::SnapReader<'_>,
    ) -> Result<LlcLine, zerodev_common::snap::SnapError> {
        match r.u8("llc line tag")? {
            0 => Ok(LlcLine::Data {
                dirty: r.bool("llc line dirty")?,
            }),
            1 => Ok(LlcLine::Spilled {
                entry: DirEntry::unsnap(r)?,
            }),
            2 => Ok(LlcLine::Fused {
                entry: DirEntry::unsnap(r)?,
                block_dirty: r.bool("llc fused block_dirty")?,
            }),
            _ => Err(zerodev_common::snap::SnapError::Corrupt {
                context: "llc line tag",
            }),
        }
    }
}

/// A line evicted from an LLC bank.
pub type LlcVictim = (BlockAddr, LlcLine);

/// Outcome of [`LlcBank::spill_entry`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpillOutcome {
    /// An existing spilled line was rewritten in place.
    Updated,
    /// A new line was allocated (possibly displacing a victim).
    Inserted(Option<LlcVictim>),
    /// The set had no line the spill may displace — the only resident
    /// candidate was the entry's own block data line, which a spill must
    /// never victimise. The entry comes back to the caller, who sends it
    /// home via WB_DE instead (reachable only in degenerate, e.g. 1-way,
    /// geometries).
    Refused(DirEntry),
}

impl SpillOutcome {
    /// The displaced victim, if a new line evicted one.
    pub fn victim(self) -> Option<LlcVictim> {
        match self {
            SpillOutcome::Updated | SpillOutcome::Refused(_) => None,
            SpillOutcome::Inserted(v) => v,
        }
    }
}

/// One LLC bank: a set-associative array of [`LlcLine`]s plus a port
/// busy-time used for bank-contention modelling.
#[derive(Debug)]
pub struct LlcBank {
    array: SetAssoc<LlcLine>,
    banks: Divisor,
    bank_index: u64,
    /// Earliest time the bank's tag/data port is free again.
    pub port_free: Cycle,
}

zerodev_common::fieldwise_clone!(LlcBank {
    array,
    banks,
    bank_index,
    port_free,
});

impl LlcBank {
    /// Creates a bank of `sets × ways` lines. `banks`/`bank_index` describe
    /// the bank interleaving so block addresses can be converted to
    /// bank-local keys and back.
    pub fn new(sets: usize, ways: usize, banks: usize, bank_index: usize) -> Self {
        LlcBank {
            array: SetAssoc::new(sets, ways, Replacement::Lru),
            banks: Divisor::new(banks as u64),
            bank_index: bank_index as u64,
            port_free: Cycle::ZERO,
        }
    }

    #[inline]
    fn key(&self, block: BlockAddr) -> u64 {
        debug_assert_eq!(
            self.banks.remainder(block.0),
            self.bank_index,
            "block homed here"
        );
        self.banks.quotient(block.0)
    }

    #[inline]
    fn block_of(&self, key: u64) -> BlockAddr {
        BlockAddr(key * self.banks.get() + self.bank_index)
    }

    /// The protection predicate for a replacement policy: under `dataLRU`
    /// spilled and fused lines are protected; under plain LRU and `spLRU`
    /// nothing is (spLRU protects by recency ordering instead).
    fn protected(policy: LlcReplacement) -> impl Fn(&LlcLine) -> bool {
        move |line: &LlcLine| policy == LlcReplacement::DataLru && line.holds_entry()
    }

    /// The block-holding line (data or fused) for `block`, if present.
    pub fn block_line(&self, block: BlockAddr) -> Option<LlcLine> {
        self.array
            .peek(self.key(block), LlcLine::holds_block)
            .copied()
    }

    /// The spilled entry for `block`, if present.
    pub fn spilled_entry(&self, block: BlockAddr) -> Option<DirEntry> {
        self.array
            .peek(self.key(block), |l| matches!(l, LlcLine::Spilled { .. }))
            .and_then(|l| l.entry())
    }

    /// The block-holding line and the spilled entry for `block` — what
    /// [`Self::block_line`] and [`Self::spilled_entry`] return — from one
    /// scan of its set.
    pub fn lines_for(&self, block: BlockAddr) -> (Option<LlcLine>, Option<DirEntry>) {
        let (mut line, mut spilled) = (None, None);
        for l in self.array.matches(self.key(block)) {
            match l {
                LlcLine::Spilled { entry } => {
                    spilled.get_or_insert(*entry);
                }
                _ => {
                    line.get_or_insert(*l);
                }
            }
        }
        (line, spilled)
    }

    /// The directory entry held anywhere in this bank for `block`
    /// (fused or spilled).
    pub fn entry_for(&self, block: BlockAddr) -> Option<DirEntry> {
        match self.lines_for(block) {
            (Some(LlcLine::Fused { entry, .. }), _) => Some(entry),
            (_, spilled) => spilled,
        }
    }

    /// Promotes the block's line; under `spLRU` the spilled entry (if any)
    /// is promoted *after* the block so the entry ends up more recent — the
    /// paper's update rule guaranteeing the block is evicted first.
    pub fn touch_block(&mut self, block: BlockAddr, policy: LlcReplacement) {
        let key = self.key(block);
        let _ = self.array.touch(key, LlcLine::holds_block);
        if policy == LlcReplacement::SpLru {
            let _ = self
                .array
                .touch(key, |l| matches!(l, LlcLine::Spilled { .. }));
        }
    }

    /// Promotes only the spilled/fused entry line for `block`.
    pub fn touch_entry(&mut self, block: BlockAddr) {
        let key = self.key(block);
        if self
            .array
            .touch(key, |l| matches!(l, LlcLine::Spilled { .. }))
            .is_none()
        {
            let _ = self
                .array
                .touch(key, |l| matches!(l, LlcLine::Fused { .. }));
        }
    }

    /// Inserts (or overwrites) the data line for `block`. Returns the
    /// evicted victim, if the insertion displaced one.
    pub fn fill_data(
        &mut self,
        block: BlockAddr,
        dirty: bool,
        policy: LlcReplacement,
    ) -> Option<LlcVictim> {
        let key = self.key(block);
        if let Some(line) = self.array.peek_mut(key, LlcLine::holds_block) {
            match line {
                LlcLine::Data { dirty: d } => *d = *d || dirty,
                LlcLine::Fused { block_dirty, .. } => *block_dirty = *block_dirty || dirty,
                LlcLine::Spilled { .. } => unreachable!("holds_block excludes spilled"),
            }
            let _ = self.array.touch(key, LlcLine::holds_block);
            return None;
        }
        self.array
            .insert(key, LlcLine::Data { dirty }, Self::protected(policy))
            .map(|(k, line)| (self.block_of(k), line))
    }

    /// Inserts a spilled directory entry for `block` (or updates it in
    /// place). Reports whether a new line was allocated and which victim it
    /// displaced, so callers can keep exact occupancy accounting.
    pub fn spill_entry(
        &mut self,
        block: BlockAddr,
        entry: DirEntry,
        policy: LlcReplacement,
    ) -> SpillOutcome {
        let key = self.key(block);
        if let Some(LlcLine::Spilled { entry: e }) = self
            .array
            .peek_mut(key, |l| matches!(l, LlcLine::Spilled { .. }))
        {
            *e = entry;
            return SpillOutcome::Updated;
        }
        // The spill must never displace its own block's data line: under an
        // inclusive LLC that would back-invalidate the private copies (one
        // of which may be a requester whose grant is still in flight) and
        // free the very entry being installed.
        match self.array.insert_excluding(
            key,
            LlcLine::Spilled { entry },
            Self::protected(policy),
            |k, line| k == key && line.holds_block(),
        ) {
            Ok(evicted) => {
                SpillOutcome::Inserted(evicted.map(|(k, line)| (self.block_of(k), line)))
            }
            Err(line) => match line {
                LlcLine::Spilled { entry } => SpillOutcome::Refused(entry),
                _ => unreachable!("the refused payload is the spill we submitted"),
            },
        }
    }

    /// Fuses `entry` into the existing block line for `block`.
    ///
    /// # Panics
    /// Panics when the block line is absent (callers check
    /// [`Self::block_line`] first).
    pub fn fuse_entry(&mut self, block: BlockAddr, entry: DirEntry) {
        let key = self.key(block);
        let line = self
            .array
            .peek_mut(key, LlcLine::holds_block)
            .expect("fuse requires a resident block line");
        *line = match *line {
            LlcLine::Data { dirty } => LlcLine::Fused {
                entry,
                block_dirty: dirty,
            },
            LlcLine::Fused { block_dirty, .. } => LlcLine::Fused { entry, block_dirty },
            LlcLine::Spilled { .. } => unreachable!("holds_block excludes spilled"),
        };
    }

    /// Reverts a fused line to a plain data line (the entry was freed and
    /// the block bits were reconstructed from the evicting core's low bits).
    /// Returns the entry that was fused.
    ///
    /// # Panics
    /// Panics when the line is not fused.
    pub fn unfuse(&mut self, block: BlockAddr) -> DirEntry {
        let key = self.key(block);
        let line = self
            .array
            .peek_mut(key, |l| matches!(l, LlcLine::Fused { .. }))
            .expect("unfuse requires a fused line");
        let LlcLine::Fused { entry, block_dirty } = *line else {
            unreachable!("predicate matched fused");
        };
        *line = LlcLine::Data { dirty: block_dirty };
        entry
    }

    /// Removes the spilled entry line for `block`, returning its entry.
    pub fn remove_spilled(&mut self, block: BlockAddr) -> Option<DirEntry> {
        let key = self.key(block);
        self.array
            .remove(key, |l| matches!(l, LlcLine::Spilled { .. }))
            .and_then(|l| l.entry())
    }

    /// Removes the block-holding line for `block` (EPD deallocation on a
    /// block turning private, or explicit invalidation).
    pub fn remove_block(&mut self, block: BlockAddr) -> Option<LlcLine> {
        let key = self.key(block);
        self.array.remove(key, LlcLine::holds_block)
    }

    /// Iterates over all valid lines as `(block, line)` (diagnostics and
    /// invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &LlcLine)> + '_ {
        self.array.iter().map(|(k, l)| (self.block_of(k), l))
    }

    /// The contents of the set `block` maps to, in MRU→LRU order (the model
    /// checker's canonical state encoding includes replacement order).
    pub fn set_contents_mru(
        &self,
        block: BlockAddr,
    ) -> impl Iterator<Item = (BlockAddr, LlcLine)> + '_ {
        self.array
            .iter_set(self.key(block))
            .map(|(k, l)| (self.block_of(k), *l))
    }

    /// Number of valid lines.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// True when the bank holds no valid line.
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Number of lines currently holding directory entries (spilled lines
    /// count fully; fused lines cost no extra space so they are not counted)
    /// — feeds the Figure 5 style occupancy measurements.
    pub fn spilled_line_count(&self) -> usize {
        self.array
            .iter()
            .filter(|(_, l)| matches!(l, LlcLine::Spilled { .. }))
            .count()
    }

    /// Serializes the bank contents and port horizon for checkpointing.
    // lint:allow(snapshot_complete(banks, bank_index), interleaving geometry is config-derived; restore targets a bank freshly built from the same configuration)
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        self.array.snapshot_with(w, |w, line| line.snap(w));
        w.u64(self.port_free.0);
    }

    /// Restores a [`LlcBank::snap`] image into this bank, which must have
    /// the same geometry (freshly built from the same configuration).
    ///
    /// # Errors
    /// Fails with a structural [`zerodev_common::snap::SnapError`] on
    /// geometry mismatch or decode error.
    // lint:allow(snapshot_complete(banks, bank_index), interleaving geometry is config-derived; restore targets a bank freshly built from the same configuration)
    pub fn unsnap(
        &mut self,
        r: &mut zerodev_common::snap::SnapReader<'_>,
    ) -> Result<(), zerodev_common::snap::SnapError> {
        self.array.restore_with(r, LlcLine::unsnap)?;
        self.port_free = Cycle(r.u64("llc port_free")?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_common::CoreId;

    fn bank(sets: usize, ways: usize) -> LlcBank {
        LlcBank::new(sets, ways, 8, 3)
    }

    fn blk(i: u64) -> BlockAddr {
        // Blocks homed at bank 3 of 8.
        BlockAddr(i * 8 + 3)
    }

    #[test]
    fn fill_and_lookup() {
        let mut b = bank(4, 2);
        assert!(b.fill_data(blk(0), false, LlcReplacement::Lru).is_none());
        assert_eq!(b.block_line(blk(0)), Some(LlcLine::Data { dirty: false }));
        assert_eq!(b.block_line(blk(1)), None);
        // Refill marks dirty, does not duplicate.
        assert!(b.fill_data(blk(0), true, LlcReplacement::Lru).is_none());
        assert_eq!(b.block_line(blk(0)), Some(LlcLine::Data { dirty: true }));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn lru_eviction_returns_victim_block() {
        let mut b = bank(1, 2);
        b.fill_data(blk(0), true, LlcReplacement::Lru);
        b.fill_data(blk(1), false, LlcReplacement::Lru);
        let victim = b.fill_data(blk(2), false, LlcReplacement::Lru).unwrap();
        assert_eq!(victim, (blk(0), LlcLine::Data { dirty: true }));
    }

    #[test]
    fn spill_and_block_coexist() {
        let mut b = bank(4, 4);
        let e = DirEntry::shared(CoreId(1));
        b.fill_data(blk(0), false, LlcReplacement::DataLru);
        assert!(b
            .spill_entry(blk(0), e, LlcReplacement::DataLru)
            .victim()
            .is_none());
        assert!(b.block_line(blk(0)).is_some());
        assert_eq!(b.spilled_entry(blk(0)), Some(e));
        assert_eq!(b.entry_for(blk(0)), Some(e));
        assert_eq!(b.spilled_line_count(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn spill_update_in_place() {
        let mut b = bank(4, 4);
        let mut e = DirEntry::shared(CoreId(1));
        b.spill_entry(blk(0), e, LlcReplacement::DataLru);
        e.sharers.insert(CoreId(2));
        assert!(b
            .spill_entry(blk(0), e, LlcReplacement::DataLru)
            .victim()
            .is_none());
        assert_eq!(b.spilled_entry(blk(0)).unwrap().sharers.count(), 2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn spill_refused_when_only_candidate_is_own_block_line() {
        // 1-way degenerate set: the only resident line is the entry's own
        // block data line, which a spill must never displace. The entry
        // comes back for the caller to WB_DE home.
        let mut b = bank(1, 1);
        b.fill_data(blk(0), true, LlcReplacement::Lru);
        let e = DirEntry::owned(CoreId(0));
        match b.spill_entry(blk(0), e, LlcReplacement::Lru) {
            SpillOutcome::Refused(got) => assert_eq!(got, e),
            other => panic!("expected refusal, got {other:?}"),
        }
        assert_eq!(b.block_line(blk(0)), Some(LlcLine::Data { dirty: true }));
        assert_eq!(b.spilled_entry(blk(0)), None);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn spill_displaces_other_blocks_line_in_one_way_set() {
        // Same 1-way geometry, but the resident line belongs to a different
        // block: it is fair game and the spill lands.
        let mut b = bank(1, 1);
        b.fill_data(blk(1), false, LlcReplacement::Lru);
        let e = DirEntry::owned(CoreId(0));
        match b.spill_entry(blk(0), e, LlcReplacement::Lru) {
            SpillOutcome::Inserted(victim) => {
                assert_eq!(victim, Some((blk(1), LlcLine::Data { dirty: false })));
            }
            other => panic!("expected insertion, got {other:?}"),
        }
        assert_eq!(b.spilled_entry(blk(0)), Some(e));
    }

    #[test]
    fn data_lru_protects_entries() {
        let mut b = bank(1, 2);
        let e = DirEntry::owned(CoreId(0));
        b.spill_entry(blk(0), e, LlcReplacement::DataLru);
        b.fill_data(blk(1), false, LlcReplacement::DataLru);
        // The spilled entry is LRU-most but protected: the data line goes.
        let victim = b.fill_data(blk(2), false, LlcReplacement::DataLru).unwrap();
        assert_eq!(victim.0, blk(1));
        // Another spill still finds the remaining data line to victimise.
        let e2 = DirEntry::owned(CoreId(1));
        let victim = b
            .spill_entry(blk(3), e2, LlcReplacement::DataLru)
            .victim()
            .unwrap();
        assert_eq!(victim.0, blk(2));
        assert!(victim.1.holds_block());
        // Now the set holds only spilled entries: the next insert must
        // finally sacrifice one (the WB_DE case).
        let e3 = DirEntry::owned(CoreId(2));
        let victim = b
            .spill_entry(blk(4), e3, LlcReplacement::DataLru)
            .victim()
            .unwrap();
        assert!(victim.1.holds_entry());
    }

    #[test]
    fn sp_lru_orders_entry_above_block() {
        let mut b = bank(1, 3);
        let e = DirEntry::shared(CoreId(0));
        b.spill_entry(blk(0), e, LlcReplacement::SpLru);
        b.fill_data(blk(0), false, LlcReplacement::SpLru);
        b.fill_data(blk(1), false, LlcReplacement::SpLru);
        // Touch block 0: under spLRU the spilled entry is bumped above it.
        b.touch_block(blk(0), LlcReplacement::SpLru);
        // Evict twice: block 1 (LRU-most), then block 0 — never the entry.
        let v1 = b.fill_data(blk(2), false, LlcReplacement::SpLru).unwrap();
        assert_eq!(v1.0, blk(1));
        let v2 = b.fill_data(blk(3), false, LlcReplacement::SpLru).unwrap();
        assert_eq!(v2.0, blk(0));
        assert!(v2.1.holds_block());
        assert_eq!(b.spilled_entry(blk(0)), Some(e));
    }

    #[test]
    fn plain_lru_can_evict_entry_before_block() {
        let mut b = bank(1, 2);
        let e = DirEntry::shared(CoreId(0));
        b.spill_entry(blk(0), e, LlcReplacement::Lru);
        b.fill_data(blk(0), false, LlcReplacement::Lru);
        // Under plain LRU the entry is LRU-most and unprotected.
        let victim = b.fill_data(blk(1), false, LlcReplacement::Lru).unwrap();
        assert!(victim.1.holds_entry(), "plain LRU sacrifices the entry");
    }

    #[test]
    fn fuse_and_unfuse() {
        let mut b = bank(4, 2);
        b.fill_data(blk(0), true, LlcReplacement::DataLru);
        let e = DirEntry::owned(CoreId(5));
        b.fuse_entry(blk(0), e);
        match b.block_line(blk(0)) {
            Some(LlcLine::Fused { entry, block_dirty }) => {
                assert_eq!(entry, e);
                assert!(block_dirty);
            }
            other => panic!("expected fused, got {other:?}"),
        }
        assert_eq!(b.entry_for(blk(0)), Some(e));
        assert_eq!(b.spilled_line_count(), 0, "fusion costs no extra line");
        let back = b.unfuse(blk(0));
        assert_eq!(back, e);
        assert_eq!(b.block_line(blk(0)), Some(LlcLine::Data { dirty: true }));
    }

    #[test]
    #[should_panic(expected = "fuse requires")]
    fn fuse_without_block_panics() {
        let mut b = bank(4, 2);
        b.fuse_entry(blk(0), DirEntry::owned(CoreId(0)));
    }

    #[test]
    fn remove_operations() {
        let mut b = bank(4, 4);
        let e = DirEntry::shared(CoreId(0));
        b.fill_data(blk(0), false, LlcReplacement::DataLru);
        b.spill_entry(blk(0), e, LlcReplacement::DataLru);
        assert_eq!(b.remove_spilled(blk(0)), Some(e));
        assert_eq!(b.remove_spilled(blk(0)), None);
        assert!(b.remove_block(blk(0)).is_some());
        assert!(b.is_empty());
    }

    #[test]
    fn line_predicates() {
        let d = LlcLine::Data { dirty: false };
        let s = LlcLine::Spilled {
            entry: DirEntry::owned(CoreId(0)),
        };
        let f = LlcLine::Fused {
            entry: DirEntry::owned(CoreId(0)),
            block_dirty: false,
        };
        assert!(d.holds_block() && !d.holds_entry());
        assert!(!s.holds_block() && s.holds_entry());
        assert!(f.holds_block() && f.holds_entry());
        assert!(d.entry().is_none());
        assert!(s.entry().is_some());
    }

    #[test]
    fn key_and_block_of_match_reference_division_on_odd_bank_count() {
        for index in 0..3u64 {
            let b = LlcBank::new(4, 2, 3, index as usize);
            for block in (0..3000u64).map(|i| i * 3 + index) {
                let key = b.key(BlockAddr(block));
                assert_eq!(key, block / 3, "block {block}");
                assert_eq!(b.block_of(key), BlockAddr(block));
            }
        }
        let mut b = LlcBank::new(4, 2, 3, 2);
        b.fill_data(BlockAddr(3 * 41 + 2), true, LlcReplacement::Lru);
        let blocks: Vec<u64> = b.iter().map(|(a, _)| a.0).collect();
        assert_eq!(blocks, vec![3 * 41 + 2]);
    }

    #[test]
    fn lines_for_reports_block_line_and_spilled_entry_together() {
        let mut b = bank(2, 4);
        let e = DirEntry::shared(CoreId(2));
        assert_eq!(b.lines_for(blk(0)), (None, None));
        b.spill_entry(blk(0), e, LlcReplacement::DataLru);
        assert_eq!(b.lines_for(blk(0)), (None, Some(e)));
        b.fill_data(blk(0), true, LlcReplacement::DataLru);
        b.fill_data(blk(2), false, LlcReplacement::DataLru); // same set, other tag
        assert_eq!(
            b.lines_for(blk(0)),
            (Some(LlcLine::Data { dirty: true }), Some(e))
        );
        b.remove_spilled(blk(0));
        let f = DirEntry::owned(CoreId(1));
        b.fuse_entry(blk(0), f);
        let fused = LlcLine::Fused {
            entry: f,
            block_dirty: true,
        };
        assert_eq!(b.lines_for(blk(0)), (Some(fused), None));
        assert_eq!(b.entry_for(blk(0)), Some(f));
    }

    #[test]
    fn iter_reports_block_addresses() {
        let mut b = bank(4, 2);
        b.fill_data(blk(0), false, LlcReplacement::Lru);
        b.fill_data(blk(5), true, LlcReplacement::Lru);
        let mut blocks: Vec<u64> = b.iter().map(|(a, _)| a.0).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![blk(0).0, blk(5).0]);
    }
}

#[cfg(test)]
mod recency_tests {
    use super::*;
    use zerodev_common::CoreId;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr(i * 8 + 3)
    }

    #[test]
    fn touch_entry_protects_spilled_line_under_plain_lru() {
        let mut b = LlcBank::new(1, 3, 8, 3);
        let e = DirEntry::shared(CoreId(0));
        b.spill_entry(blk(0), e, LlcReplacement::Lru);
        b.fill_data(blk(1), false, LlcReplacement::Lru);
        b.fill_data(blk(2), false, LlcReplacement::Lru);
        // The spilled entry is LRU-most; touching it promotes it.
        b.touch_entry(blk(0));
        let victim = b.fill_data(blk(4), false, LlcReplacement::Lru).unwrap();
        assert_eq!(victim.0, blk(1), "touched entry outlives older data");
        assert_eq!(b.spilled_entry(blk(0)), Some(e));
    }

    #[test]
    fn touch_entry_promotes_fused_line() {
        let mut b = LlcBank::new(1, 2, 8, 3);
        b.fill_data(blk(0), false, LlcReplacement::Lru);
        b.fuse_entry(blk(0), DirEntry::owned(CoreId(1)));
        b.fill_data(blk(1), false, LlcReplacement::Lru);
        b.touch_entry(blk(0)); // falls through to the fused line
        let victim = b.fill_data(blk(2), false, LlcReplacement::Lru).unwrap();
        assert_eq!(victim.0, blk(1));
        assert!(b.entry_for(blk(0)).is_some());
    }

    #[test]
    fn port_free_field_tracks_occupancy() {
        let mut b = LlcBank::new(4, 2, 8, 3);
        assert_eq!(b.port_free, Cycle::ZERO);
        b.port_free = Cycle(100);
        assert_eq!(b.port_free, Cycle(100));
    }
}
