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
//!
//! A slot keeps what the hardware keeps in a line's state bits, as a
//! two-byte `LineState` (the kind, the data dirty bit and the entry's
//! [`DirState`]). The sharer set, which the hardware keeps in the data bits
//! of a spilled or fused line, sits in a parallel per-slot lane that only
//! entry lines read or write. [`LlcLine`] is the value every bank method
//! returns.

use crate::directory::DirEntry;
use std::fmt;
use zerodev_cache::{Replacement, SetAssoc};
use zerodev_common::config::LlcReplacement;
use zerodev_common::ids::SharerSet;
use zerodev_common::{BlockAddr, Cycle, DirState, Divisor};

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

    /// Serializes the line into a machine image.
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

/// What one LLC slot records besides its tag: an [`LlcLine`] without the
/// entry's sharer set, which lives in the bank's sharer lane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LineState {
    Data { dirty: bool },
    Spilled { state: DirState },
    Fused { state: DirState, block_dirty: bool },
}

impl LineState {
    fn holds_block(&self) -> bool {
        matches!(self, LineState::Data { .. } | LineState::Fused { .. })
    }

    fn holds_entry(&self) -> bool {
        matches!(self, LineState::Spilled { .. } | LineState::Fused { .. })
    }

    fn is_spilled(&self) -> bool {
        matches!(self, LineState::Spilled { .. })
    }

    fn is_fused(&self) -> bool {
        matches!(self, LineState::Fused { .. })
    }

    /// The slot state of `line`.
    fn of(line: &LlcLine) -> LineState {
        match *line {
            LlcLine::Data { dirty } => LineState::Data { dirty },
            LlcLine::Spilled { entry } => LineState::Spilled { state: entry.state },
            LlcLine::Fused { entry, block_dirty } => LineState::Fused {
                state: entry.state,
                block_dirty,
            },
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

/// One LLC bank: a set-associative array of line states, the sharer lane
/// of its entry lines, and a port busy-time used for bank-contention
/// modelling.
pub struct LlcBank {
    array: SetAssoc<LineState>,
    /// Per slot of `array`: the [`SharerSet`] bits of the spilled or fused
    /// entry the slot holds. Meaningful only while the slot is an entry
    /// line; a data line leaves whatever an earlier entry wrote. Kept as
    /// plain `u128`s so the lane is allocated zeroed: its pages become
    /// resident only once an entry line writes to them.
    sharers: Vec<u128>,
    banks: Divisor,
    bank_index: u64,
    /// Earliest time the bank's tag/data port is free again.
    pub port_free: Cycle,
}

zerodev_common::fieldwise_clone!(LlcBank {
    array,
    sharers,
    banks,
    bank_index,
    port_free,
});

impl fmt::Debug for LlcBank {
    /// Shows the sharer lane only at entry lines: anywhere else it holds
    /// whatever an earlier entry left, which neither the bank's behaviour
    /// nor its image depends on.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sharers = vec![0u128; self.sharers.len()];
        for (_, slot, line) in self.array.iter() {
            if line.holds_entry() {
                sharers[slot] = self.sharers[slot];
            }
        }
        f.debug_struct("LlcBank")
            .field("array", &self.array)
            .field("sharers", &sharers)
            .field("banks", &self.banks)
            .field("bank_index", &self.bank_index)
            .field("port_free", &self.port_free)
            .finish()
    }
}

impl LlcBank {
    /// Creates a bank of `sets × ways` lines. `banks`/`bank_index` describe
    /// the bank interleaving so block addresses can be converted to
    /// bank-local keys and back.
    pub fn new(sets: usize, ways: usize, banks: usize, bank_index: usize) -> Self {
        LlcBank {
            array: SetAssoc::new(sets, ways, Replacement::Lru),
            sharers: vec![0; sets * ways],
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

    /// The entry an entry line in `slot` holds, with state `state`.
    #[inline]
    fn entry_at(&self, slot: usize, state: DirState) -> DirEntry {
        DirEntry {
            state,
            sharers: SharerSet(self.sharers[slot]),
        }
    }

    /// The full line whose state `line` sits in `slot` (a line that has
    /// just left the slot still reads its sharers there).
    #[inline]
    fn line_at(&self, slot: usize, line: LineState) -> LlcLine {
        match line {
            LineState::Data { dirty } => LlcLine::Data { dirty },
            LineState::Spilled { state } => LlcLine::Spilled {
                entry: self.entry_at(slot, state),
            },
            LineState::Fused { state, block_dirty } => LlcLine::Fused {
                entry: self.entry_at(slot, state),
                block_dirty,
            },
        }
    }

    /// The protection predicate for a replacement policy: under `dataLRU`
    /// spilled and fused lines are protected; under plain LRU and `spLRU`
    /// nothing is (spLRU protects by recency ordering instead).
    fn protected(policy: LlcReplacement) -> impl Fn(&LineState) -> bool {
        move |line: &LineState| policy == LlcReplacement::DataLru && line.holds_entry()
    }

    /// The block-holding line (data or fused) for `block`, if present.
    pub fn block_line(&self, block: BlockAddr) -> Option<LlcLine> {
        let slot = self.array.peek(self.key(block), LineState::holds_block)?;
        Some(self.line_at(slot, *self.array.at(slot)))
    }

    /// The spilled entry for `block`, if present.
    pub fn spilled_entry(&self, block: BlockAddr) -> Option<DirEntry> {
        let slot = self.array.peek(self.key(block), LineState::is_spilled)?;
        self.line_at(slot, *self.array.at(slot)).entry()
    }

    /// The block-holding line and the spilled entry for `block` — what
    /// [`Self::block_line`] and [`Self::spilled_entry`] return — from one
    /// scan of its set.
    pub fn lines_for(&self, block: BlockAddr) -> (Option<LlcLine>, Option<DirEntry>) {
        let (mut line, mut spilled) = (None, None);
        for (slot, &l) in self.array.matches(self.key(block)) {
            match l {
                LineState::Spilled { state } => {
                    spilled.get_or_insert_with(|| self.entry_at(slot, state));
                }
                _ => {
                    line.get_or_insert_with(|| self.line_at(slot, l));
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
        let _ = self.array.touch(key, LineState::holds_block);
        if policy == LlcReplacement::SpLru {
            let _ = self.array.touch(key, LineState::is_spilled);
        }
    }

    /// Promotes only the spilled/fused entry line for `block`.
    pub fn touch_entry(&mut self, block: BlockAddr) {
        let key = self.key(block);
        if self.array.touch(key, LineState::is_spilled).is_none() {
            let _ = self.array.touch(key, LineState::is_fused);
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
        if let Some(slot) = self.array.touch(key, LineState::holds_block) {
            match self.array.at_mut(slot) {
                LineState::Data { dirty: d } => *d = *d || dirty,
                LineState::Fused { block_dirty, .. } => *block_dirty = *block_dirty || dirty,
                LineState::Spilled { .. } => unreachable!("holds_block excludes spilled"),
            }
            return None;
        }
        let (slot, victim) =
            self.array
                .insert(key, LineState::Data { dirty }, Self::protected(policy));
        victim.map(|(k, line)| (self.block_of(k), self.line_at(slot, line)))
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
        let line = LineState::Spilled { state: entry.state };
        if let Some(slot) = self.array.peek(key, LineState::is_spilled) {
            *self.array.at_mut(slot) = line;
            self.sharers[slot] = entry.sharers.0;
            return SpillOutcome::Updated;
        }
        // The spill must never displace its own block's data line: under an
        // inclusive LLC that would back-invalidate the private copies (one
        // of which may be a requester whose grant is still in flight) and
        // free the very entry being installed.
        match self
            .array
            .insert_excluding(key, line, Self::protected(policy), |k, l| {
                k == key && l.holds_block()
            }) {
            Ok((slot, evicted)) => {
                // The victim's sharers are read before the entry's overwrite
                // them.
                let victim = evicted.map(|(k, l)| (self.block_of(k), self.line_at(slot, l)));
                self.sharers[slot] = entry.sharers.0;
                SpillOutcome::Inserted(victim)
            }
            Err(_) => SpillOutcome::Refused(entry),
        }
    }

    /// Fuses `entry` into the existing block line for `block`.
    ///
    /// # Panics
    /// Panics when the block line is absent (callers check
    /// [`Self::block_line`] first).
    pub fn fuse_entry(&mut self, block: BlockAddr, entry: DirEntry) {
        let key = self.key(block);
        let slot = self
            .array
            .peek(key, LineState::holds_block)
            .expect("fuse requires a resident block line");
        let line = self.array.at_mut(slot);
        *line = match *line {
            LineState::Data { dirty: block_dirty } | LineState::Fused { block_dirty, .. } => {
                LineState::Fused {
                    state: entry.state,
                    block_dirty,
                }
            }
            LineState::Spilled { .. } => unreachable!("holds_block excludes spilled"),
        };
        self.sharers[slot] = entry.sharers.0;
    }

    /// Reverts a fused line to a plain data line (the entry was freed and
    /// the block bits were reconstructed from the evicting core's low bits).
    /// Returns the entry that was fused.
    ///
    /// # Panics
    /// Panics when the line is not fused.
    pub fn unfuse(&mut self, block: BlockAddr) -> DirEntry {
        let key = self.key(block);
        let slot = self
            .array
            .peek(key, LineState::is_fused)
            .expect("unfuse requires a fused line");
        let line = self.array.at_mut(slot);
        let LineState::Fused { state, block_dirty } = *line else {
            unreachable!("predicate matched fused");
        };
        *line = LineState::Data { dirty: block_dirty };
        self.entry_at(slot, state)
    }

    /// Removes the spilled entry line for `block`, returning its entry.
    pub fn remove_spilled(&mut self, block: BlockAddr) -> Option<DirEntry> {
        let key = self.key(block);
        let (slot, line) = self.array.remove(key, LineState::is_spilled)?;
        self.line_at(slot, line).entry()
    }

    /// Removes the block-holding line for `block` (EPD deallocation on a
    /// block turning private, or explicit invalidation).
    pub fn remove_block(&mut self, block: BlockAddr) -> Option<LlcLine> {
        let key = self.key(block);
        let (slot, line) = self.array.remove(key, LineState::holds_block)?;
        Some(self.line_at(slot, line))
    }

    /// Iterates over all valid lines as `(block, line)` (diagnostics and
    /// invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, LlcLine)> + '_ {
        self.array
            .iter()
            .map(|(k, slot, &l)| (self.block_of(k), self.line_at(slot, l)))
    }

    /// The contents of the set `block` maps to, in MRU→LRU order (the model
    /// checker's canonical state encoding includes replacement order).
    pub fn set_contents_mru(
        &self,
        block: BlockAddr,
    ) -> impl Iterator<Item = (BlockAddr, LlcLine)> + '_ {
        self.array
            .iter_set(self.key(block))
            .map(|(k, slot, &l)| (self.block_of(k), self.line_at(slot, l)))
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
        self.array.iter().filter(|(_, _, l)| l.is_spilled()).count()
    }

    /// Serializes the bank contents and port horizon into a machine image:
    /// each valid slot is written as its whole [`LlcLine`], so the image
    /// does not depend on how the bank stores a line.
    // lint:allow(snapshot_complete(banks, bank_index), interleaving geometry is config-derived; restore targets a bank freshly built from the same configuration)
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        self.array
            .snapshot_with(w, |w, slot, &l| self.line_at(slot, l).snap(w));
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
        let sharers = &mut self.sharers;
        self.array.restore_with(r, |r, slot| {
            let line = LlcLine::unsnap(r)?;
            if let Some(entry) = line.entry() {
                sharers[slot] = entry.sharers.0;
            }
            Ok(LineState::of(&line))
        })?;
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

/// The bank's storage must not show through anything it returns: its
/// image is pinned to the bytes the bank wrote when it stored whole
/// [`LlcLine`]s, and a reference bank kept in that form must agree with it
/// operation for operation.
#[cfg(test)]
mod layout_tests {
    use super::*;
    use zerodev_common::rng::Prng;
    use zerodev_common::snap::{SnapReader, SnapWriter};
    use zerodev_common::CoreId;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr(i * 8 + 3)
    }

    #[test]
    fn an_entry_is_24_bytes_and_a_slot_state_at_most_2() {
        assert_eq!(std::mem::size_of::<DirEntry>(), 24);
        assert!(std::mem::size_of::<Option<LineState>>() <= 2);
    }

    /// Two sets of three ways under spLRU: clean, dirty, spilled and fused
    /// lines, an eviction, a spLRU promotion and a removed line whose stale
    /// tag stays behind, with sharers above core 63.
    fn scripted_bank() -> LlcBank {
        let sp = LlcReplacement::SpLru;
        let mut b = LlcBank::new(2, 3, 8, 3);
        let wide = DirEntry {
            state: DirState::Shared,
            sharers: [1, 64, 127].into_iter().map(CoreId).collect(),
        };
        b.fill_data(blk(0), false, sp);
        b.fill_data(blk(2), true, sp);
        b.spill_entry(blk(0), wide, sp);
        b.touch_block(blk(0), sp);
        let victim = b.fill_data(blk(4), false, sp);
        assert_eq!(victim, Some((blk(2), LlcLine::Data { dirty: true })));
        b.fill_data(blk(1), true, sp);
        b.fuse_entry(blk(1), DirEntry::owned(CoreId(100)));
        b.spill_entry(blk(3), DirEntry::owned(CoreId(7)), sp);
        b.fill_data(blk(5), false, sp);
        b.remove_block(blk(5));
        b.port_free = Cycle(0x1234_5678);
        b
    }

    fn image(b: &LlcBank) -> Vec<u8> {
        let mut w = SnapWriter::image();
        b.snap(&mut w);
        w.as_bytes().to_vec()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// [`scripted_bank`]'s image as written by the bank that stored whole
    /// `LlcLine`s per slot. The layout is pinned for the model checker's
    /// machine images: a change to it must be deliberate.
    const SCRIPTED_BANK_HEX: &str = concat!(
        "0200000000000000030000000000000000050000000000000000000000000000",
        "0002000000000000000000000000000000000000000000000001000000000000",
        "0002000000000000000303030303000102000100000302010000010000010101",
        "0200000000000000010000000000008001020000000000000000000000000010",
        "0000000101010080000000000000000000000000000000007856341200000000",
    );

    #[test]
    fn snapshot_bytes_match_the_whole_line_golden() {
        assert_eq!(hex(&image(&scripted_bank())), SCRIPTED_BANK_HEX);
    }

    #[test]
    fn golden_image_restores_to_the_scripted_bank() {
        let want = scripted_bank();
        let bytes = image(&want);
        let mut r = SnapReader::image(&bytes);
        let mut got = LlcBank::new(2, 3, 8, 3);
        got.unsnap(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(
            got.iter().collect::<Vec<_>>(),
            want.iter().collect::<Vec<_>>()
        );
        for block in [blk(0), blk(1)] {
            assert_eq!(
                got.set_contents_mru(block).collect::<Vec<_>>(),
                want.set_contents_mru(block).collect::<Vec<_>>()
            );
        }
        assert_eq!(got.port_free, want.port_free);
        assert_eq!(image(&got), bytes);
    }

    /// The bank as it was stored before the line-state and sharer lanes:
    /// one `SetAssoc` of whole lines.
    struct RefBank {
        array: SetAssoc<LlcLine>,
        banks: u64,
        bank_index: u64,
    }

    impl RefBank {
        fn new(sets: usize, ways: usize, banks: usize, bank_index: usize) -> Self {
            RefBank {
                array: SetAssoc::new(sets, ways, Replacement::Lru),
                banks: banks as u64,
                bank_index: bank_index as u64,
            }
        }

        fn key(&self, block: BlockAddr) -> u64 {
            block.0 / self.banks
        }

        fn block_of(&self, key: u64) -> BlockAddr {
            BlockAddr(key * self.banks + self.bank_index)
        }

        fn protected(policy: LlcReplacement) -> impl Fn(&LlcLine) -> bool {
            move |line: &LlcLine| policy == LlcReplacement::DataLru && line.holds_entry()
        }

        fn spilled(l: &LlcLine) -> bool {
            matches!(l, LlcLine::Spilled { .. })
        }

        fn fused(l: &LlcLine) -> bool {
            matches!(l, LlcLine::Fused { .. })
        }

        fn block_line(&self, block: BlockAddr) -> Option<LlcLine> {
            let slot = self.array.peek(self.key(block), LlcLine::holds_block)?;
            Some(*self.array.at(slot))
        }

        fn spilled_entry(&self, block: BlockAddr) -> Option<DirEntry> {
            let slot = self.array.peek(self.key(block), Self::spilled)?;
            self.array.at(slot).entry()
        }

        fn touch_block(&mut self, block: BlockAddr, policy: LlcReplacement) {
            let key = self.key(block);
            let _ = self.array.touch(key, LlcLine::holds_block);
            if policy == LlcReplacement::SpLru {
                let _ = self.array.touch(key, Self::spilled);
            }
        }

        fn touch_entry(&mut self, block: BlockAddr) {
            let key = self.key(block);
            if self.array.touch(key, Self::spilled).is_none() {
                let _ = self.array.touch(key, Self::fused);
            }
        }

        fn fill_data(
            &mut self,
            block: BlockAddr,
            dirty: bool,
            policy: LlcReplacement,
        ) -> Option<LlcVictim> {
            let key = self.key(block);
            if let Some(slot) = self.array.peek(key, LlcLine::holds_block) {
                match self.array.at_mut(slot) {
                    LlcLine::Data { dirty: d } => *d = *d || dirty,
                    LlcLine::Fused { block_dirty, .. } => *block_dirty = *block_dirty || dirty,
                    LlcLine::Spilled { .. } => unreachable!("holds_block excludes spilled"),
                }
                let _ = self.array.touch(key, LlcLine::holds_block);
                return None;
            }
            let (_, victim) =
                self.array
                    .insert(key, LlcLine::Data { dirty }, Self::protected(policy));
            victim.map(|(k, line)| (self.block_of(k), line))
        }

        fn spill_entry(
            &mut self,
            block: BlockAddr,
            entry: DirEntry,
            policy: LlcReplacement,
        ) -> SpillOutcome {
            let key = self.key(block);
            if let Some(slot) = self.array.peek(key, Self::spilled) {
                *self.array.at_mut(slot) = LlcLine::Spilled { entry };
                return SpillOutcome::Updated;
            }
            match self.array.insert_excluding(
                key,
                LlcLine::Spilled { entry },
                Self::protected(policy),
                |k, line| k == key && line.holds_block(),
            ) {
                Ok((_, evicted)) => {
                    SpillOutcome::Inserted(evicted.map(|(k, line)| (self.block_of(k), line)))
                }
                Err(_) => SpillOutcome::Refused(entry),
            }
        }

        fn fuse_entry(&mut self, block: BlockAddr, entry: DirEntry) {
            let slot = self
                .array
                .peek(self.key(block), LlcLine::holds_block)
                .expect("fuse requires a resident block line");
            let line = self.array.at_mut(slot);
            *line = match *line {
                LlcLine::Data { dirty } => LlcLine::Fused {
                    entry,
                    block_dirty: dirty,
                },
                LlcLine::Fused { block_dirty, .. } => LlcLine::Fused { entry, block_dirty },
                LlcLine::Spilled { .. } => unreachable!("holds_block excludes spilled"),
            };
        }

        fn unfuse(&mut self, block: BlockAddr) -> DirEntry {
            let slot = self
                .array
                .peek(self.key(block), Self::fused)
                .expect("unfuse requires a fused line");
            let line = self.array.at_mut(slot);
            let LlcLine::Fused { entry, block_dirty } = *line else {
                unreachable!("predicate matched fused");
            };
            *line = LlcLine::Data { dirty: block_dirty };
            entry
        }

        fn remove_spilled(&mut self, block: BlockAddr) -> Option<DirEntry> {
            let key = self.key(block);
            self.array
                .remove(key, Self::spilled)
                .and_then(|(_, l)| l.entry())
        }

        fn remove_block(&mut self, block: BlockAddr) -> Option<LlcLine> {
            let key = self.key(block);
            self.array.remove(key, LlcLine::holds_block).map(|(_, l)| l)
        }

        fn iter(&self) -> Vec<(BlockAddr, LlcLine)> {
            self.array
                .iter()
                .map(|(k, _, l)| (self.block_of(k), *l))
                .collect()
        }

        fn set_contents_mru(&self, block: BlockAddr) -> Vec<(BlockAddr, LlcLine)> {
            self.array
                .iter_set(self.key(block))
                .map(|(k, _, l)| (self.block_of(k), *l))
                .collect()
        }
    }

    fn random_entry(rng: &mut Prng) -> DirEntry {
        let sharers = SharerSet((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64()));
        if rng.below(2) == 0 {
            DirEntry {
                state: DirState::OwnedME,
                sharers: SharerSet::only(CoreId(rng.below(128) as u16)),
            }
        } else {
            DirEntry {
                state: DirState::Shared,
                sharers,
            }
        }
    }

    /// Drives the bank and the reference with one seeded sequence of every
    /// mutating operation and compares, after each step, the operation's
    /// return value, the lookups of its block, the whole bank and its set
    /// in recency order.
    fn agree_with_reference(sets: usize, ways: usize, policy: LlcReplacement, seed: u64) {
        let mut rng = Prng::seeded(seed);
        let mut bank = LlcBank::new(sets, ways, 8, 3);
        let mut reference = RefBank::new(sets, ways, 8, 3);
        let blocks = (sets * ways * 2) as u64;
        for step in 0..3000 {
            let block = blk(rng.below(blocks));
            let ctx = format!("{policy:?} {sets}x{ways} seed {seed} step {step} {block:?}");
            match rng.below(8) {
                0 => {
                    let dirty = rng.below(2) == 0;
                    assert_eq!(
                        bank.fill_data(block, dirty, policy),
                        reference.fill_data(block, dirty, policy),
                        "fill_data {ctx}"
                    );
                }
                1 => {
                    let e = random_entry(&mut rng);
                    assert_eq!(
                        bank.spill_entry(block, e, policy),
                        reference.spill_entry(block, e, policy),
                        "spill_entry {ctx}"
                    );
                }
                2 => {
                    if reference.block_line(block).is_some() {
                        let e = random_entry(&mut rng);
                        bank.fuse_entry(block, e);
                        reference.fuse_entry(block, e);
                    }
                }
                3 => {
                    if let Some(LlcLine::Fused { .. }) = reference.block_line(block) {
                        assert_eq!(bank.unfuse(block), reference.unfuse(block), "unfuse {ctx}");
                    }
                }
                4 => assert_eq!(
                    bank.remove_spilled(block),
                    reference.remove_spilled(block),
                    "remove_spilled {ctx}"
                ),
                5 => assert_eq!(
                    bank.remove_block(block),
                    reference.remove_block(block),
                    "remove_block {ctx}"
                ),
                6 => {
                    bank.touch_block(block, policy);
                    reference.touch_block(block, policy);
                }
                _ => {
                    bank.touch_entry(block);
                    reference.touch_entry(block);
                }
            }
            assert_eq!(
                bank.lines_for(block),
                (reference.block_line(block), reference.spilled_entry(block)),
                "lines_for {ctx}"
            );
            assert_eq!(
                bank.iter().collect::<Vec<_>>(),
                reference.iter(),
                "iter {ctx}"
            );
            assert_eq!(
                bank.set_contents_mru(block).collect::<Vec<_>>(),
                reference.set_contents_mru(block),
                "set_contents_mru {ctx}"
            );
        }
    }

    #[test]
    fn compact_bank_matches_the_whole_line_reference() {
        for policy in [
            LlcReplacement::Lru,
            LlcReplacement::SpLru,
            LlcReplacement::DataLru,
        ] {
            for (sets, ways) in [(4, 1), (2, 4)] {
                for seed in 0..4 {
                    agree_with_reference(sets, ways, policy, 0x11c_0000 ^ seed);
                }
            }
        }
    }
}
