//! The shared protocol vocabulary and pure protocol rules.
//!
//! Both the concrete engine (`zerodev_core::system`) and the exhaustive
//! model checker (`zerodev_model`) speak this vocabulary: the request
//! [`Op`]s a private hierarchy can issue, the [`EvictKind`] notices it
//! sends, and the [`Invalidation`]/[`Downgrade`] actions the uncore returns.
//! The *decision* rules the ZeroDEV mechanisms hinge on — where an
//! overflowing directory entry is placed in the LLC, which MESI state a
//! fill is granted in, which sharers a write invalidates, and when a
//! housed (memory-resident) entry must be recalled before serving data —
//! are pure functions defined here once and called from the engine's
//! transition code. The checker therefore never re-implements the
//! protocol: it drives the engine through
//! `zerodev_core::step::ProtocolHarness` and these rules are the single
//! source of truth for both.
//!
//! # Seeded mutations
//!
//! [`Mutation`] deliberately mis-implements exactly one rule, proving the
//! model checker (and the dynamic oracle) actually *depend* on each rule:
//! a checker that still reports "no violation" under a seeded mutation is
//! vacuous. Mutations are process-global and test-only; production code
//! never sets one.

#![deny(clippy::unwrap_used, clippy::indexing_slicing)]

use crate::config::SpillPolicy;
use crate::ids::{BlockAddr, CoreId, SharerSet, SocketId};
use crate::mesi::MesiState;
use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Vocabulary
// ---------------------------------------------------------------------------

/// A core-cache request arriving at the uncore.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Demand data read (GetS).
    Read,
    /// Instruction fetch; code blocks always fill in S state (§III-A).
    CodeRead,
    /// Write miss (GetX / read-exclusive).
    ReadExclusive,
    /// Write hit on an S-state private copy (upgrade, dataless response).
    Upgrade,
}

/// The kind of private-cache eviction being notified.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EvictKind {
    /// Clean eviction of an S-state copy (dataless notice).
    CleanShared,
    /// Clean eviction of an E-state copy (dataless; under ZeroDEV it carries
    /// the low reconstruction bits of a fused line, §III-C2).
    CleanExclusive,
    /// Dirty eviction of an M-state copy (full-block writeback).
    Dirty,
}

impl EvictKind {
    /// The notice a private cache sends when evicting a copy held in
    /// `state`. `Invalid` has nothing to evict.
    pub fn for_state(state: MesiState) -> Option<EvictKind> {
        match state {
            MesiState::Modified => Some(EvictKind::Dirty),
            MesiState::Exclusive => Some(EvictKind::CleanExclusive),
            MesiState::Shared => Some(EvictKind::CleanShared),
            MesiState::Invalid => None,
        }
    }
}

/// Why a private copy is being invalidated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InvalReason {
    /// Directory-entry eviction — a DEV. ZeroDEV guarantees none occur.
    Dev,
    /// LLC inclusion victim (inclusive designs only).
    Inclusion,
    /// Ordinary coherence (a write invalidating sharers).
    Coherence,
}

/// An invalidation the caller must apply to a private cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Invalidation {
    /// Socket of the core losing its copy.
    pub socket: SocketId,
    /// The core losing its copy.
    pub core: CoreId,
    /// The block.
    pub block: BlockAddr,
    /// Why.
    pub reason: InvalReason,
}

/// A downgrade (M/E → S) the caller must apply to a private cache. The
/// engine's effect loop (`zerodev_core::apply_effects`) applies it and, if
/// the line was M, reports the dirty data as a sharing writeback.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Downgrade {
    /// Socket of the owning core.
    pub socket: SocketId,
    /// The owning core.
    pub core: CoreId,
    /// The block.
    pub block: BlockAddr,
}

/// Where the ZeroDEV placement rule puts an overflowing directory entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EntryPlacement {
    /// Fused into the tracked block's own LLC line (no extra line).
    Fuse,
    /// Spilled into a full LLC line of its own.
    Spill,
}

// ---------------------------------------------------------------------------
// Pure rules
// ---------------------------------------------------------------------------

/// §III-C: placement of an entry overflowing into the LLC. `has_block` is
/// whether the tracked block itself is LLC-resident in the home bank;
/// `owned` is whether the entry records an M/E owner.
pub fn overflow_placement(policy: SpillPolicy, has_block: bool, owned: bool) -> EntryPlacement {
    let fuse = match policy {
        SpillPolicy::SpillAll => false,
        SpillPolicy::FusePrivateSpillShared => {
            has_block && (owned || mutation() == Mutation::FuseShared)
        }
        SpillPolicy::FuseAll => has_block,
    };
    if fuse {
        EntryPlacement::Fuse
    } else {
        EntryPlacement::Spill
    }
}

/// §III-C2 (FPSS): a spilled entry whose block turned M/E while the block
/// is LLC-resident re-fuses on the in-place update.
pub fn refuse_on_update(policy: SpillPolicy, owned: bool, has_block: bool) -> bool {
    policy == SpillPolicy::FusePrivateSpillShared && owned && has_block
}

/// §III-C2 (FPSS): a fused entry whose block dropped to S un-fuses (the
/// entry spills; the block bits are reconstructed from the eviction
/// notice's low bits).
pub fn unfuse_on_update(policy: SpillPolicy, owned: bool) -> bool {
    policy == SpillPolicy::FusePrivateSpillShared && !owned
}

/// §III-A: the MESI state granted on a fill served by home memory (or an
/// LLC data line) with no other private copy in the system. Code fills and
/// fills of blocks shared by another socket take S; a demand write takes M;
/// everything else takes E.
pub fn untracked_fill_grant(op: Op, shared_elsewhere: bool) -> MesiState {
    match op {
        Op::ReadExclusive => MesiState::Modified,
        Op::CodeRead => MesiState::Shared,
        _ if shared_elsewhere => MesiState::Shared,
        _ => MesiState::Exclusive,
    }
}

/// The sharers a transaction must invalidate: every core in `sharers`
/// except the requester (`keep`). This is the rule the SWMR invariant
/// rides on — leaving any other sharer alive leaves a stale copy.
pub fn invalidation_targets(sharers: SharerSet, keep: Option<CoreId>) -> Vec<CoreId> {
    let mut targets: Vec<CoreId> = sharers.iter().filter(|&c| Some(c) != keep).collect();
    if mutation() == Mutation::KeepStaleSharer {
        targets.pop();
    }
    targets
}

/// §III-D4: whether a housed (memory-resident) directory segment must be
/// recalled via GET_DE before the home copy may serve data. A corrupted
/// home block holds directory segments, not data, so any live segment of
/// the serving socket forces the recall.
pub fn must_recall_housed(home_corrupted: bool) -> bool {
    home_corrupted && mutation() != Mutation::ServeCorruptedMemory
}

// ---------------------------------------------------------------------------
// Seeded rule mutations
// ---------------------------------------------------------------------------

/// A deliberate mis-implementation of one protocol rule, used by the model
/// checker's sensitivity proof and by the fault campaign. Process-global:
/// tests that set one must run in their own process (a dedicated
/// integration-test binary) and reset it afterwards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// No mutation: the shipped protocol.
    None,
    /// [`invalidation_targets`] silently keeps one sharer, modelling a lost
    /// invalidation (breaks SWMR / leaves a stale copy).
    KeepStaleSharer,
    /// [`overflow_placement`] fuses S-state entries under FPSS, breaking
    /// the fused ⇒ owned structural invariant of §III-C2.
    FuseShared,
    /// [`must_recall_housed`] never fires: corrupted home memory is served
    /// as if it held data (breaks §III-D corrupted-block safety).
    ServeCorruptedMemory,
}

static MUTATION: AtomicU8 = AtomicU8::new(0);

/// Activates `m` process-wide (test use only). Always pair with a reset to
/// [`Mutation::None`].
pub fn set_mutation(m: Mutation) {
    let v = match m {
        Mutation::None => 0,
        Mutation::KeepStaleSharer => 1,
        Mutation::FuseShared => 2,
        Mutation::ServeCorruptedMemory => 3,
    };
    MUTATION.store(v, Ordering::SeqCst);
}

/// The active rule mutation ([`Mutation::None`] in production).
pub fn mutation() -> Mutation {
    match MUTATION.load(Ordering::Relaxed) {
        1 => Mutation::KeepStaleSharer,
        2 => Mutation::FuseShared,
        3 => Mutation::ServeCorruptedMemory,
        _ => Mutation::None,
    }
}

/// Every seeded mutation, for sensitivity matrices.
pub const ALL_MUTATIONS: [Mutation; 3] = [
    Mutation::KeepStaleSharer,
    Mutation::FuseShared,
    Mutation::ServeCorruptedMemory,
];

/// Compile-time exhaustiveness guard for [`ALL_MUTATIONS`]: the match below
/// is exhaustive over `Mutation`, so adding a variant without seeding it in
/// the dispatch table fails this constant's evaluation instead of silently
/// skipping the new mutation in sensitivity matrices.
const fn mutation_ordinal(m: Mutation) -> usize {
    match m {
        Mutation::None => 0,
        Mutation::KeepStaleSharer => 1,
        Mutation::FuseShared => 2,
        Mutation::ServeCorruptedMemory => 3,
    }
}

// In-bounds by the loop condition; an overrun here is a compile error,
// never a runtime panic.
#[allow(clippy::indexing_slicing)]
const _: () = {
    // `None` is the shipped protocol, not a seeded mutation: the table
    // lists every other variant, in declaration order.
    assert!(ALL_MUTATIONS.len() == mutation_ordinal(Mutation::ServeCorruptedMemory));
    let mut i = 0;
    while i < ALL_MUTATIONS.len() {
        assert!(
            mutation_ordinal(ALL_MUTATIONS[i]) == i + 1,
            "ALL_MUTATIONS must list every seeded Mutation exactly once, in declaration order"
        );
        i += 1;
    }
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evict_kind_mirrors_state() {
        assert_eq!(
            EvictKind::for_state(MesiState::Modified),
            Some(EvictKind::Dirty)
        );
        assert_eq!(
            EvictKind::for_state(MesiState::Exclusive),
            Some(EvictKind::CleanExclusive)
        );
        assert_eq!(
            EvictKind::for_state(MesiState::Shared),
            Some(EvictKind::CleanShared)
        );
        assert_eq!(EvictKind::for_state(MesiState::Invalid), None);
    }

    #[test]
    fn placement_matches_paper_rules() {
        use SpillPolicy::*;
        assert_eq!(
            overflow_placement(SpillAll, true, true),
            EntryPlacement::Spill
        );
        assert_eq!(
            overflow_placement(FusePrivateSpillShared, true, true),
            EntryPlacement::Fuse
        );
        assert_eq!(
            overflow_placement(FusePrivateSpillShared, true, false),
            EntryPlacement::Spill
        );
        assert_eq!(
            overflow_placement(FusePrivateSpillShared, false, true),
            EntryPlacement::Spill
        );
        assert_eq!(
            overflow_placement(FuseAll, true, false),
            EntryPlacement::Fuse
        );
        assert_eq!(
            overflow_placement(FuseAll, false, true),
            EntryPlacement::Spill
        );
    }

    #[test]
    fn grants_match_paper_rules() {
        assert_eq!(
            untracked_fill_grant(Op::ReadExclusive, false),
            MesiState::Modified
        );
        assert_eq!(untracked_fill_grant(Op::CodeRead, false), MesiState::Shared);
        assert_eq!(untracked_fill_grant(Op::Read, true), MesiState::Shared);
        assert_eq!(untracked_fill_grant(Op::Read, false), MesiState::Exclusive);
    }

    #[test]
    fn targets_exclude_only_the_requester() {
        let mut s = SharerSet::default();
        s.insert(CoreId(0));
        s.insert(CoreId(2));
        s.insert(CoreId(5));
        let t = invalidation_targets(s, Some(CoreId(2)));
        assert_eq!(t, vec![CoreId(0), CoreId(5)]);
        assert_eq!(invalidation_targets(s, None).len(), 3);
    }

    #[test]
    fn recall_follows_corruption() {
        assert!(must_recall_housed(true));
        assert!(!must_recall_housed(false));
    }

    // NOTE: no test here flips the global mutation — it is process-global,
    // and unit tests share one process. Mutation behaviour is covered by
    // the dedicated `crates/model/tests/mutation_sensitivity.rs` binary.
}
