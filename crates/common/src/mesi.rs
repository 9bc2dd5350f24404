//! MESI coherence states.
//!
//! Two views exist in a directory protocol:
//!
//! * [`MesiState`] — the state a *private cache* holds a block in.
//! * [`DirState`]  — the state a *directory entry* records. As in the SGI
//!   Origin protocol the paper bases itself on, the directory cannot
//!   distinguish M from E (footnote 2 of the paper), so it records only
//!   `OwnedME` (one owner in M or E) vs `Shared`.

use std::fmt;

/// Private-cache MESI state of a block copy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MesiState {
    /// Modified: sole, dirty copy.
    Modified,
    /// Exclusive: sole, clean copy.
    Exclusive,
    /// Shared: one of possibly many clean copies.
    Shared,
    /// Invalid / not present.
    Invalid,
}

impl MesiState {
    /// Every state, in the order an image byte indexes
    /// ([`crate::snap::SnapWriter::variant`]).
    pub const ALL: [MesiState; 4] = [
        MesiState::Modified,
        MesiState::Exclusive,
        MesiState::Shared,
        MesiState::Invalid,
    ];

    /// True for M and E: the core is the sole owner and may have or may
    /// silently create dirty data (E upgrades to M without a message).
    #[inline]
    pub fn is_owned(self) -> bool {
        matches!(self, MesiState::Modified | MesiState::Exclusive)
    }

    /// True when the copy is present (not Invalid).
    #[inline]
    pub fn is_valid(self) -> bool {
        self != MesiState::Invalid
    }
}

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            MesiState::Modified => 'M',
            MesiState::Exclusive => 'E',
            MesiState::Shared => 'S',
            MesiState::Invalid => 'I',
        };
        write!(f, "{c}")
    }
}

/// Directory-entry coherence state.
///
/// A directory entry exists only while at least one private copy exists, so
/// there is no Invalid variant; absence of an entry means "untracked".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DirState {
    /// One core owns the block in M or E (indistinguishable to the directory).
    OwnedME,
    /// One or more cores hold the block in S.
    Shared,
}

impl DirState {
    /// True for the owned (M/E) state.
    #[inline]
    pub fn is_owned(self) -> bool {
        self == DirState::OwnedME
    }
}

impl fmt::Display for DirState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirState::OwnedME => write!(f, "M/E"),
            DirState::Shared => write!(f, "S"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_predicate() {
        assert!(MesiState::Modified.is_owned());
        assert!(MesiState::Exclusive.is_owned());
        assert!(!MesiState::Shared.is_owned());
        assert!(!MesiState::Invalid.is_owned());
        assert!(DirState::OwnedME.is_owned());
        assert!(!DirState::Shared.is_owned());
    }

    #[test]
    fn validity() {
        assert!(MesiState::Shared.is_valid());
        assert!(!MesiState::Invalid.is_valid());
    }

    #[test]
    fn display() {
        assert_eq!(MesiState::Modified.to_string(), "M");
        assert_eq!(MesiState::Invalid.to_string(), "I");
        assert_eq!(DirState::OwnedME.to_string(), "M/E");
        assert_eq!(DirState::Shared.to_string(), "S");
    }
}
