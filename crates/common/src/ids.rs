//! Strongly-typed identifiers and address newtypes.
//!
//! The simulator deals in *blocks* (64-byte cache lines) almost everywhere;
//! [`BlockAddr`] is the block-granular address and [`Addr`] the raw byte
//! address. Keeping them distinct types prevents the classic
//! shifted-twice/never-shifted bug family.

use std::fmt;

/// Log2 of the cache-block size in bytes (64-byte blocks everywhere, as in
/// Table I of the paper).
pub const BLOCK_SHIFT: u32 = 6;
/// Cache-block size in bytes.
pub const BLOCK_BYTES: usize = 1 << BLOCK_SHIFT;

/// A byte-granular physical address.
///
/// ```
/// use zerodev_common::{Addr, BlockAddr};
/// let a = Addr(0x40 * 7 + 5);
/// assert_eq!(BlockAddr::from_byte_addr(a), BlockAddr(7));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

/// A block-granular (64-byte-aligned) physical address: the byte address
/// shifted right by [`BLOCK_SHIFT`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl Addr {
    /// The block containing this byte address.
    #[inline]
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT)
    }
}

impl BlockAddr {
    /// Converts a byte address to its containing block address.
    #[inline]
    pub fn from_byte_addr(a: Addr) -> Self {
        a.block()
    }

    /// The first byte address of this block.
    #[inline]
    pub fn byte_addr(self) -> Addr {
        Addr(self.0 << BLOCK_SHIFT)
    }

    /// The 1 KB region (16 blocks) containing this block — the region
    /// granularity used by the Multi-grain Directory baseline.
    #[inline]
    pub fn region(self) -> RegionAddr {
        RegionAddr(self.0 >> 4)
    }

    /// Index of this block within its 1 KB region (0..16).
    #[inline]
    pub fn region_offset(self) -> usize {
        (self.0 & 0xf) as usize
    }
}

/// A 1 KB region address (16 consecutive blocks), used by the Multi-grain
/// Directory baseline of Zebchuk et al. that the paper compares against.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionAddr(pub u64);

impl RegionAddr {
    /// Iterates over the 16 blocks of the region.
    pub fn blocks(self) -> impl Iterator<Item = BlockAddr> {
        let base = self.0 << 4;
        (0..16).map(move |i| BlockAddr(base + i))
    }
}

/// A processor core within a socket (0-based, socket-local).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u16);

/// A socket in a multi-socket system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SocketId(pub u8);

/// An LLC bank / sparse-directory slice within a socket.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BankId(pub u16);

/// A simulation time point in core clock cycles (4 GHz core clock).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Zero time.
    pub const ZERO: Cycle = Cycle(0);

    /// Saturating difference `self - earlier` in cycles.
    #[inline]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of the two time points.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }
}

impl std::ops::Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl std::ops::AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

macro_rules! debug_display {
    ($ty:ident, $fmt:literal) => {
        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, $fmt, self.0)
            }
        }
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, $fmt, self.0)
            }
        }
    };
}

debug_display!(Addr, "0x{:x}");
debug_display!(BlockAddr, "B0x{:x}");
debug_display!(RegionAddr, "R0x{:x}");
debug_display!(CoreId, "c{}");
debug_display!(SocketId, "s{}");
debug_display!(BankId, "b{}");
debug_display!(Cycle, "@{}");

/// A compact sharer bit-vector over up to 128 cores of one socket.
///
/// The paper's full-map bitvector representation; 128 bits covers the largest
/// evaluated configuration (the 128-core server system). The set is 8-byte
/// aligned rather than `u128`'s 16, so a directory entry (state plus set)
/// packs into 24 bytes instead of 32 in every directory structure.
///
/// ```
/// use zerodev_common::ids::{CoreId, SharerSet};
/// let mut s = SharerSet::default();
/// s.insert(CoreId(3));
/// s.insert(CoreId(100));
/// assert!(s.contains(CoreId(3)));
/// assert_eq!(s.count(), 2);
/// s.remove(CoreId(3));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![CoreId(100)]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(C, packed(8))]
pub struct SharerSet(pub u128);

impl SharerSet {
    /// The empty set.
    pub const EMPTY: SharerSet = SharerSet(0);

    /// A set with a single member.
    #[inline]
    pub fn only(core: CoreId) -> Self {
        SharerSet(1u128 << core.0)
    }

    /// Adds a core.
    #[inline]
    pub fn insert(&mut self, core: CoreId) {
        self.0 |= 1u128 << core.0;
    }

    /// Removes a core.
    #[inline]
    pub fn remove(&mut self, core: CoreId) {
        self.0 &= !(1u128 << core.0);
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, core: CoreId) -> bool {
        self.0 & (1u128 << core.0) != 0
    }

    /// Number of sharers.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True when no core holds a copy.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// An arbitrary (lowest-index) member, used when the coherence controller
    /// must elect a sharer to forward a request to.
    #[inline]
    pub fn any(self) -> Option<CoreId> {
        if self.0 == 0 {
            None
        } else {
            Some(CoreId(self.0.trailing_zeros() as u16))
        }
    }

    /// Iterates over members in increasing core order.
    pub fn iter(self) -> impl Iterator<Item = CoreId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                Some(CoreId(i as u16))
            }
        })
    }
}

impl fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<T: IntoIterator<Item = CoreId>>(iter: T) -> Self {
        let mut s = SharerSet::default();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// A socket-level sharer bit-vector (up to 32 sockets).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SocketSet(pub u32);

impl SocketSet {
    /// A set with a single member.
    #[inline]
    pub fn only(s: SocketId) -> Self {
        SocketSet(1 << s.0)
    }

    /// Adds a socket.
    #[inline]
    pub fn insert(&mut self, s: SocketId) {
        self.0 |= 1 << s.0;
    }

    /// Removes a socket.
    #[inline]
    pub fn remove(&mut self, s: SocketId) {
        self.0 &= !(1 << s.0);
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, s: SocketId) -> bool {
        self.0 & (1 << s.0) != 0
    }

    /// Number of member sockets.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// An arbitrary (lowest-index) member socket.
    #[inline]
    pub fn any(self) -> Option<SocketId> {
        if self.0 == 0 {
            None
        } else {
            Some(SocketId(self.0.trailing_zeros() as u8))
        }
    }

    /// Iterates over members in increasing socket order.
    pub fn iter(self) -> impl Iterator<Item = SocketId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                Some(SocketId(i as u8))
            }
        })
    }
}

impl fmt::Debug for SocketSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_round_trip() {
        let a = Addr(0x12345);
        let b = a.block();
        assert_eq!(b.byte_addr().0, 0x12345 & !0x3f);
        assert_eq!(BlockAddr::from_byte_addr(b.byte_addr()), b);
    }

    #[test]
    fn region_of_block() {
        let b = BlockAddr(0x123);
        assert_eq!(b.region(), RegionAddr(0x12));
        assert_eq!(b.region_offset(), 3);
        assert_eq!(b.region().blocks().count(), 16);
        assert!(b.region().blocks().any(|x| x == b));
        assert_eq!(b.region().blocks().next(), Some(BlockAddr(0x120)));
    }

    #[test]
    fn cycle_arith() {
        let mut t = Cycle(10);
        t += 5;
        assert_eq!(t, Cycle(15));
        assert_eq!(t.since(Cycle(10)), 5);
        assert_eq!(t.since(Cycle(100)), 0);
        assert_eq!(t.max(Cycle(100)), Cycle(100));
        assert_eq!((t + 1).0, 16);
    }

    #[test]
    fn sharer_set_basics() {
        let mut s = SharerSet::EMPTY;
        assert!(s.is_empty());
        assert_eq!(s.any(), None);
        s.insert(CoreId(0));
        s.insert(CoreId(127));
        assert_eq!(s.count(), 2);
        assert!(s.contains(CoreId(127)));
        assert_eq!(s.any(), Some(CoreId(0)));
        s.remove(CoreId(0));
        assert_eq!(s.any(), Some(CoreId(127)));
        let collected: SharerSet = [CoreId(1), CoreId(2)].into_iter().collect();
        assert_eq!(collected.count(), 2);
    }

    #[test]
    fn sharer_set_idempotent_ops() {
        let mut s = SharerSet::only(CoreId(5));
        s.insert(CoreId(5));
        assert_eq!(s.count(), 1);
        s.remove(CoreId(9));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn socket_set_basics() {
        let mut s = SocketSet::default();
        s.insert(SocketId(3));
        s.insert(SocketId(0));
        assert_eq!(s.count(), 2);
        assert_eq!(s.any(), Some(SocketId(0)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![SocketId(0), SocketId(3)]);
        s.remove(SocketId(0));
        assert!(!s.is_empty());
        assert!(s.contains(SocketId(3)));
        assert_eq!(SocketSet::only(SocketId(2)).count(), 1);
    }

    #[test]
    fn debug_formats_nonempty() {
        assert_eq!(format!("{:?}", CoreId(3)), "c3");
        assert_eq!(format!("{:?}", BlockAddr(0xff)), "B0xff");
        assert_eq!(format!("{:?}", SharerSet::only(CoreId(1))), "{c1}");
        assert_eq!(format!("{:?}", SocketSet::only(SocketId(1))), "{s1}");
        assert_eq!(format!("{}", Cycle(9)), "@9");
        assert_eq!(format!("{:?}", Addr(16)), "0x10");
        assert_eq!(format!("{:?}", RegionAddr(2)), "R0x2");
        assert_eq!(format!("{:?}", BankId(2)), "b2");
        assert_eq!(format!("{:?}", SocketId(2)), "s2");
    }
}
