//! Memory-side coherence state.
//!
//! Two pieces live behind the LLC:
//!
//! * **Corrupted home blocks** (§III-D): when ZeroDEV evicts a directory
//!   entry from the LLC, the entry overwrites the home-memory copy of the
//!   block it tracks. The 64-byte block is partitioned into fixed per-socket
//!   full-map segments (`N + 1` bits for an `N`-core socket), so entries
//!   from several sockets can be housed at once. The data bits are destroyed
//!   until a full-block writeback restores them.
//! * **The socket-level directory** (§III-D5): a bounded directory cache
//!   backed in home memory (the first solution, the one the paper's
//!   four-socket study uses), so a cache miss costs a home-memory read. It
//!   generates no DEVs.

use crate::directory::DirEntry;
use zerodev_cache::{Replacement, SetAssoc};
use zerodev_common::config::SystemConfig;
use zerodev_common::ids::SocketSet;
use zerodev_common::{BlockAddr, Cycle, FlatMap, SocketId};
use zerodev_dram::DramModel;

/// A corrupted home-memory block: per-socket segments holding evicted
/// intra-socket directory entries. With 64-byte blocks and full-map vectors
/// this supports ⌊512/(N+1)⌋ sockets (§III-D), a bound
/// `SystemConfig::validate` enforces.
#[derive(Debug, Default)]
pub struct CorruptedBlock {
    segments: Vec<(SocketId, DirEntry)>,
}

zerodev_common::fieldwise_clone!(CorruptedBlock { segments });

impl CorruptedBlock {
    /// Sockets with a housed segment.
    pub fn sockets(&self) -> SocketSet {
        let mut s = SocketSet::default();
        for (sk, _) in &self.segments {
            s.insert(*sk);
        }
        s
    }

    /// The segment housed for `socket`.
    pub fn segment(&self, socket: SocketId) -> Option<DirEntry> {
        self.segments
            .iter()
            .find(|(sk, _)| *sk == socket)
            .map(|(_, e)| *e)
    }

    fn set_segment(&mut self, socket: SocketId, entry: DirEntry) {
        if let Some(slot) = self.segments.iter_mut().find(|(sk, _)| *sk == socket) {
            slot.1 = entry;
        } else {
            self.segments.push((socket, entry));
        }
    }

    fn take_segment(&mut self, socket: SocketId) -> Option<DirEntry> {
        let pos = self.segments.iter().position(|(sk, _)| *sk == socket)?;
        Some(self.segments.remove(pos).1)
    }
}

/// Socket-level directory entry (coarse, per-socket sharer tracking).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SocketDirEntry {
    /// One socket owns the block in M/E.
    pub owned: bool,
    /// Sockets holding copies.
    pub sharers: SocketSet,
}

impl SocketDirEntry {
    /// Entry for a block just granted exclusively to `socket`.
    pub fn owned_by(socket: SocketId) -> Self {
        SocketDirEntry {
            owned: true,
            sharers: SocketSet::only(socket),
        }
    }

    /// The owning socket, when owned.
    pub fn owner(&self) -> Option<SocketId> {
        if self.owned {
            self.sharers.any()
        } else {
            None
        }
    }
}

/// Result of a socket-level directory lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SocketDirLookup {
    /// The entry, if the block is tracked.
    pub entry: Option<SocketDirEntry>,
    /// Whether the lookup hit the directory cache (a miss costs a home
    /// memory read).
    pub cached: bool,
}

/// Ways in the socket-level directory cache (per home socket); the set
/// count comes from `SystemConfig::socket_dir_cache_sets`.
const SOCKET_DIR_CACHE_WAYS: usize = 8;

/// The memory side of one machine: per-socket DRAM plus corrupted-block
/// bookkeeping and the socket-level directory for every home socket.
#[derive(Debug)]
pub struct MemorySide {
    drams: Vec<DramModel>,
    corrupted: FlatMap<CorruptedBlock>,
    /// Per home socket: the bounded socket-directory cache.
    dir_caches: Vec<SetAssoc<SocketDirEntry>>,
    /// Per home socket: the complete backing store in home memory.
    dir_backing: Vec<FlatMap<SocketDirEntry>>,
    sockets: usize,
}

zerodev_common::fieldwise_clone!(MemorySide {
    drams,
    corrupted,
    dir_caches,
    dir_backing,
    sockets,
});

impl MemorySide {
    /// Builds the memory side for `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        MemorySide {
            drams: (0..cfg.sockets).map(|_| DramModel::new(cfg.dram)).collect(),
            corrupted: FlatMap::new(),
            // Single-socket machines never consult the socket directory, so
            // they carry a token 1-set cache: cloning a machine snapshot (the
            // model checker does this per explored state) must not pay for
            // 64K unused lines per socket.
            dir_caches: (0..cfg.sockets)
                .map(|_| {
                    let sets = if cfg.sockets == 1 {
                        1
                    } else {
                        cfg.socket_dir_cache_sets
                    };
                    SetAssoc::new(sets, SOCKET_DIR_CACHE_WAYS, Replacement::Lru)
                })
                .collect(),
            dir_backing: (0..cfg.sockets).map(|_| FlatMap::new()).collect(),
            sockets: cfg.sockets,
        }
    }

    /// Reads a block from the home socket's DRAM; returns completion time.
    // lint:consumes(MemRead, GetDirEntry)
    pub fn dram_read(&mut self, now: Cycle, home: SocketId, block: BlockAddr) -> Cycle {
        self.drams[home.0 as usize].read(now, block)
    }

    /// Writes a block to the home socket's DRAM; returns completion time.
    // lint:consumes(MemWrite)
    pub fn dram_write(&mut self, now: Cycle, home: SocketId, block: BlockAddr) -> Cycle {
        self.drams[home.0 as usize].write(now, block)
    }

    /// DRAM (reads, writes) across all sockets.
    pub fn dram_counts(&self) -> (u64, u64) {
        self.drams
            .iter()
            .map(DramModel::rw_counts)
            .fold((0, 0), |(r, w), (r2, w2)| (r + r2, w + w2))
    }

    // ---- corrupted home blocks -------------------------------------------

    /// True when the home-memory copy of `block` is corrupted (houses at
    /// least one evicted directory entry, so its data bits are invalid).
    pub fn is_corrupted(&self, block: BlockAddr) -> bool {
        self.corrupted.contains_key(block.0)
    }

    /// The corrupted-block record, if any.
    pub fn corrupted_block(&self, block: BlockAddr) -> Option<&CorruptedBlock> {
        self.corrupted.get(block.0)
    }

    /// Houses `entry` in `socket`'s segment of the home block. Returns true
    /// when the block already housed a segment of *another* socket — the
    /// case where the home must read-modify-write the memory block
    /// (§III-D, Figure 14 steps (i)–(iii)).
    ///
    /// # Panics
    /// Panics when the entry is dead (tracks no core).
    // lint:consumes(WbDirEntry)
    pub fn house_entry(&mut self, block: BlockAddr, socket: SocketId, entry: DirEntry) -> bool {
        assert!(!entry.is_dead(), "cannot house a dead entry");
        let cb = self.corrupted.get_or_default(block.0);
        let others = cb.sockets().iter().any(|s| s != socket);
        cb.set_segment(socket, entry);
        others
    }

    /// Extracts (removes) `socket`'s segment from the corrupted block; the
    /// entry returns to living inside the socket. The block stays corrupted
    /// (its data bits remain invalid) even when no segments remain, until a
    /// full-block writeback restores it.
    pub fn extract_entry(&mut self, block: BlockAddr, socket: SocketId) -> Option<DirEntry> {
        self.corrupted.get_mut(block.0)?.take_segment(socket)
    }

    /// Reads `socket`'s segment without removing it (GET_DE read phase).
    pub fn peek_entry(&self, block: BlockAddr, socket: SocketId) -> Option<DirEntry> {
        self.corrupted.get(block.0)?.segment(socket)
    }

    /// Overwrites `socket`'s segment in place (GET_DE write-back phase).
    ///
    /// # Panics
    /// Panics if the block is not corrupted.
    pub fn rewrite_entry(&mut self, block: BlockAddr, socket: SocketId, entry: DirEntry) {
        self.corrupted
            .get_mut(block.0)
            .expect("rewrite requires corrupted block")
            .set_segment(socket, entry);
    }

    /// Restores the block to clean data (a full-block writeback arrived),
    /// dropping every housed segment.
    pub fn restore(&mut self, block: BlockAddr) {
        self.corrupted.remove(block.0);
    }

    /// Iterates every corrupted home block and its record (diagnostics; the
    /// audit oracle's full sweep walks this to check segment bookkeeping).
    pub fn corrupted_blocks(&self) -> impl Iterator<Item = (BlockAddr, &CorruptedBlock)> {
        self.corrupted.iter().map(|(b, cb)| (BlockAddr(b), cb))
    }

    // ---- socket-level directory ------------------------------------------

    /// Looks up the socket-level entry for `block` at its home socket.
    pub fn socket_dir_lookup(&mut self, home: SocketId, block: BlockAddr) -> SocketDirLookup {
        if self.sockets == 1 {
            // Single-socket machines do not instantiate socket coherence.
            return SocketDirLookup {
                entry: None,
                cached: true,
            };
        }
        let h = home.0 as usize;
        if let Some(slot) = self.dir_caches[h].touch(block.0, |_| true) {
            return SocketDirLookup {
                entry: Some(*self.dir_caches[h].at(slot)),
                cached: true,
            };
        }
        let backed = self.dir_backing[h].get(block.0).copied();
        if let Some(e) = backed {
            // Refill the cache; evicted victims stay in the backing store.
            let _ = self.dir_caches[h].insert(block.0, e, |_| false);
            SocketDirLookup {
                entry: Some(e),
                cached: false,
            }
        } else {
            // Untracked block: memory-resident state "Invalid".
            SocketDirLookup {
                entry: None,
                cached: false,
            }
        }
    }

    /// Reads the socket-level entry for `block` without touching the
    /// directory cache's recency state. The audit
    /// oracle uses this so audited runs stay byte-identical to unaudited
    /// ones; the protocol itself must go through [`Self::socket_dir_lookup`].
    pub fn socket_dir_peek(&self, home: SocketId, block: BlockAddr) -> Option<SocketDirEntry> {
        if self.sockets == 1 {
            return None;
        }
        self.dir_backing[home.0 as usize].get(block.0).copied()
    }

    /// Installs or updates the socket-level entry for `block`.
    pub fn socket_dir_update(&mut self, home: SocketId, block: BlockAddr, entry: SocketDirEntry) {
        if self.sockets == 1 {
            return;
        }
        let h = home.0 as usize;
        self.dir_backing[h].insert(block.0, entry);
        if let Some(slot) = self.dir_caches[h].peek(block.0, |_| true) {
            *self.dir_caches[h].at_mut(slot) = entry;
        } else {
            let _ = self.dir_caches[h].insert(block.0, entry, |_| false);
        }
    }

    /// Removes the socket-level entry (no socket holds a copy).
    pub fn socket_dir_remove(&mut self, home: SocketId, block: BlockAddr) {
        if self.sockets == 1 {
            return;
        }
        let h = home.0 as usize;
        self.dir_backing[h].remove(block.0);
        let _ = self.dir_caches[h].remove(block.0, |_| true);
    }

    /// Serializes the memory side — DRAM timing state, corrupted-block map,
    /// socket-directory caches and backing stores — for checkpointing.
    // lint:allow(snapshot_complete(sockets), machine shape comes from SystemConfig; restore targets a memory side freshly built from it)
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        w.usize(self.drams.len());
        for d in &self.drams {
            d.snap(w);
        }
        self.corrupted.snapshot_with(w, |w, cb| {
            w.usize(cb.segments.len());
            for (sk, e) in &cb.segments {
                w.u8(sk.0);
                e.snap(w);
            }
        });
        w.usize(self.dir_caches.len());
        for c in &self.dir_caches {
            c.snapshot_with(w, |w, _, e| {
                w.bool(e.owned);
                w.u32(e.sharers.0);
            });
        }
        for b in &self.dir_backing {
            b.snapshot_with(w, |w, e| {
                w.bool(e.owned);
                w.u32(e.sharers.0);
            });
        }
    }

    /// Restores a [`MemorySide::snap`] image into this memory side, which
    /// must have been built from the same configuration.
    ///
    /// # Errors
    /// Fails with a structural [`zerodev_common::snap::SnapError`] on
    /// geometry mismatch, a segment housed for a socket the machine does
    /// not have, or decode error.
    pub fn unsnap(
        &mut self,
        r: &mut zerodev_common::snap::SnapReader<'_>,
    ) -> Result<(), zerodev_common::snap::SnapError> {
        use zerodev_common::snap::SnapError;
        fn socket_entry(
            r: &mut zerodev_common::snap::SnapReader<'_>,
        ) -> Result<SocketDirEntry, SnapError> {
            Ok(SocketDirEntry {
                owned: r.bool("socket dir owned")?,
                sharers: SocketSet(r.u32("socket dir sharers")?),
            })
        }
        if r.usize("memdir dram count")? != self.drams.len() {
            return Err(SnapError::Corrupt {
                context: "memdir dram count",
            });
        }
        for d in self.drams.iter_mut() {
            d.unsnap(r)?;
        }
        let sockets = self.sockets;
        self.corrupted.restore_with(r, |r| {
            let n = r.usize("corrupted segment count")?;
            let mut cb = CorruptedBlock::default();
            for _ in 0..n {
                let sk = SocketId(r.u8("corrupted segment socket")?);
                if usize::from(sk.0) >= sockets {
                    return Err(SnapError::Corrupt {
                        context: "corrupted segment socket",
                    });
                }
                cb.segments.push((sk, DirEntry::unsnap(r)?));
            }
            Ok(cb)
        })?;
        if r.usize("memdir dir cache count")? != self.dir_caches.len() {
            return Err(SnapError::Corrupt {
                context: "memdir dir cache count",
            });
        }
        for c in self.dir_caches.iter_mut() {
            c.restore_with(r, |r, _| socket_entry(r))?;
        }
        for b in self.dir_backing.iter_mut() {
            b.restore_with(r, socket_entry)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerodev_common::CoreId;
    use zerodev_common::SystemConfig;

    fn mem(sockets: usize) -> MemorySide {
        let mut cfg = SystemConfig::baseline_8core();
        cfg.sockets = sockets;
        MemorySide::new(&cfg)
    }

    #[test]
    fn corrupted_block_lifecycle() {
        let mut m = mem(4);
        let b = BlockAddr(0x99);
        assert!(!m.is_corrupted(b));
        let e0 = DirEntry::owned(CoreId(1));
        // First housing: no other socket's segment present.
        assert!(!m.house_entry(b, SocketId(0), e0));
        assert!(m.is_corrupted(b));
        // Second socket: read-modify-write needed.
        let e1 = DirEntry::shared(CoreId(3));
        assert!(m.house_entry(b, SocketId(1), e1));
        assert_eq!(m.peek_entry(b, SocketId(0)), Some(e0));
        assert_eq!(m.corrupted_block(b).unwrap().sockets().count(), 2);
        // Extraction removes one segment; block stays corrupted.
        assert_eq!(m.extract_entry(b, SocketId(0)), Some(e0));
        assert!(m.is_corrupted(b));
        assert_eq!(m.peek_entry(b, SocketId(0)), None);
        // Restore on full writeback.
        m.restore(b);
        assert!(!m.is_corrupted(b));
    }

    #[test]
    fn rehousing_same_socket_is_not_rmw() {
        let mut m = mem(4);
        let b = BlockAddr(0x7);
        assert!(!m.house_entry(b, SocketId(2), DirEntry::owned(CoreId(0))));
        // Same socket rewrites its own segment: no other-socket conflict.
        assert!(!m.house_entry(b, SocketId(2), DirEntry::shared(CoreId(0))));
    }

    #[test]
    fn rewrite_entry_in_place() {
        let mut m = mem(2);
        let b = BlockAddr(0x11);
        m.house_entry(b, SocketId(0), DirEntry::owned(CoreId(0)));
        let mut e = m.peek_entry(b, SocketId(0)).unwrap();
        e.sharers.insert(CoreId(5));
        m.rewrite_entry(b, SocketId(0), e);
        assert_eq!(m.peek_entry(b, SocketId(0)).unwrap().sharers.count(), 2);
    }

    #[test]
    #[should_panic(expected = "dead entry")]
    fn housing_dead_entry_panics() {
        let mut m = mem(2);
        let dead = DirEntry {
            state: zerodev_common::DirState::Shared,
            sharers: Default::default(),
        };
        m.house_entry(BlockAddr(1), SocketId(0), dead);
    }

    #[test]
    #[should_panic(expected = "corrupted")]
    fn rewrite_clean_block_panics() {
        let mut m = mem(2);
        m.rewrite_entry(BlockAddr(1), SocketId(0), DirEntry::owned(CoreId(0)));
    }

    #[test]
    fn socket_dir_roundtrip() {
        let mut m = mem(4);
        let b = BlockAddr(0x123);
        let home = SocketId(1);
        assert_eq!(m.socket_dir_lookup(home, b).entry, None);
        m.socket_dir_update(home, b, SocketDirEntry::owned_by(SocketId(3)));
        let l = m.socket_dir_lookup(home, b);
        assert!(l.cached);
        assert_eq!(l.entry.unwrap().owner(), Some(SocketId(3)));
        m.socket_dir_remove(home, b);
        assert_eq!(m.socket_dir_lookup(home, b).entry, None);
    }

    #[test]
    fn socket_dir_survives_cache_eviction() {
        let mut cfg = SystemConfig::baseline_8core();
        cfg.sockets = 2;
        let stride = cfg.socket_dir_cache_sets as u64;
        let mut m = MemorySide::new(&cfg);
        let home = SocketId(0);
        // Overflow one cache set: same set index, distinct tags.
        for i in 0..(SOCKET_DIR_CACHE_WAYS as u64 + 4) {
            m.socket_dir_update(
                home,
                BlockAddr(i * stride),
                SocketDirEntry::owned_by(SocketId(1)),
            );
        }
        // The earliest entry was evicted from the cache but is recovered
        // from the backing store (a dir-cache miss).
        let l = m.socket_dir_lookup(home, BlockAddr(0));
        assert_eq!(l.entry.unwrap().owner(), Some(SocketId(1)));
        assert!(!l.cached);
    }

    #[test]
    fn single_socket_skips_socket_dir() {
        let mut m = mem(1);
        let l = m.socket_dir_lookup(SocketId(0), BlockAddr(5));
        assert_eq!(l.entry, None);
        assert!(l.cached);
        m.socket_dir_update(
            SocketId(0),
            BlockAddr(5),
            SocketDirEntry::owned_by(SocketId(0)),
        );
        assert_eq!(m.socket_dir_lookup(SocketId(0), BlockAddr(5)).entry, None);
    }

    #[test]
    fn dram_passthrough() {
        let mut m = mem(2);
        let t = m.dram_read(Cycle(0), SocketId(1), BlockAddr(4));
        assert!(t > Cycle(0));
        m.dram_write(Cycle(0), SocketId(0), BlockAddr(8));
        let (r, w) = m.dram_counts();
        assert_eq!((r, w), (1, 1));
    }

    /// A segment naming a socket the machine does not have is rejected on
    /// restore: its id would later overflow a `SocketSet` shift.
    #[test]
    fn unsnap_rejects_a_segment_socket_past_the_machine() {
        use zerodev_common::snap::{SnapError, SnapReader, SnapWriter};
        let b = BlockAddr(0x40);
        let image = |socket: u8| {
            let mut m = mem(2);
            m.house_entry(b, SocketId(1), DirEntry::owned(CoreId(0)));
            m.corrupted.get_mut(b.0).unwrap().segments[0].0 = SocketId(socket);
            let mut w = SnapWriter::new(1, 1);
            m.snap(&mut w);
            w.finish()
        };
        let restore = |buf: &[u8]| {
            let mut r = SnapReader::open(buf, 1, 1).expect("checksum-valid image");
            mem(2).unsnap(&mut r)
        };
        assert_eq!(restore(&image(1)), Ok(()));
        assert_eq!(
            restore(&image(40)),
            Err(SnapError::Corrupt {
                context: "corrupted segment socket"
            })
        );
    }

    #[test]
    fn socket_entry_helpers() {
        let e = SocketDirEntry::owned_by(SocketId(2));
        assert_eq!(e.owner(), Some(SocketId(2)));
        let s = SocketDirEntry {
            owned: false,
            sharers: SocketSet::only(SocketId(1)),
        };
        assert_eq!(s.owner(), None);
    }
}
