//! The generic set-associative tagged array.

/// Replacement policy family maintained inside the array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Replacement {
    /// True LRU via a per-set recency stack (Table I: all caches LRU).
    Lru,
    /// One-bit not-recently-used (Table I: the sparse directory's policy).
    Nru,
}

/// Per-line metadata bit: the line holds a payload.
const VALID: u8 = 1 << 0;
/// Per-line metadata bit: NRU reference bit.
const NRU_REF: u8 = 1 << 1;

/// Moves `way` to the MRU end of the stack in a single forward pass,
/// shifting the entries in front of it down one slot; appends it as the
/// sole shift when absent (a newly filled way). Equivalent to
/// `remove(pos)` + `insert(0, way)` without the double shift. A way that
/// is already MRU is a no-op — the common hit path touches nothing.
///
/// `stack` is the full ways-sized slot array of one set; `len` is the
/// number of live slots (the stack occupies `stack[..len]`).
#[inline]
fn stack_promote(stack: &mut [u8], len: &mut u8, way: u8) {
    let n = *len as usize;
    if stack[..n].first() == Some(&way) {
        return;
    }
    let mut prev = way;
    for slot in stack[..n].iter_mut() {
        std::mem::swap(slot, &mut prev);
        if prev == way {
            return;
        }
    }
    stack[n] = prev;
    *len += 1;
}

/// Moves `way` (which must be in the stack — every valid way is) to the
/// LRU end in a single backward pass.
#[inline]
fn stack_demote(stack: &mut [u8], len: u8, way: u8) {
    let n = len as usize;
    let mut prev = way;
    for slot in stack[..n].iter_mut().rev() {
        std::mem::swap(slot, &mut prev);
        if prev == way {
            return;
        }
    }
    debug_assert!(false, "demoted way {way} was not in the recency stack");
}

/// Removes `way` from the stack in a single pass (shifting later entries
/// up); no-op when absent.
#[inline]
fn stack_remove(stack: &mut [u8], len: &mut u8, way: u8) {
    let n = *len as usize;
    let mut found = false;
    for i in 0..n {
        if found {
            stack[i - 1] = stack[i];
        } else if stack[i] == way {
            found = true;
        }
    }
    if found {
        *len -= 1;
    }
}

/// A set-associative tagged array with duplicate-tag support.
///
/// Keys are arbitrary `u64` frame identifiers; the low bits index the set and
/// the remainder forms the tag. Two lines in one set may carry the *same*
/// tag as long as a caller-supplied predicate distinguishes their payloads —
/// exactly the situation ZeroDEV creates when a data block and its spilled
/// directory entry coexist in an LLC set (§III-C1).
///
/// All lookup/touch/remove operations take a `pred` on the payload; use
/// `|_| true` when tags are unique (ordinary caches).
///
/// Storage is struct-of-arrays: tags and payloads live in two parallel
/// flat vectors, and everything else about a set — the ways' metadata
/// bits, the recency stack, and the live-way count — sits in one
/// contiguous per-set control block. A lookup scans the set's tags first
/// and reads a way's metadata and payload only on a tag match, so it
/// touches the set's tag line(s) plus one control line.
#[derive(Debug)]
pub struct SetAssoc<T> {
    sets: usize,
    ways: usize,
    /// `sets - 1`: the set index is `key & set_mask`.
    set_mask: u64,
    /// `log2(sets)`: the tag is `key >> set_shift`.
    set_shift: u32,
    /// Per-line tags (`sets × ways`, set-major). An invalid way keeps its
    /// stale tag; lookups check `VALID` after the tag compare.
    tags: Vec<u64>,
    /// Per-set control blocks of `2 * ways + 1` bytes, set-major: the
    /// ways' metadata bits (`VALID`, `NRU_REF`), then the recency stack
    /// (way indices, MRU first, the first `live` slots in use), then the
    /// set's live-way count `live`. The stack is maintained for both
    /// policies (NRU victim search ignores it). Invariant: a set's stack
    /// holds exactly its valid ways.
    ctrl: Vec<u8>,
    /// Per-line payloads, parallel to `tags`.
    data: Vec<Option<T>>,
    policy: Replacement,
    /// Count of valid lines (kept so `len` needs no scan).
    live: usize,
}

zerodev_common::fieldwise_clone!(SetAssoc<T> {
    sets, ways, set_mask, set_shift, tags, ctrl, data, policy, live,
});

impl<T> SetAssoc<T> {
    /// Creates an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    /// Panics if `sets` is not a positive power of two or `ways` is 0 or
    /// exceeds 255.
    pub fn new(sets: usize, ways: usize, policy: Replacement) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0 && ways <= 255, "ways must be in 1..=255");
        let n = sets * ways;
        let mut data = Vec::with_capacity(n);
        data.resize_with(n, || None);
        SetAssoc {
            sets,
            ways,
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
            tags: vec![0; n],
            ctrl: vec![0; sets * (2 * ways + 1)],
            data,
            policy,
            live: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total valid lines currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no line is valid.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        (key & self.set_mask) as usize
    }

    #[inline]
    fn tag_of(&self, key: u64) -> u64 {
        key >> self.set_shift
    }

    #[inline]
    fn key_of(&self, set: usize, tag: u64) -> u64 {
        (tag << self.set_shift) | set as u64
    }

    /// Bytes per control block.
    #[inline]
    fn stride(&self) -> usize {
        2 * self.ways + 1
    }

    #[inline]
    fn ctrl_block(&self, set: usize) -> &[u8] {
        let stride = self.stride();
        &self.ctrl[set * stride..][..stride]
    }

    /// Set `set`'s control block split into (metadata, recency stack, live
    /// count).
    #[inline]
    fn ctrl(&self, set: usize) -> (&[u8], &[u8], u8) {
        let w = self.ways;
        let c = self.ctrl_block(set);
        (&c[..w], &c[w..2 * w], c[2 * w])
    }

    /// Mutable form of [`Self::ctrl`].
    #[inline]
    fn ctrl_mut(&mut self, set: usize) -> (&mut [u8], &mut [u8], &mut u8) {
        let w = self.ways;
        let stride = self.stride();
        let c = &mut self.ctrl[set * stride..][..stride];
        let (meta, rest) = c.split_at_mut(w);
        let (stack, live) = rest.split_at_mut(w);
        (meta, stack, &mut live[0])
    }

    /// The lowest valid way of `set` holding `key` whose payload passes
    /// `pred`. Walks the set's tags, metadata, and payloads in lockstep;
    /// metadata and payload are read only on a tag match, so the stale tag
    /// an invalid way keeps never matches.
    #[inline]
    fn find_way(&self, set: usize, key: u64, pred: impl Fn(&T) -> bool) -> Option<usize> {
        let tag = self.tag_of(key);
        let base = set * self.ways;
        let (meta, _, _) = self.ctrl(set);
        self.tags[base..base + self.ways]
            .iter()
            .zip(meta)
            .zip(&self.data[base..base + self.ways])
            .position(|((&t, &m), d)| t == tag && m & VALID != 0 && d.as_ref().is_some_and(&pred))
    }

    /// Every valid line holding `key`, lowest way first, without updating
    /// recency — one set scan serves several payload predicates.
    pub fn matches(&self, key: u64) -> impl Iterator<Item = &T> + '_ {
        let set = self.set_of(key);
        let tag = self.tag_of(key);
        let base = set * self.ways;
        let (meta, _, _) = self.ctrl(set);
        self.tags[base..base + self.ways]
            .iter()
            .zip(meta)
            .zip(&self.data[base..base + self.ways])
            .filter_map(move |((&t, &m), d)| {
                if t == tag && m & VALID != 0 {
                    d.as_ref()
                } else {
                    None
                }
            })
    }

    /// Looks up a line without updating recency.
    pub fn peek(&self, key: u64, pred: impl Fn(&T) -> bool) -> Option<&T> {
        let set = self.set_of(key);
        let way = self.find_way(set, key, pred)?;
        self.data[set * self.ways + way].as_ref()
    }

    /// Mutable lookup without recency update.
    pub fn peek_mut(&mut self, key: u64, pred: impl Fn(&T) -> bool) -> Option<&mut T> {
        let set = self.set_of(key);
        let way = self.find_way(set, key, pred)?;
        self.data[set * self.ways + way].as_mut()
    }

    fn promote(&mut self, set: usize, way: usize) {
        let (meta, stack, live) = self.ctrl_mut(set);
        stack_promote(stack, live, way as u8);
        meta[way] |= NRU_REF;
    }

    /// Looks up a line, updating its recency (LRU promotion / NRU bit).
    /// Returns a mutable payload reference on hit.
    pub fn touch(&mut self, key: u64, pred: impl Fn(&T) -> bool) -> Option<&mut T> {
        let set = self.set_of(key);
        let way = self.find_way(set, key, pred)?;
        self.promote(set, way);
        self.data[set * self.ways + way].as_mut()
    }

    /// Demotes a line to the LRU position of its set without invalidating it
    /// (used for replacement-priority experiments).
    pub fn demote(&mut self, key: u64, pred: impl Fn(&T) -> bool) -> bool {
        let set = self.set_of(key);
        let Some(way) = self.find_way(set, key, pred) else {
            return false;
        };
        let (meta, stack, live) = self.ctrl_mut(set);
        stack_demote(stack, *live, way as u8);
        meta[way] &= !NRU_REF;
        true
    }

    /// Invalidates a valid way and returns its payload.
    fn take_way(&mut self, set: usize, way: usize) -> Option<T> {
        let (meta, stack, live) = self.ctrl_mut(set);
        stack_remove(stack, live, way as u8);
        meta[way] = 0;
        self.live -= 1;
        self.data[set * self.ways + way].take()
    }

    /// Installs `data` for `key` in the invalid `way` of `set` as its MRU
    /// line.
    fn fill_way(&mut self, set: usize, way: usize, key: u64, data: T) {
        let i = set * self.ways + way;
        self.tags[i] = self.tag_of(key);
        self.data[i] = Some(data);
        self.live += 1;
        self.ctrl_mut(set).0[way] = VALID;
        self.promote(set, way);
    }

    /// Removes a line and returns its payload.
    pub fn remove(&mut self, key: u64, pred: impl Fn(&T) -> bool) -> Option<T> {
        let set = self.set_of(key);
        let way = self.find_way(set, key, pred)?;
        self.take_way(set, way)
    }

    /// The payload of the valid line at flat index `i`.
    #[inline]
    fn payload(&self, i: usize) -> &T {
        self.data[i].as_ref().expect("valid line has data")
    }

    fn pick_invalid_way(&self, set: usize) -> Option<usize> {
        let (meta, _, live) = self.ctrl(set);
        if live as usize == self.ways {
            return None;
        }
        meta.iter().position(|&m| m & VALID == 0)
    }

    /// Chooses a victim way in `set`, preferring unprotected lines and
    /// never selecting an excluded one. Returns `None` when every line in
    /// the set is excluded — exclusion is a hard bar, not a preference (a
    /// victimised "excluded" line is exactly the bug class the exclusion
    /// exists to prevent; see `insert_excluding`).
    ///
    /// For LRU this scans the recency stack from the LRU end for the first
    /// line with `protected(data) == false`, falling back to the true LRU
    /// non-excluded line when everything is protected — the paper's
    /// `dataLRU` search. For NRU it scans for a not-referenced unprotected
    /// line, clearing all reference bits when none qualifies (classic 1-bit
    /// NRU). `excluded` receives the candidate's full key and is a hard bar
    /// on top of either search.
    fn pick_victim_way(
        &mut self,
        set: usize,
        protected: impl Fn(&T) -> bool,
        excluded: impl Fn(u64, &T) -> bool,
    ) -> Option<usize> {
        let base = set * self.ways;
        let bar = |this: &Self, w: usize| {
            excluded(
                this.key_of(set, this.tags[base + w]),
                this.payload(base + w),
            )
        };
        match self.policy {
            Replacement::Lru => {
                let (_, stack, live) = self.ctrl(set);
                debug_assert_eq!(live as usize, self.ways, "full set has full stack");
                let lru_first = || stack[..live as usize].iter().rev().map(|&w| w as usize);
                lru_first()
                    .find(|&w| !protected(self.payload(base + w)) && !bar(self, w))
                    // Everything unexcluded is protected: true LRU among
                    // the non-excluded lines.
                    .or_else(|| lru_first().find(|&w| !bar(self, w)))
            }
            Replacement::Nru => {
                // Two passes: unprotected & not-referenced, then clear bits.
                for pass in 0..2 {
                    let (meta, _, _) = self.ctrl(set);
                    if let Some(w) = (0..self.ways).find(|&w| {
                        meta[w] & NRU_REF == 0
                            && !protected(self.payload(base + w))
                            && !bar(self, w)
                    }) {
                        return Some(w);
                    }
                    if pass == 0 {
                        for m in self.ctrl_mut(set).0 {
                            *m &= !NRU_REF;
                        }
                    }
                }
                // Everything protected: the first non-excluded way.
                (0..self.ways).find(|&w| !bar(self, w))
            }
        }
    }

    /// Inserts a payload for `key`, evicting if the set is full.
    ///
    /// The victim search prefers lines for which `protected` returns false;
    /// a protected line is evicted only when every line in the set is
    /// protected. Returns the evicted `(key, payload)` if any.
    pub fn insert(
        &mut self,
        key: u64,
        data: T,
        protected: impl Fn(&T) -> bool,
    ) -> Option<(u64, T)> {
        match self.insert_excluding(key, data, protected, |_, _| false) {
            Ok(evicted) => evicted,
            Err(_) => unreachable!("nothing is excluded, so insertion cannot be refused"),
        }
    }

    /// [`Self::insert`] with a hard exclusion: a line for which `excluded`
    /// returns true (given its full key and payload) is never chosen as the
    /// victim. Lets a caller shield a specific resident line from its own
    /// insertion — e.g. a directory-entry spill must not displace its own
    /// block's data line.
    ///
    /// # Errors
    /// When the set is full and every line in it is excluded, the insertion
    /// is *refused*: nothing changes and the payload comes back as `Err`.
    /// (Victimising the excluded line instead would defeat the exclusion —
    /// the caller asked for it precisely because that eviction is unsafe.)
    pub fn insert_excluding(
        &mut self,
        key: u64,
        data: T,
        protected: impl Fn(&T) -> bool,
        excluded: impl Fn(u64, &T) -> bool,
    ) -> Result<Option<(u64, T)>, T> {
        let set = self.set_of(key);
        let (way, evicted) = match self.pick_invalid_way(set) {
            Some(w) => (w, None),
            None => {
                let Some(w) = self.pick_victim_way(set, protected, excluded) else {
                    return Err(data);
                };
                let victim_key = self.key_of(set, self.tags[set * self.ways + w]);
                let payload = self.take_way(set, w).expect("valid line has data");
                (w, Some((victim_key, payload)))
            }
        };
        self.fill_way(set, way, key, data);
        Ok(evicted)
    }

    /// Inserts only if an invalid way exists (the ZeroDEV replacement-
    /// disabled sparse directory, §III-C4).
    ///
    /// # Errors
    /// Returns the payload back as `Err` when the set is full.
    pub fn insert_no_evict(&mut self, key: u64, data: T) -> Result<(), T> {
        let set = self.set_of(key);
        match self.pick_invalid_way(set) {
            Some(way) => {
                self.fill_way(set, way, key, data);
                Ok(())
            }
            None => Err(data),
        }
    }

    /// Iterates over all valid `(key, &payload)` pairs (diagnostics,
    /// invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        (0..self.sets).flat_map(move |set| {
            let base = set * self.ways;
            let (meta, _, _) = self.ctrl(set);
            meta.iter()
                .enumerate()
                .filter(|(_, &m)| m & VALID != 0)
                .map(move |(w, _)| {
                    (
                        self.key_of(set, self.tags[base + w]),
                        self.payload(base + w),
                    )
                })
        })
    }

    /// Iterates over the valid `(key, &payload)` pairs of the set containing
    /// `key`, in MRU→LRU order.
    pub fn iter_set(&self, key: u64) -> impl Iterator<Item = (u64, &T)> + '_ {
        let set = self.set_of(key);
        let base = set * self.ways;
        let (_, stack, live) = self.ctrl(set);
        stack[..live as usize].iter().map(move |&w| {
            let i = base + w as usize;
            (self.key_of(set, self.tags[i]), self.payload(i))
        })
    }

    /// Number of valid lines in the set containing `key` (the recency
    /// stack holds exactly the valid ways, so no scan is needed).
    #[inline]
    pub fn set_len(&self, key: u64) -> usize {
        self.ctrl(self.set_of(key)).2 as usize
    }

    /// Serializes the whole array *lane-exactly* for checkpointing.
    /// Geometry (sets, ways, policy) is written first and verified by
    /// [`Self::restore_with`] against the target instance; then the tag,
    /// metadata, recency, live-count, and payload lanes follow verbatim, so
    /// a restored array reproduces victim choice, NRU bits, and
    /// duplicate-tag layout byte-for-byte. The lanes keep the order of the
    /// array's earlier lane-per-field layout (each lane gathered from the
    /// per-set control blocks), so older images restore unchanged. `ser`
    /// encodes one payload.
    // lint:allow(snapshot_complete(set_mask, set_shift), derived from the set count, which the image header carries and restore verifies)
    pub fn snapshot_with(
        &self,
        w: &mut zerodev_common::snap::SnapWriter,
        mut ser: impl FnMut(&mut zerodev_common::snap::SnapWriter, &T),
    ) {
        w.usize(self.sets);
        w.usize(self.ways);
        w.u8(match self.policy {
            Replacement::Lru => 0,
            Replacement::Nru => 1,
        });
        w.usize(self.live);
        for &t in &self.tags {
            w.u64(t);
        }
        let ways = self.ways;
        for lane in [0..ways, ways..2 * ways, 2 * ways..2 * ways + 1] {
            for block in self.ctrl.chunks_exact(2 * ways + 1) {
                for &b in &block[lane.clone()] {
                    w.u8(b);
                }
            }
        }
        for d in &self.data {
            match d {
                Some(v) => {
                    w.bool(true);
                    ser(w, v);
                }
                None => w.bool(false),
            }
        }
    }

    /// Restores a [`Self::snapshot_with`] image into this array, which must
    /// have been constructed with the same geometry (the snapshot's header
    /// is checked against it). `de` decodes one payload.
    ///
    /// # Errors
    /// Fails with a structural [`zerodev_common::snap::SnapError`] on any
    /// geometry mismatch, lane-length drift, or payload decode error.
    // lint:allow(snapshot_complete(set_mask, set_shift), derived from the set count, which the image header carries and restore verifies)
    pub fn restore_with(
        &mut self,
        r: &mut zerodev_common::snap::SnapReader<'_>,
        mut de: impl FnMut(
            &mut zerodev_common::snap::SnapReader<'_>,
        ) -> Result<T, zerodev_common::snap::SnapError>,
    ) -> Result<(), zerodev_common::snap::SnapError> {
        use zerodev_common::snap::SnapError;
        let sets = r.usize("setassoc sets")?;
        let ways = r.usize("setassoc ways")?;
        let policy = match r.u8("setassoc policy")? {
            0 => Replacement::Lru,
            1 => Replacement::Nru,
            _ => {
                return Err(SnapError::Corrupt {
                    context: "setassoc policy",
                })
            }
        };
        if sets != self.sets || ways != self.ways || policy != self.policy {
            return Err(SnapError::Corrupt {
                context: "setassoc geometry",
            });
        }
        let live = r.usize("setassoc live")?;
        if live > sets * ways {
            return Err(SnapError::Corrupt {
                context: "setassoc live count",
            });
        }
        self.live = live;
        for t in self.tags.iter_mut() {
            *t = r.u64("setassoc tag")?;
        }
        for (lane, context) in [
            (0..ways, "setassoc meta"),
            (ways..2 * ways, "setassoc recency"),
            (2 * ways..2 * ways + 1, "setassoc set_live"),
        ] {
            for block in self.ctrl.chunks_exact_mut(2 * ways + 1) {
                for b in &mut block[lane.clone()] {
                    *b = r.u8(context)?;
                }
            }
        }
        for d in self.data.iter_mut() {
            *d = if r.bool("setassoc line flag")? {
                Some(de(r)?)
            } else {
                None
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any(_: &u32) -> bool {
        true
    }
    fn none(_: &u32) -> bool {
        false
    }

    #[test]
    fn hit_and_miss() {
        let mut c: SetAssoc<u32> = SetAssoc::new(4, 2, Replacement::Lru);
        assert!(c.insert(5, 50, none).is_none());
        assert_eq!(c.peek(5, any), Some(&50));
        assert_eq!(c.peek(9, any), None); // same set (9 % 4 == 1? no: 5%4=1, 9%4=1) different tag
        assert_eq!(c.touch(5, any), Some(&mut 50));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 3, Replacement::Lru);
        c.insert(0, 0, none);
        c.insert(1, 1, none);
        c.insert(2, 2, none);
        c.touch(0, any); // order MRU->LRU: 0,2,1
        let v = c.insert(3, 3, none).unwrap();
        assert_eq!(v, (1, 1));
        let v = c.insert(4, 4, none).unwrap();
        assert_eq!(v, (2, 2));
    }

    #[test]
    fn protected_lines_survive() {
        // dataLRU: ordinary lines evicted before protected (spilled/fused).
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 4, Replacement::Lru);
        for i in 0..4 {
            c.insert(i, i as u32, none);
        }
        // mark payloads >= 2 as protected; LRU order is 0 (LRU-most) .. 3
        let protected = |v: &u32| *v >= 2;
        let v = c.insert(10, 10, protected).unwrap();
        assert_eq!(v, (0, 0), "oldest unprotected evicted first");
        let v = c.insert(11, 11, protected).unwrap();
        assert_eq!(v, (1, 1));
        // now only protected (2,3) and new unprotected-looking (10,11)? 10,11 are >= 2 so protected.
        let v = c.insert(12, 12, protected).unwrap();
        assert_eq!(v.0, 2, "all protected: true LRU evicted");
    }

    #[test]
    fn duplicate_tags_coexist() {
        // A data block (even payload) and its spilled entry (odd payload)
        // share a key.
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 4, Replacement::Lru);
        c.insert(6, 100, none);
        c.insert(6, 101, none);
        assert_eq!(c.peek(6, |v| v % 2 == 0), Some(&100));
        assert_eq!(c.peek(6, |v| v % 2 == 1), Some(&101));
        assert_eq!(c.set_len(6), 2);
        let removed = c.remove(6, |v| v % 2 == 1);
        assert_eq!(removed, Some(101));
        assert_eq!(c.peek(6, |v| v % 2 == 0), Some(&100));
    }

    #[test]
    fn excluded_line_is_never_victimised() {
        // The excluded line sits at the LRU end — the natural victim — but
        // exclusion is a hard bar: the next line up must be taken instead.
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 3, Replacement::Lru);
        c.insert(0, 100, none);
        c.insert(1, 101, none);
        c.insert(2, 102, none);
        // MRU->LRU: 2,1,0 — key 0 is LRU-most and excluded.
        let v = c
            .insert_excluding(3, 103, none, |k, _| k == 0)
            .expect("a non-excluded victim exists");
        assert_eq!(v, Some((1, 101)), "next-LRU line evicted instead");
        assert_eq!(c.peek(0, any), Some(&100), "excluded line survives");
    }

    #[test]
    fn excluded_way_is_only_valid_victim() {
        // The corner: the set is full and every line is excluded, so the
        // *only* candidate is the line the caller shielded. Victimising it
        // would defeat the exclusion — the insertion must be refused with
        // the set untouched.
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 1, Replacement::Lru);
        c.insert(0, 100, none);
        let refused = c.insert_excluding(1, 101, none, |k, _| k == 0);
        assert_eq!(refused, Err(101), "payload handed back on refusal");
        assert_eq!(c.peek(0, any), Some(&100), "excluded line untouched");
        assert_eq!(c.peek(1, any), None, "refused payload not inserted");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalid_way_sidesteps_exclusion() {
        // With a free way the exclusion never comes into play: the payload
        // lands in the invalid way and the excluded line is untouched.
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Lru);
        c.insert(0, 100, none);
        let v = c
            .insert_excluding(1, 101, none, |k, _| k == 0)
            .expect("free way exists");
        assert_eq!(v, None);
        assert_eq!(c.peek(0, any), Some(&100));
        assert_eq!(c.peek(1, any), Some(&101));
    }

    #[test]
    fn exclusion_overrides_protection_fallback() {
        // All lines protected, all but one excluded: the protected-line
        // fallback must still honour the exclusion bar.
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Lru);
        c.insert(0, 100, none);
        c.insert(1, 101, none);
        let v = c
            .insert_excluding(2, 102, any, |k, _| k == 0)
            .expect("one non-excluded line remains");
        assert_eq!(
            v,
            Some((1, 101)),
            "excluded line skipped even when all protected"
        );
        assert_eq!(c.peek(0, any), Some(&100));
    }

    #[test]
    fn nru_refuses_all_excluded_set() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Nru);
        c.insert(0, 100, none);
        c.insert(1, 101, none);
        let refused = c.insert_excluding(2, 102, none, |_, _| true);
        assert_eq!(refused, Err(102));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn no_evict_insert() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Lru);
        assert!(c.insert_no_evict(0, 0).is_ok());
        assert!(c.insert_no_evict(1, 1).is_ok());
        assert_eq!(c.insert_no_evict(2, 2), Err(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_then_reinsert() {
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 2, Replacement::Lru);
        c.insert(0, 1, none);
        assert_eq!(c.remove(0, any), Some(1));
        assert_eq!(c.remove(0, any), None);
        assert!(c.is_empty());
        assert!(c.insert(0, 2, none).is_none());
    }

    #[test]
    fn nru_finds_unreferenced_victim() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 4, Replacement::Nru);
        for i in 0..4 {
            c.insert(i, i as u32, none);
        }
        // all referenced on insert; first insert clears bits then picks way 0
        let v = c.insert(4, 4, none).unwrap();
        assert_eq!(v, (0, 0));
        // ways 1..3 now unreferenced; touching 2 sets its bit
        c.touch(2, any);
        let v = c.insert(5, 5, none).unwrap();
        assert_eq!(v, (1, 1), "unreferenced way evicted before referenced");
    }

    #[test]
    fn nru_respects_protection() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Nru);
        c.insert(0, 0, none);
        c.insert(1, 1, none);
        let v = c.insert(2, 2, |v| *v == 0).unwrap();
        assert_eq!(v, (1, 1));
    }

    #[test]
    fn demote_moves_to_lru() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 3, Replacement::Lru);
        c.insert(0, 0, none);
        c.insert(1, 1, none);
        c.insert(2, 2, none);
        assert!(c.demote(2, any)); // 2 was MRU; now LRU
        let v = c.insert(3, 3, none).unwrap();
        assert_eq!(v, (2, 2));
        assert!(!c.demote(99, any));
    }

    #[test]
    fn iter_set_is_mru_order() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 3, Replacement::Lru);
        c.insert(0, 0, none);
        c.insert(1, 1, none);
        c.touch(0, any);
        let order: Vec<u64> = c.iter_set(0).map(|(k, _)| k).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn promote_of_mru_way_short_circuits() {
        // The hit-path no-op: promoting the way that is already MRU must
        // leave the stack untouched (and, through the public API, keep the
        // set order stable across repeated touches of the MRU line).
        let mut stack = [2u8, 0, 1];
        let mut len = 3u8;
        stack_promote(&mut stack, &mut len, 2);
        assert_eq!(stack, [2, 0, 1]);
        assert_eq!(len, 3);

        let mut c: SetAssoc<u32> = SetAssoc::new(1, 3, Replacement::Lru);
        c.insert(0, 0, none);
        c.insert(1, 1, none);
        c.insert(2, 2, none); // MRU->LRU: 2,1,0
        c.touch(2, any);
        c.touch(2, any);
        let order: Vec<u64> = c.iter_set(0).map(|(k, _)| k).collect();
        assert_eq!(order, vec![2, 1, 0], "MRU touch changes nothing");
        let v = c.insert(3, 3, none).unwrap();
        assert_eq!(v, (0, 0), "LRU victim unaffected by MRU touches");
    }

    #[test]
    fn iter_visits_all() {
        let mut c: SetAssoc<u32> = SetAssoc::new(4, 2, Replacement::Lru);
        for i in 0..8 {
            c.insert(i, i as u32, none);
        }
        let mut keys: Vec<u64> = c.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn len_and_set_len_track_churn() {
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 2, Replacement::Lru);
        assert_eq!(c.len(), 0);
        c.insert(0, 0, none);
        c.insert(2, 2, none); // set 0
        c.insert(1, 1, none); // set 1
        assert_eq!(c.len(), 3);
        assert_eq!(c.set_len(0), 2);
        assert!(c.insert(4, 4, none).is_some(), "set 0 full, evicts");
        assert_eq!(c.len(), 3, "eviction keeps the count stable");
        assert_eq!(c.set_len(0), 2);
        assert_eq!(c.remove(1, any), Some(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.set_len(1), 0);
        assert!(c.insert_no_evict(3, 3).is_ok());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn key_set_tag_round_trip() {
        let c: SetAssoc<u32> = SetAssoc::new(8, 2, Replacement::Lru);
        for key in [0u64, 7, 8, 1 << 40, (1 << 40) + 5] {
            let set = c.set_of(key);
            let tag = c.tag_of(key);
            assert_eq!(c.key_of(set, tag), key);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_sets_panic() {
        let _: SetAssoc<u32> = SetAssoc::new(3, 2, Replacement::Lru);
    }

    #[test]
    #[should_panic(expected = "ways")]
    fn zero_ways_panic() {
        let _: SetAssoc<u32> = SetAssoc::new(4, 0, Replacement::Lru);
    }

    #[test]
    fn removed_line_never_matches_its_stale_tag() {
        // `remove` clears the way's metadata but leaves its tag in place;
        // the tags-first scan must still treat the way as empty.
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 2, Replacement::Lru);
        c.insert(4, 40, none);
        assert_eq!(c.remove(4, any), Some(40));
        assert_eq!(c.peek(4, any), None);
        assert_eq!(c.touch(4, any), None);
        assert_eq!(c.peek_mut(4, any), None);
        assert!(!c.demote(4, any));
        assert_eq!(c.remove(4, any), None);
        assert_eq!(c.set_len(4), 0);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn lowest_matching_way_wins_among_duplicate_tags() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 4, Replacement::Lru);
        c.insert(7, 1, none); // way 0
        c.insert(7, 3, none); // way 1
        c.insert(7, 5, none); // way 2
        c.insert(7, 2, none); // way 3
        let odd = |v: &u32| v % 2 == 1;
        assert_eq!(c.peek(7, odd), Some(&1));
        assert_eq!(c.peek(7, any), Some(&1));
        assert_eq!(c.peek(7, |v| *v > 1), Some(&3));
        // Freeing way 0 hands the match to way 1, not to a later one.
        assert_eq!(c.remove(7, odd), Some(1));
        assert_eq!(c.peek(7, odd), Some(&3));
        *c.peek_mut(7, odd).unwrap() = 9;
        assert_eq!(c.remove(7, odd), Some(9));
        assert_eq!(c.touch(7, odd), Some(&mut 5));
        assert_eq!(c.peek(7, |v| v % 2 == 0), Some(&2));
    }

    /// A scripted LRU array (evictions, a duplicate tag, an emptied set
    /// with stale tag and stack slots, a demotion) plus an NRU array with
    /// cleared reference bits, snapshotted into one container.
    fn scripted_image() -> Vec<u8> {
        let mut lru: SetAssoc<u32> = SetAssoc::new(2, 3, Replacement::Lru);
        for k in [0u64, 2, 4, 1] {
            lru.insert(k, k as u32 + 100, none);
        }
        lru.touch(0, any);
        lru.insert(6, 106, none);
        lru.insert(6, 206, none);
        lru.remove(1, any);
        lru.demote(0, any);
        let mut nru: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Nru);
        nru.insert(0, 1, none);
        nru.insert(1, 2, none);
        nru.insert(2, 3, none);
        nru.touch(1, any);
        let mut w = zerodev_common::snap::SnapWriter::new(0x5e7a_55c0, 1);
        lru.snapshot_with(&mut w, |w, v| w.u32(*v));
        nru.snapshot_with(&mut w, |w, v| w.u32(*v));
        w.finish()
    }

    /// [`scripted_image`] as written by the lane-per-field layout that
    /// preceded the per-set control blocks. Checkpoints written then must
    /// keep restoring, so the image format may not drift.
    const SCRIPTED_IMAGE_HEX: &str = concat!(
        "c0557a5e00000000010000000200000000000000030000000000000000030000",
        "0000000000000000000000000003000000000000000300000000000000000000",
        "0000000000000000000000000000000000000000000103030000000201000000",
        "0003000164000000016a00000001ce0000000000000100000000000000020000",
        "0000000000010200000000000000020000000000000001000000000000000303",
        "01000201030000000102000000c0209f1c7ca3e8f1",
    );

    #[test]
    fn clone_from_another_geometry_equals_clone() {
        let mut lru: SetAssoc<u32> = SetAssoc::new(4, 2, Replacement::Lru);
        for k in [0, 4, 8, 1, 6] {
            lru.insert(k, k as u32 + 100, none);
        }
        lru.touch(4, any);
        lru.remove(1, any);
        let mut nru: SetAssoc<u32> = SetAssoc::new(1, 3, Replacement::Nru);
        nru.insert(7, 7, none);
        for (mut to, from) in [(nru.clone(), &lru), (lru.clone(), &nru)] {
            to.clone_from(from);
            let mut fresh = from.clone();
            assert_eq!(format!("{to:?}"), format!("{fresh:?}"));
            // The refilled array picks the same victims as the clone.
            for k in [12, 16, 20] {
                assert_eq!(to.insert(k, 1, none), fresh.insert(k, 1, none));
            }
            assert_eq!(format!("{to:?}"), format!("{fresh:?}"));
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn snapshot_bytes_match_the_lane_layout_golden() {
        assert_eq!(hex(&scripted_image()), SCRIPTED_IMAGE_HEX);
    }

    #[test]
    fn golden_image_restores_and_resnapshots_identically() {
        let image = scripted_image();
        let mut r = zerodev_common::snap::SnapReader::open(&image, 0x5e7a_55c0, 1).unwrap();
        let mut lru: SetAssoc<u32> = SetAssoc::new(2, 3, Replacement::Lru);
        let mut nru: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Nru);
        lru.restore_with(&mut r, |r| r.u32("payload")).unwrap();
        nru.restore_with(&mut r, |r| r.u32("payload")).unwrap();
        r.expect_end().unwrap();
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.set_len(1), 0);
        assert_eq!(lru.peek(6, any), Some(&106));
        let order: Vec<u64> = lru.iter_set(0).map(|(k, _)| k).collect();
        assert_eq!(order, vec![6, 6, 0], "demoted line restored at LRU");
        let mut w = zerodev_common::snap::SnapWriter::new(0x5e7a_55c0, 1);
        lru.snapshot_with(&mut w, |w, v| w.u32(*v));
        nru.snapshot_with(&mut w, |w, v| w.u32(*v));
        assert_eq!(w.finish(), image);
    }
}
