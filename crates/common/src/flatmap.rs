//! A flat open-addressing hash map keyed by `u64`, tuned for the protocol
//! engine's hot paths.
//!
//! `std::collections::HashMap` defends against adversarial keys with
//! SipHash; the simulator's keys are block addresses it generates itself, so
//! that cost is pure overhead on every unbounded-directory and
//! corrupted-block lookup. [`FlatMap`] instead uses Fibonacci hashing (a
//! single multiply + shift) over linear-probed flat arrays — keys in one
//! lane, values in another — so probes stay within one or two cache lines.
//!
//! Iteration order is *slot order*: a deterministic function of the
//! insertion/removal history, never of pointer values or a per-process seed.
//! (The std map's iteration order is seeded per process; everything that
//! iterates these maps either sorts afterwards or tolerates any order, and
//! determinism across runs is an improvement.)

/// Multiplicative constant for Fibonacci hashing: `2^64 / φ`, rounded to odd.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slot-count floor; small maps still probe fast and grow geometrically.
const MIN_CAP: usize = 16;

/// A `u64 → V` open-addressing hash map with linear probing and
/// backward-shift deletion. Grows at 7/8 occupancy; never shrinks.
#[derive(Debug)]
pub struct FlatMap<V> {
    /// Key lane; meaningful only where `vals` is `Some`.
    keys: Vec<u64>,
    /// Value lane; `Some` marks an occupied slot.
    vals: Vec<Option<V>>,
    /// Occupied-slot count.
    len: usize,
    /// `64 - log2(capacity)`: the Fibonacci-hash shift.
    shift: u32,
}

crate::fieldwise_clone!(FlatMap<V> { keys, vals, len, shift });

impl<V> Default for FlatMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FlatMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::with_capacity(MIN_CAP)
    }

    /// Creates an empty map with at least `cap` slots.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(MIN_CAP).next_power_of_two();
        let mut vals = Vec::with_capacity(cap);
        vals.resize_with(cap, || None);
        FlatMap {
            keys: vec![0; cap],
            vals,
            len: 0,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(PHI) >> self.shift) as usize
    }

    /// The slot holding `key`, or the first free slot of its probe chain.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            if self.vals[i].is_none() || self.keys[i] == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Returns a reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        let i = self.probe(key);
        if self.keys[i] == key {
            self.vals[i].as_ref()
        } else {
            None
        }
    }

    /// Returns a mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.probe(key);
        if self.keys[i] == key {
            self.vals[i].as_mut()
        } else {
            None
        }
    }

    /// True when `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `val` for `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        self.reserve_one();
        let i = self.probe(key);
        if self.vals[i].is_some() {
            debug_assert_eq!(self.keys[i], key);
            self.vals[i].replace(val)
        } else {
            self.keys[i] = key;
            self.vals[i] = Some(val);
            self.len += 1;
            None
        }
    }

    /// Returns a mutable reference to the value for `key`, inserting the
    /// default first when absent (the `entry(k).or_default()` idiom).
    pub fn get_or_default(&mut self, key: u64) -> &mut V
    where
        V: Default,
    {
        self.reserve_one();
        let i = self.probe(key);
        if self.vals[i].is_none() {
            self.keys[i] = key;
            self.vals[i] = Some(V::default());
            self.len += 1;
        }
        self.vals[i].as_mut().expect("slot just filled")
    }

    /// Removes `key`, returning its value if present. Uses backward-shift
    /// deletion: later entries of the probe chain move up, so no tombstones
    /// accumulate and lookups never slow down over time.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut i = self.probe(key);
        self.vals[i].as_ref()?;
        let out = self.vals[i].take();
        self.len -= 1;
        // Backward-shift: close the hole so probe chains stay contiguous.
        let mask = self.mask();
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if self.vals[j].is_none() {
                break;
            }
            let home = self.home(self.keys[j]);
            // `j`'s entry may shift into the hole at `i` only if its home
            // position does not lie (cyclically) strictly after `i`.
            let between = if i <= j {
                home > i && home <= j
            } else {
                home > i || home <= j
            };
            if !between {
                self.keys[i] = self.keys[j];
                self.vals[i] = self.vals[j].take();
                i = j;
            }
        }
        // An empty slot's key is 0, so equal maps have equal lanes.
        self.keys[i] = 0;
        out
    }

    /// Iterates over `(key, &value)` pairs in slot order (deterministic for
    /// a given history of operations).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter_map(|(&k, v)| v.as_ref().map(|v| (k, v)))
    }

    /// Serializes the map *lane-exactly* into a machine image: capacity,
    /// length, hash shift, and every slot (occupied flag, key, value).
    /// Re-inserting the entries would not reproduce wrap-around probe
    /// clusters, and slot order feeds deterministic victim selection in the
    /// fault injector, so a restored map must keep the raw layout.
    pub fn snapshot_with(
        &self,
        w: &mut crate::snap::SnapWriter,
        mut ser: impl FnMut(&mut crate::snap::SnapWriter, &V),
    ) {
        w.usize(self.keys.len());
        w.usize(self.len);
        w.u32(self.shift);
        for (k, v) in self.keys.iter().zip(self.vals.iter()) {
            match v {
                Some(v) => {
                    w.bool(true);
                    w.u64(*k);
                    ser(w, v);
                }
                None => w.bool(false),
            }
        }
    }

    /// Restores a [`FlatMap::snapshot_with`] image into this map, refilling
    /// its own lanes.
    pub fn restore_with(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
        mut de: impl FnMut(&mut crate::snap::SnapReader<'_>) -> Result<V, crate::snap::SnapError>,
    ) -> Result<(), crate::snap::SnapError> {
        use crate::snap::SnapError;
        // Every slot takes at least its one-byte occupancy flag.
        let cap = r.count("flatmap capacity", 1)?;
        if !cap.is_power_of_two() || cap < MIN_CAP {
            return Err(SnapError::Corrupt {
                context: "flatmap capacity",
            });
        }
        let len = r.usize("flatmap len")?;
        let shift = r.u32("flatmap shift")?;
        if shift != 64 - cap.trailing_zeros() || len > cap {
            return Err(SnapError::Corrupt {
                context: "flatmap shift/len",
            });
        }
        self.keys.clear();
        self.keys.resize(cap, 0);
        self.vals.clear();
        self.vals.resize_with(cap, || None);
        (self.len, self.shift) = (len, shift);
        let mut occupied = 0usize;
        for (key, val) in self.keys.iter_mut().zip(self.vals.iter_mut()) {
            if r.bool("flatmap slot flag")? {
                *key = r.u64("flatmap key")?;
                *val = Some(de(r)?);
                occupied += 1;
            }
        }
        if occupied != len {
            return Err(SnapError::Corrupt {
                context: "flatmap occupancy",
            });
        }
        Ok(())
    }

    /// Grows the table when one more insertion would pass 7/8 occupancy.
    fn reserve_one(&mut self) {
        if (self.len + 1) * 8 <= self.keys.len() * 7 {
            return;
        }
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let mut new_vals = Vec::with_capacity(new_cap);
        new_vals.resize_with(new_cap, || None);
        let old_vals = std::mem::replace(&mut self.vals, new_vals);
        self.shift = 64 - new_cap.trailing_zeros();
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if let Some(v) = v {
                let i = self.probe(k);
                self.keys[i] = k;
                self.vals[i] = Some(v);
                self.len += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m: FlatMap<u32> = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, 70), None);
        assert_eq!(m.insert(7, 71), Some(70));
        assert_eq!(m.get(7), Some(&71));
        assert!(m.contains_key(7));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(7), Some(71));
        assert_eq!(m.remove(7), None);
        assert!(m.get(7).is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn get_mut_and_or_default() {
        let mut m: FlatMap<Vec<u32>> = FlatMap::new();
        m.get_or_default(3).push(1);
        m.get_or_default(3).push(2);
        assert_eq!(m.get(3), Some(&vec![1, 2]));
        m.get_mut(3).unwrap().clear();
        assert_eq!(m.get(3), Some(&vec![]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m: FlatMap<u64> = FlatMap::with_capacity(MIN_CAP);
        for k in 0..10_000u64 {
            // Spread keys to stress probe chains across resizes.
            m.insert(k.wrapping_mul(0x1234_5678_9abc_def1), k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k.wrapping_mul(0x1234_5678_9abc_def1)), Some(&k));
        }
    }

    #[test]
    fn backward_shift_keeps_chains_reachable() {
        // Dense sequential keys collide heavily after the multiply; delete
        // every other key and verify the survivors are still reachable.
        let mut m: FlatMap<u64> = FlatMap::new();
        for k in 0..1_000u64 {
            m.insert(k, k * 10);
        }
        for k in (0..1_000u64).step_by(2) {
            assert_eq!(m.remove(k), Some(k * 10));
        }
        assert_eq!(m.len(), 500);
        for k in 0..1_000u64 {
            if k % 2 == 0 {
                assert_eq!(m.get(k), None);
            } else {
                assert_eq!(m.get(k), Some(&(k * 10)));
            }
        }
        // Re-insert into the holes.
        for k in (0..1_000u64).step_by(2) {
            assert_eq!(m.insert(k, k), None);
        }
        assert_eq!(m.len(), 1_000);
    }

    #[test]
    fn iteration_is_deterministic_and_complete() {
        let build = || {
            let mut m: FlatMap<u64> = FlatMap::new();
            for k in [9u64, 1, 55, 1 << 40, 7, 3] {
                m.insert(k, k + 1);
            }
            m.remove(55);
            m
        };
        let a: Vec<(u64, u64)> = build().iter().map(|(k, v)| (k, *v)).collect();
        let b: Vec<(u64, u64)> = build().iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(a, b, "same history, same order");
        let mut keys: Vec<u64> = a.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 3, 7, 9, 1 << 40]);
    }

    #[test]
    fn clone_from_another_capacity_equals_clone() {
        // Heap values, so `clone_from` also reaches into each slot.
        let mut small: FlatMap<Vec<u32>> = FlatMap::new();
        small.insert(3, vec![30, 31]);
        let mut big: FlatMap<Vec<u32>> = FlatMap::with_capacity(256);
        for k in 0..100u64 {
            big.insert(k * 7, vec![k as u32; k as usize % 3]);
        }
        big.remove(14);
        for (mut to, from) in [(small.clone(), &big), (big.clone(), &small)] {
            to.clone_from(from);
            let mut fresh = from.clone();
            assert_eq!(format!("{to:?}"), format!("{fresh:?}"));
            // The refilled map keeps working like the clone.
            for m in [&mut to, &mut fresh] {
                m.insert(1000, vec![1]);
                m.remove(3);
            }
            assert_eq!(format!("{to:?}"), format!("{fresh:?}"));
        }
    }

    #[test]
    fn zero_key_is_an_ordinary_key() {
        let mut m: FlatMap<u8> = FlatMap::new();
        assert_eq!(m.get(0), None, "empty slots do not fake key 0");
        m.insert(0, 5);
        assert_eq!(m.get(0), Some(&5));
        assert_eq!(m.remove(0), Some(5));
        assert_eq!(m.get(0), None);
    }

    #[test]
    fn restore_rejects_a_capacity_the_image_cannot_hold() {
        use crate::snap::{SnapError, SnapReader, SnapWriter};
        // A consistent header for 2^62 empty slots, with the slots missing:
        // decoding must fail before it allocates them.
        let mut w = SnapWriter::image();
        w.usize(1 << 62);
        w.usize(0);
        w.u32(2);
        let mut r = SnapReader::image(w.as_bytes());
        let got = FlatMap::<u8>::new().restore_with(&mut r, |r| r.u8("value"));
        assert_eq!(
            got,
            Err(SnapError::Corrupt {
                context: "flatmap capacity"
            })
        );
    }

    #[test]
    fn restore_into_a_used_map_equals_a_clone() {
        use crate::snap::{SnapReader, SnapWriter};
        let mut m: FlatMap<Vec<u32>> = FlatMap::with_capacity(64);
        for k in 0..40u64 {
            m.insert(k * 3, vec![k as u32; k as usize % 3]);
        }
        for k in (0..40u64).step_by(3) {
            m.remove(k * 3);
        }
        let mut w = SnapWriter::image();
        m.snapshot_with(&mut w, |w, v| {
            w.usize(v.len());
            v.iter().for_each(|&x| w.u32(x));
        });
        let mut other: FlatMap<Vec<u32>> = FlatMap::new();
        other.insert(5, vec![1]);
        let mut r = SnapReader::image(w.as_bytes());
        other
            .restore_with(&mut r, |r| {
                let n = r.usize("n")?;
                (0..n).map(|_| r.u32("x")).collect()
            })
            .unwrap();
        r.expect_end().unwrap();
        // Removed keys leave no trace in the key lane, so the restored map
        // is lane for lane the clone.
        assert_eq!(format!("{other:?}"), format!("{:?}", m.clone()));
    }
}
