//! Event counters collected by every component of the simulator.
//!
//! One [`Stats`] instance covers a whole machine: the uncore owns it and the
//! core models add their private-cache misses to it. The runner returns it
//! with each result, and the figures derive their metrics from it
//! (normalised traffic, core cache misses, DRAM traffic breakdowns, DEV
//! counts).

use crate::msg::MsgClass;

/// Aggregated simulation counters.
///
/// All fields are plain counts; traffic is tracked both as message counts and
/// as bytes per [`MsgClass`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Messages sent, per class (indexed by [`MsgClass::index`]).
    pub msg_counts: [u64; 16],
    /// Bytes sent, per class.
    pub msg_bytes: [u64; 16],

    /// Demand accesses that missed in the whole private hierarchy and
    /// reached the uncore ("core cache misses" in Figures 2 and 3).
    pub core_cache_misses: u64,
    /// L1D lookups that missed.
    pub l1d_misses: u64,
    /// L1I lookups that missed.
    pub l1i_misses: u64,
    /// Upgrade requests (write to an S-state private copy).
    pub upgrades: u64,

    /// LLC lookups that found the requested data block.
    pub llc_hits: u64,
    /// LLC lookups that missed on the data block.
    pub llc_misses: u64,
    /// LLC tag-array lookups (energy accounting).
    pub llc_tag_lookups: u64,
    /// LLC data-array accesses (energy accounting; includes directory-entry
    /// reads/writes performed in the data array).
    pub llc_data_accesses: u64,
    /// Extra LLC data-array accesses serving *directory entries* (ZeroDEV).
    pub llc_dir_accesses: u64,

    /// Sparse-directory lookups.
    pub dir_lookups: u64,
    /// Directory entries newly allocated.
    pub dir_allocs: u64,
    /// Live directory entries evicted from a bounded directory structure
    /// (each generates DEVs in the baseline, or a spill/fuse in ZeroDEV).
    pub dir_evictions: u64,
    /// Private-cache copies invalidated because of directory-entry eviction —
    /// the paper's DEVs. ZeroDEV guarantees this stays zero.
    pub dev_invalidations: u64,
    /// Dirty (M-state) DEVs whose data was pulled back into the LLC.
    pub dev_dirty_recalls: u64,
    /// Private copies invalidated to maintain LLC inclusion (inclusive LLC
    /// designs only; these are *not* DEVs).
    pub inclusion_invalidations: u64,
    /// Invalidations sent for ordinary coherence (write to shared block).
    pub coherence_invalidations: u64,

    /// Directory entries spilled into full LLC lines (ZeroDEV).
    pub dir_spills: u64,
    /// Directory entries fused into their block's LLC line (ZeroDEV).
    pub dir_fuses: u64,
    /// Directory entries evicted from the LLC to home memory (WB_DE flow).
    pub dir_llc_evictions: u64,
    /// GET_DE round trips (core-cache eviction could not find the entry
    /// in-socket, §III-D4).
    pub get_de_requests: u64,
    /// DENF_NACK messages (forwarded socket had evicted its entry, §III-D3).
    pub denf_nacks: u64,
    /// Reads that had to be forwarded to a sharer because the home LLC line
    /// was a corrupted/fused entry without data (FuseAll critical-path cost).
    pub fused_read_forwards: u64,

    /// Current number of LLC lines occupied by *spilled* directory entries.
    pub spilled_lines_current: u64,
    /// High-water mark of `spilled_lines_current`.
    pub spilled_lines_max: u64,
    /// Current live entries in the directory structure (for Figure 5's
    /// occupancy projection when running the unbounded directory).
    pub dir_live_entries: u64,
    /// High-water mark of `dir_live_entries`.
    pub dir_live_entries_max: u64,

    /// DRAM read transactions.
    pub dram_reads: u64,
    /// DRAM write transactions.
    pub dram_writes: u64,
    /// DRAM writes caused by directory-entry eviction from the LLC
    /// (the paper reports these are <0.5% of DRAM writes).
    pub dram_writes_dir: u64,
    /// DRAM reads needed to merge a directory entry into an already
    /// corrupted block (multi-socket read-modify-write).
    pub dram_reads_dir: u64,
    /// LLC read misses that accessed a corrupted home-memory block
    /// (paper: <0.05% of LLC read misses).
    pub llc_read_misses_corrupted: u64,

    /// Requests resolved in two hops (request + response).
    pub two_hop_reads: u64,
    /// Requests resolved in three hops (forwarded to an owner/sharer).
    pub three_hop_reads: u64,

    /// Requests crossing the socket boundary (multi-socket runs).
    pub socket_misses: u64,
}

impl Stats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Records one message of the given class on the interconnect.
    #[inline]
    pub fn msg(&mut self, class: MsgClass) {
        let i = class.index();
        self.msg_counts[i] += 1;
        self.msg_bytes[i] += class.bytes();
    }

    /// Records `n` messages of the given class.
    #[inline]
    pub fn msg_n(&mut self, class: MsgClass, n: u64) {
        let i = class.index();
        self.msg_counts[i] += n;
        self.msg_bytes[i] += class.bytes() * n;
    }

    /// Total interconnect bytes over all message classes (the Figures 2/3
    /// "traffic" metric).
    pub fn total_traffic_bytes(&self) -> u64 {
        self.msg_bytes.iter().sum()
    }

    /// Bytes for a single class.
    pub fn bytes(&self, class: MsgClass) -> u64 {
        self.msg_bytes[class.index()]
    }

    /// Message count for a single class.
    pub fn count(&self, class: MsgClass) -> u64 {
        self.msg_counts[class.index()]
    }

    /// Adjusts the live-spilled-lines gauge by `delta` and maintains the
    /// high-water mark.
    pub fn adjust_spilled_lines(&mut self, delta: i64) {
        self.spilled_lines_current = self
            .spilled_lines_current
            .checked_add_signed(delta)
            .expect("spilled-lines gauge underflow");
        self.spilled_lines_max = self.spilled_lines_max.max(self.spilled_lines_current);
    }

    /// Adjusts the live-directory-entries gauge by `delta` and maintains the
    /// high-water mark.
    pub fn adjust_dir_live(&mut self, delta: i64) {
        self.dir_live_entries = self
            .dir_live_entries
            .checked_add_signed(delta)
            .expect("dir-live gauge underflow");
        self.dir_live_entries_max = self.dir_live_entries_max.max(self.dir_live_entries);
    }

    /// Serializes every counter, in declaration order, for checkpointing.
    pub fn snap(&self, w: &mut crate::snap::SnapWriter) {
        for v in self.msg_counts.iter().chain(self.msg_bytes.iter()) {
            w.u64(*v);
        }
        for v in self.scalar_fields() {
            w.u64(v);
        }
    }

    /// Rebuilds a counter set from a [`Stats::snap`] image.
    pub fn unsnap(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError> {
        let mut s = Stats::new();
        for v in s.msg_counts.iter_mut().chain(s.msg_bytes.iter_mut()) {
            *v = r.u64("stats msg lane")?;
        }
        let mut scalars = [0u64; 34];
        for v in scalars.iter_mut() {
            *v = r.u64("stats scalar")?;
        }
        s.set_scalar_fields(&scalars);
        Ok(s)
    }

    /// The non-array counters in declaration order (checkpoint layout; keep
    /// in sync with [`Stats::set_scalar_fields`]).
    fn scalar_fields(&self) -> [u64; 34] {
        [
            self.core_cache_misses,
            self.l1d_misses,
            self.l1i_misses,
            self.upgrades,
            self.llc_hits,
            self.llc_misses,
            self.llc_tag_lookups,
            self.llc_data_accesses,
            self.llc_dir_accesses,
            self.dir_lookups,
            self.dir_allocs,
            self.dir_evictions,
            self.dev_invalidations,
            self.dev_dirty_recalls,
            self.inclusion_invalidations,
            self.coherence_invalidations,
            self.dir_spills,
            self.dir_fuses,
            self.dir_llc_evictions,
            self.get_de_requests,
            self.denf_nacks,
            self.fused_read_forwards,
            self.spilled_lines_current,
            self.spilled_lines_max,
            self.dir_live_entries,
            self.dir_live_entries_max,
            self.dram_reads,
            self.dram_writes,
            self.dram_writes_dir,
            self.dram_reads_dir,
            self.llc_read_misses_corrupted,
            self.two_hop_reads,
            self.three_hop_reads,
            self.socket_misses,
        ]
    }

    fn set_scalar_fields(&mut self, v: &[u64; 34]) {
        [
            &mut self.core_cache_misses,
            &mut self.l1d_misses,
            &mut self.l1i_misses,
            &mut self.upgrades,
            &mut self.llc_hits,
            &mut self.llc_misses,
            &mut self.llc_tag_lookups,
            &mut self.llc_data_accesses,
            &mut self.llc_dir_accesses,
            &mut self.dir_lookups,
            &mut self.dir_allocs,
            &mut self.dir_evictions,
            &mut self.dev_invalidations,
            &mut self.dev_dirty_recalls,
            &mut self.inclusion_invalidations,
            &mut self.coherence_invalidations,
            &mut self.dir_spills,
            &mut self.dir_fuses,
            &mut self.dir_llc_evictions,
            &mut self.get_de_requests,
            &mut self.denf_nacks,
            &mut self.fused_read_forwards,
            &mut self.spilled_lines_current,
            &mut self.spilled_lines_max,
            &mut self.dir_live_entries,
            &mut self.dir_live_entries_max,
            &mut self.dram_reads,
            &mut self.dram_writes,
            &mut self.dram_writes_dir,
            &mut self.dram_reads_dir,
            &mut self.llc_read_misses_corrupted,
            &mut self.two_hop_reads,
            &mut self.three_hop_reads,
            &mut self.socket_misses,
        ]
        .into_iter()
        .zip(v.iter())
        .for_each(|(dst, src)| *dst = *src);
    }

    /// Renders a compact multi-line summary for debugging and the examples.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "core-cache misses: {}  (L1D {} / L1I {})  upgrades: {}",
            self.core_cache_misses, self.l1d_misses, self.l1i_misses, self.upgrades
        );
        let _ = writeln!(
            s,
            "LLC: {} hits / {} misses; dir: {} lookups, {} allocs, {} evictions",
            self.llc_hits, self.llc_misses, self.dir_lookups, self.dir_allocs, self.dir_evictions
        );
        let _ = writeln!(
            s,
            "DEV invalidations: {} ({} dirty recalls); inclusion invals: {}",
            self.dev_invalidations, self.dev_dirty_recalls, self.inclusion_invalidations
        );
        let _ = writeln!(
            s,
            "ZeroDEV: {} spills, {} fuses, {} LLC dir-evictions, {} GET_DE, {} DENF",
            self.dir_spills,
            self.dir_fuses,
            self.dir_llc_evictions,
            self.get_de_requests,
            self.denf_nacks
        );
        let _ = writeln!(
            s,
            "DRAM: {} reads ({} dir) / {} writes ({} dir)",
            self.dram_reads, self.dram_reads_dir, self.dram_writes, self.dram_writes_dir
        );
        let _ = writeln!(
            s,
            "traffic: {} bytes total; 2-hop {} / 3-hop {}",
            self.total_traffic_bytes(),
            self.two_hop_reads,
            self.three_hop_reads
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_accounting() {
        let mut s = Stats::new();
        s.msg(MsgClass::Request);
        s.msg(MsgClass::Data);
        s.msg_n(MsgClass::Invalidation, 3);
        assert_eq!(s.count(MsgClass::Request), 1);
        assert_eq!(s.count(MsgClass::Invalidation), 3);
        assert_eq!(s.bytes(MsgClass::Invalidation), 24);
        assert_eq!(s.total_traffic_bytes(), 8 + 72 + 24);
    }

    #[test]
    fn gauges_track_high_water() {
        let mut s = Stats::new();
        s.adjust_spilled_lines(5);
        s.adjust_spilled_lines(-2);
        s.adjust_spilled_lines(1);
        assert_eq!(s.spilled_lines_current, 4);
        assert_eq!(s.spilled_lines_max, 5);
        s.adjust_dir_live(7);
        s.adjust_dir_live(-7);
        assert_eq!(s.dir_live_entries, 0);
        assert_eq!(s.dir_live_entries_max, 7);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn gauge_underflow_panics() {
        let mut s = Stats::new();
        s.adjust_spilled_lines(-1);
    }

    #[test]
    fn summary_is_nonempty() {
        let s = Stats::new();
        let text = s.summary();
        assert!(text.contains("DEV invalidations"));
        assert!(text.contains("DRAM"));
    }
}

#[cfg(test)]
mod breakdown_tests {
    use super::*;
    use crate::msg::ALL_CLASSES;

    #[test]
    fn per_class_bytes_sum_to_total() {
        let mut s = Stats::new();
        for (i, c) in ALL_CLASSES.iter().enumerate() {
            s.msg_n(*c, (i + 1) as u64);
        }
        let sum: u64 = ALL_CLASSES.iter().map(|c| s.bytes(*c)).sum();
        assert_eq!(sum, s.total_traffic_bytes());
        // Every class was recorded.
        for c in ALL_CLASSES {
            assert!(s.count(c) > 0);
        }
    }
}
