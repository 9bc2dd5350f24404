//! Classifies one simulated reference by what it did in the protocol
//! engine, read off the change it made to the engine's [`Stats`].

use zerodev_common::Stats;

/// Step classes, in classification order: the first class whose counter
/// moved wins.
pub const CLASSES: [&str; 11] = [
    "private",
    "upgrade",
    "get_de",
    "corrupted",
    "socket_miss",
    // A fused-line forward is also counted as a three-hop read, so it is
    // tested first.
    "fused_fwd",
    "three_hop",
    "llc_hit",
    // A directory-tracked read served by the LLC in two hops.
    "two_hop",
    "dram",
    "other",
];

/// Index of the `private` class: the step never left the core's private
/// hierarchy. Every other class reached `System::access_into`.
pub const PRIVATE: usize = 0;

/// The counters the classifier reads, copied out of [`Stats`] so a traced
/// step costs a few loads rather than a clone of the whole record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub core_cache_misses: u64,
    pub upgrades: u64,
    pub get_de_requests: u64,
    pub llc_read_misses_corrupted: u64,
    pub socket_misses: u64,
    pub fused_read_forwards: u64,
    pub three_hop_reads: u64,
    pub llc_hits: u64,
    pub two_hop_reads: u64,
    pub dram_reads: u64,
}

impl Counters {
    pub fn of(s: &Stats) -> Self {
        Counters {
            core_cache_misses: s.core_cache_misses,
            upgrades: s.upgrades,
            get_de_requests: s.get_de_requests,
            llc_read_misses_corrupted: s.llc_read_misses_corrupted,
            socket_misses: s.socket_misses,
            fused_read_forwards: s.fused_read_forwards,
            three_hop_reads: s.three_hop_reads,
            llc_hits: s.llc_hits,
            two_hop_reads: s.two_hop_reads,
            dram_reads: s.dram_reads,
        }
    }
}

/// The class (an index into [`CLASSES`]) of the step that moved the
/// counters from `before` to `after`.
pub fn classify(before: &Counters, after: &Counters) -> usize {
    let moved = [
        after.core_cache_misses == before.core_cache_misses && after.upgrades == before.upgrades,
        after.upgrades > before.upgrades,
        after.get_de_requests > before.get_de_requests,
        after.llc_read_misses_corrupted > before.llc_read_misses_corrupted,
        after.socket_misses > before.socket_misses,
        after.fused_read_forwards > before.fused_read_forwards,
        after.three_hop_reads > before.three_hop_reads,
        after.llc_hits > before.llc_hits,
        after.two_hop_reads > before.two_hop_reads,
        after.dram_reads > before.dram_reads,
    ];
    moved.iter().position(|&m| m).unwrap_or(CLASSES.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_of(delta: impl Fn(&mut Counters)) -> &'static str {
        let before = Counters {
            core_cache_misses: 10,
            upgrades: 3,
            llc_hits: 7,
            dram_reads: 2,
            ..Counters::default()
        };
        let mut after = before;
        delta(&mut after);
        CLASSES[classify(&before, &after)]
    }

    #[test]
    fn no_uncore_request_is_private() {
        assert_eq!(class_of(|_| {}), "private");
    }

    #[test]
    fn upgrade_wins_over_later_classes() {
        assert_eq!(
            class_of(|c| {
                c.upgrades += 1;
                c.llc_hits += 1;
            }),
            "upgrade"
        );
    }

    #[test]
    fn first_matching_miss_class_wins() {
        let miss = |extra: fn(&mut Counters)| {
            class_of(move |c| {
                c.core_cache_misses += 1;
                extra(c);
            })
        };
        assert_eq!(
            miss(|c| {
                c.get_de_requests += 1;
                c.dram_reads += 1;
            }),
            "get_de"
        );
        assert_eq!(
            miss(|c| {
                c.llc_read_misses_corrupted += 1;
                c.socket_misses += 1;
            }),
            "corrupted"
        );
        assert_eq!(
            miss(|c| {
                c.socket_misses += 1;
                c.dram_reads += 1;
            }),
            "socket_miss"
        );
        assert_eq!(
            miss(|c| {
                c.three_hop_reads += 1;
                c.fused_read_forwards += 1;
            }),
            "fused_fwd"
        );
        assert_eq!(miss(|c| c.three_hop_reads += 1), "three_hop");
        assert_eq!(
            miss(|c| {
                c.llc_hits += 1;
                c.two_hop_reads += 1;
            }),
            "llc_hit"
        );
        assert_eq!(miss(|c| c.two_hop_reads += 1), "two_hop");
        assert_eq!(miss(|c| c.dram_reads += 1), "dram");
        assert_eq!(miss(|_| {}), "other");
    }

    #[test]
    fn counters_copy_the_stats_fields() {
        let mut s = Stats::new();
        s.core_cache_misses = 4;
        s.get_de_requests = 2;
        s.dram_reads = 9;
        let c = Counters::of(&s);
        assert_eq!(
            (c.core_cache_misses, c.get_de_requests, c.dram_reads),
            (4, 2, 9)
        );
    }
}
