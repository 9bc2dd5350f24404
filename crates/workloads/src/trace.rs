//! Reference-stream recording.
//!
//! The paper's server workloads are *trace-driven*: instruction streams
//! collected with PIN and replayed on the 128-core model. This
//! reproduction has no such traces, and nothing replays one: every
//! workload is a seeded generator, deterministic in (workload, thread
//! count, seed), so a run is repeated by building its workload again.
//! [`Trace::record`] draws a generator's references into memory for
//! callers that time or inspect the stream on its own.

use crate::gen::{MemRef, Workload};

/// A recorded multi-threaded reference stream.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Trace {
    /// Per-thread reference sequences.
    pub threads: Vec<Vec<MemRef>>,
}

impl Trace {
    /// Records `n` references per thread from a workload's generators.
    pub fn record(workload: &mut Workload, refs_per_thread: usize) -> Self {
        let threads = workload
            .threads
            .iter_mut()
            .map(|t| (0..refs_per_thread).map(|_| t.next_ref()).collect())
            .collect();
        Trace { threads }
    }
}
