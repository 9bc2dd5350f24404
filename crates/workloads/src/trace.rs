//! Memory-trace recording and replay.
//!
//! The paper's server workloads are *trace-driven*: instruction streams
//! collected with PIN and replayed on the 128-core model. This module
//! provides the equivalent facility — any generator's stream can be
//! recorded to a compact text format and replayed later, so experiments can
//! be repeated on exactly the same reference sequence (or on externally
//! produced traces).
//!
//! # Format
//!
//! One line per reference, whitespace-separated:
//!
//! ```text
//! <block-hex> <flags> <gap>
//! ```
//!
//! where `flags` is `r` (read), `w` (write) or `c` (code fetch). Lines
//! starting with `#` are comments. A header comment records the thread
//! count; per-thread streams are concatenated, separated by `@thread N`
//! markers.

use crate::gen::{MemRef, Workload, WorkloadKind};
use std::fmt::Write as _;
use std::str::FromStr;
use zerodev_common::BlockAddr;

/// A recorded multi-threaded memory trace.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Trace {
    /// Per-thread reference sequences.
    pub threads: Vec<Vec<MemRef>>,
}

/// Error parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

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

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Total references across all threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// True when no references are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialises to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# zerodev trace v1, {} threads", self.threads.len());
        for (i, refs) in self.threads.iter().enumerate() {
            let _ = writeln!(out, "@thread {i}");
            for r in refs {
                let flag = if r.code {
                    'c'
                } else if r.write {
                    'w'
                } else {
                    'r'
                };
                let _ = writeln!(out, "{:x} {} {}", r.block.0, flag, r.gap);
            }
        }
        out
    }

    /// Turns the trace into a replayable [`Workload`]. Replay wraps around
    /// when a thread's sequence is exhausted, so any run length works.
    ///
    /// # Panics
    /// Panics if any thread's sequence is empty.
    pub fn into_workload(self, name: &str, kind: WorkloadKind) -> Workload {
        Workload::from_traces(name, kind, self.threads)
    }
}

impl FromStr for Trace {
    type Err = ParseTraceError;

    /// Parses the text format.
    ///
    /// # Errors
    /// Fails on a malformed line, and on a trace that could not be
    /// replayed: one with no `@thread` marker, or a thread with no
    /// reference (reported at its marker's line).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut threads: Vec<Vec<MemRef>> = Vec::new();
        // Line of the current thread's `@thread` marker.
        let mut marker = 0;
        let empty_thread = |line: usize| ParseTraceError {
            line,
            message: "thread has no references".into(),
        };
        for (idx, raw) in s.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("@thread") {
                let n: usize = rest.trim().parse().map_err(|_| ParseTraceError {
                    line: lineno,
                    message: format!("bad thread marker {line:?}"),
                })?;
                if n != threads.len() {
                    return Err(ParseTraceError {
                        line: lineno,
                        message: format!(
                            "thread markers must be sequential (expected {}, got {n})",
                            threads.len()
                        ),
                    });
                }
                if threads.last().is_some_and(Vec::is_empty) {
                    return Err(empty_thread(marker));
                }
                threads.push(Vec::new());
                marker = lineno;
                continue;
            }
            let current = threads.last_mut().ok_or(ParseTraceError {
                line: lineno,
                message: "reference before any @thread marker".into(),
            })?;
            let mut parts = line.split_whitespace();
            let block = parts
                .next()
                .and_then(|t| u64::from_str_radix(t, 16).ok())
                .ok_or_else(|| ParseTraceError {
                    line: lineno,
                    message: "bad block address".into(),
                })?;
            let flag = parts.next().ok_or_else(|| ParseTraceError {
                line: lineno,
                message: "missing flags".into(),
            })?;
            let (write, code) = match flag {
                "r" => (false, false),
                "w" => (true, false),
                "c" => (false, true),
                other => {
                    return Err(ParseTraceError {
                        line: lineno,
                        message: format!("bad flag {other:?}"),
                    })
                }
            };
            let gap: u32 =
                parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ParseTraceError {
                        line: lineno,
                        message: "bad gap".into(),
                    })?;
            if parts.next().is_some() {
                return Err(ParseTraceError {
                    line: lineno,
                    message: "trailing tokens".into(),
                });
            }
            current.push(MemRef {
                block: BlockAddr(block),
                write,
                code,
                gap,
            });
        }
        match threads.last() {
            None => Err(ParseTraceError {
                line: s.lines().count().max(1),
                message: "trace has no @thread marker".into(),
            }),
            Some(refs) if refs.is_empty() => Err(empty_thread(marker)),
            Some(_) => Ok(Trace { threads }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multithreaded;

    #[test]
    fn record_round_trips_through_text() {
        let mut wl = multithreaded("ferret", 4, 9).unwrap();
        let trace = Trace::record(&mut wl, 50);
        assert_eq!(trace.thread_count(), 4);
        assert_eq!(trace.len(), 200);
        let text = trace.to_text();
        let parsed: Trace = text.parse().expect("round trip");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn replay_reproduces_the_stream() {
        let mut wl = multithreaded("ferret", 2, 9).unwrap();
        let trace = Trace::record(&mut wl, 30);
        let original = trace.clone();
        let mut replay = trace.into_workload("ferret.trace", WorkloadKind::MultiThreaded);
        for t in 0..2 {
            for i in 0..30 {
                assert_eq!(replay.threads[t].next_ref(), original.threads[t][i]);
            }
            // Wrap-around replays from the start.
            assert_eq!(replay.threads[t].next_ref(), original.threads[t][0]);
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!("zzz r 1".parse::<Trace>().is_err());
        assert!(
            "@thread 1\n40 r 1".parse::<Trace>().is_err(),
            "non-sequential"
        );
        assert!("40 r 1".parse::<Trace>().is_err(), "no thread marker");
        let e = "@thread 0\n40 x 1".parse::<Trace>().unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bad flag"));
        assert!("@thread 0\n40 r".parse::<Trace>().is_err(), "missing gap");
        assert!(
            "@thread 0\n40 r 1 zzz".parse::<Trace>().is_err(),
            "trailing"
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let t: Trace = "# header\n\n@thread 0\n# mid comment\nff w 3\n"
            .parse()
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.threads[0][0].block, BlockAddr(0xff));
        assert!(t.threads[0][0].write);
        assert_eq!(t.threads[0][0].gap, 3);
        assert!(!t.is_empty());
    }

    /// A trace that parses must replay: no thread, or a thread without a
    /// reference, is a line-numbered error rather than a later panic in
    /// `into_workload`.
    #[test]
    fn unreplayable_traces_are_rejected() {
        for (text, line, what) in [
            ("@thread 0\n", 1, "no references"),
            ("# nothing\n", 1, "no @thread"),
            ("", 1, "no @thread"),
            ("@thread 0\n@thread 1\n1 r 0\n", 1, "no references"),
            ("@thread 0\n1 r 0\n# c\n@thread 1\n", 4, "no references"),
        ] {
            let e = text.parse::<Trace>().unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(what), "{text:?}: {e}");
        }
    }
}
