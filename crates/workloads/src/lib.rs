//! Synthetic workload generators modelling the paper's benchmark suites.
//!
//! The paper evaluates on PARSEC, SPLASH2X, SPEC OMP, FFTW, SPEC CPU 2017
//! (rate and heterogeneous multi-programmed mixes), and trace-driven server
//! workloads. None of those binaries or traces are available here, so each
//! application, the server workloads included, is modelled by a parameter
//! vector ([`WorkloadSpec`]) — per-thread private working set, shared
//! read-only/read-write regions, code footprint, write fractions, locality
//! skew, and memory-op density — chosen so the *qualitative* behaviours
//! the paper reports are reproduced (which applications are DEV-sensitive,
//! LLC-capacity-sensitive, sharing-heavy, and so on). See DESIGN.md for
//! the substitution rationale. Nothing replays a trace file: a workload's
//! reference stream is a pure function of (application, thread count,
//! seed), so building the workload again repeats a run exactly.
//!
//! # Example
//!
//! ```
//! use zerodev_workloads::{multithreaded, suites};
//!
//! let name = suites::PARSEC[0];
//! let mut wl = multithreaded(name, 8, 42).unwrap();
//! let r = wl.threads[0].next_ref();
//! assert!(r.gap < 1_000);
//! ```

mod gen;
mod spec;
pub mod torture;
mod trace;

pub use gen::{hetero_mix, multithreaded, rate, server, MemRef, ThreadGen, Workload, WorkloadKind};
pub use spec::{lookup, suites, Suite, WorkloadSpec};
pub use torture::{TortureKind, TORTURE};
pub use trace::Trace;
