//! Full-system CMP simulation: trace-driven cores on top of the
//! `zerodev-core` protocol engine.
//!
//! * [`core_model`] — the private L1I/L1D/L2 hierarchy of one core,
//!   including upgrade generation, eviction notices, and the application of
//!   invalidations/downgrades.
//! * [`engine`] — the event loop interleaving all cores deterministically,
//!   plus completion/IPC accounting (weighted speedup for multi-programmed
//!   workloads, completion time for multi-threaded ones).
//! * [`energy`] — the CACTI-substitute energy model for the
//!   sparse-directory + LLC energy comparison (§V).
//! * [`runner`] — one-call experiment execution: run a workload on a
//!   config, normalise against a baseline.
//! * [`parallel`] — the sweep engine: executes a (config × workload) grid
//!   across a scoped worker pool with deterministic result ordering and a
//!   process-wide baseline memoization cache. A panicking point fails
//!   alone as [`PointResult::Failed`], which names it.
//! * [`faults`] — deterministic fault injection (`RunParams.faults`; the
//!   soak driver arms it from `ZERODEV_FAULTS`): a seeded state
//!   corruption the oracle must catch.
//! * [`checkpoint`] — deterministic checkpoint/resume: a paused run
//!   serializes to a versioned, checksummed image and restores into a run
//!   that continues byte-identically to the uninterrupted original.
//!
//! # Example
//!
//! ```
//! use zerodev_sim::runner::{run, RunParams};
//! use zerodev_common::SystemConfig;
//! use zerodev_workloads::multithreaded;
//!
//! let cfg = SystemConfig::baseline_8core();
//! let wl = multithreaded("swaptions", 8, 1).unwrap();
//! let res = run(&cfg, wl, &RunParams { refs_per_core: 2_000, warmup_refs: 200, ..Default::default() });
//! assert!(res.completion_cycles > 0);
//! ```

pub mod checkpoint;
pub mod core_model;
pub mod energy;
pub mod engine;
pub mod faults;
pub mod parallel;
pub mod runner;

pub use engine::{PausedRun, RunStatus, SimResult, Simulation};
pub use faults::{FaultConfig, FaultPlan, FaultStats, StateFault};
pub use parallel::{Engine, JobOutcome, PointResult, RunJob, WorkloadMaker};
pub use runner::{run, RunParams};
