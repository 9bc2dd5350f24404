//! # ZeroDEV — Zero Directory Eviction Victim
//!
//! A from-scratch Rust reproduction of *"Zero Directory Eviction Victim:
//! Unbounded Coherence Directory and Core Cache Isolation"* (Mainak
//! Chaudhuri, HPCA 2021): a cycle-approximate chip-multiprocessor memory
//! system simulator with a directory-based MESI protocol, the complete
//! ZeroDEV extension set, and every baseline the paper compares against.
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`common`] — configuration, identifiers, statistics, deterministic RNG.
//! * [`cache`] — set-associative arrays and replacement policies.
//! * [`noc`] — the 2D-mesh interconnect model.
//! * [`dram`] — the DDR3 timing model.
//! * [`core`] — directories (sparse / unbounded / SecDir / Multi-grain),
//!   the protocol engine, ZeroDEV's LLC-resident entries and memory flows.
//! * [`workloads`] — synthetic models of the paper's benchmark suites.
//! * [`sim`] — trace-driven cores, the event engine, the energy model.
//!
//! # Example
//!
//! ```
//! use zerodev::prelude::*;
//!
//! let baseline = SystemConfig::baseline_8core();
//! let zerodev = SystemConfig::baseline_8core()
//!     .with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
//! let params = RunParams::quick();
//! let base = run(&baseline, multithreaded("ferret", 8, 1).unwrap(), &params);
//! let zd = run(&zerodev, multithreaded("ferret", 8, 1).unwrap(), &params);
//! assert_eq!(zd.stats.dev_invalidations, 0); // the paper's guarantee
//! let _speedup = zd.result.speedup_vs(&base.result).expect("same core count");
//! ```

pub use zerodev_cache as cache;
pub use zerodev_common as common;
pub use zerodev_core as core;
pub use zerodev_dram as dram;
pub use zerodev_noc as noc;
pub use zerodev_sim as sim;
pub use zerodev_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use zerodev_common::config::{
        DirectoryKind, LlcDesign, LlcReplacement, Ratio, SpillPolicy, ZeroDevConfig,
    };
    pub use zerodev_common::{
        Addr, BlockAddr, CoreId, Cycle, DirState, MesiState, SocketId, Stats, SystemConfig,
    };
    pub use zerodev_core::{AccessResult, EvictKind, InvalReason, Invalidation, Op, System};
    pub use zerodev_sim::runner::{run, RunParams};
    pub use zerodev_sim::{FaultConfig, FaultStats, SimResult, Simulation, StateFault};
    pub use zerodev_workloads::{hetero_mix, multithreaded, rate, server, suites, Workload};
}
