//! The ZeroDEV coherence protocol and every directory design it is compared
//! against.
//!
//! This crate is the paper's primary contribution plus its baselines:
//!
//! * [`directory`] — the sparse directory (NRU, any `R×` size,
//!   replacement-disabled under ZeroDEV), the unbounded directory, and the
//!   *no directory* configuration.
//! * [`secdir`] — the SecDir baseline (Yan et al., ISCA 2019): per-core
//!   private partitions plus a shared partition.
//! * [`mgd`] — the Multi-grain Directory baseline (Zebchuk et al., MICRO
//!   2013): one entry can track a private 1 KB region.
//! * [`llc`] — LLC banks whose lines can be ordinary data, *spilled*
//!   directory entries, or *fused* block+entry lines (§III-C of the paper),
//!   with the `spLRU`/`dataLRU` replacement extensions (§III-D1).
//! * [`memdir`] — the memory-side state: corrupted home blocks housing
//!   evicted directory entries as full-map segments (§III-D) and the
//!   socket-level directory, backed in home memory (§III-D5).
//! * `invariants` — the per-block coherence invariants, shared by the
//!   audit oracle ([`oracle`]) and the model checker's harness ([`step`]).
//! * [`system`] — the protocol engine: a home-serialised MESI
//!   write-invalidate protocol with the full ZeroDEV extension set
//!   (spill/fuse policies, invariant maintenance, WB_DE / GET_DE /
//!   DENF_NACK flows, EPD and inclusive LLC designs, multi-socket
//!   coherence).
//!
//! The engine is driven through [`System::access`] and [`System::evict`],
//! and [`apply_effects`] applies each transaction's downgrades and
//! invalidations to a caller's [`PrivateCaches`]: the trace-driven cores of
//! the `zerodev-sim` crate, or the model checker's shadow states in
//! [`step`].
//!
//! # Example
//!
//! ```
//! use zerodev_core::{Op, System};
//! use zerodev_common::{BlockAddr, CoreId, Cycle, SocketId, SystemConfig};
//!
//! let mut sys = System::new(SystemConfig::baseline_8core()).unwrap();
//! let r = sys.access(Cycle(0), SocketId(0), CoreId(0), BlockAddr(0x100), Op::Read);
//! assert!(r.latency > 0);
//! assert!(r.grant.is_owned()); // sole reader gets E
//! ```

pub mod directory;
mod invariants;
pub mod llc;
pub mod memdir;
pub mod mgd;
pub mod oracle;
pub mod secdir;
pub mod step;
pub mod system;

pub use directory::{DirEntry, DirStore};
pub use llc::{LlcBank, LlcLine};
pub use oracle::Oracle;
pub use step::{ProtocolEvent, ProtocolHarness, StepViolation};
pub use system::{
    apply_effects, AccessResult, Downgrade, EvictKind, InvalReason, Invalidation, Op,
    PrivateCaches, StateFault, System,
};
