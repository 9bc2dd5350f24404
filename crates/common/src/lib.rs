//! Foundational types for the ZeroDEV coherence-protocol reproduction.
//!
//! This crate holds everything the rest of the simulator stack agrees on:
//!
//! * [`ids`] — strongly-typed identifiers ([`CoreId`], [`SocketId`], [`BankId`])
//!   and the [`BlockAddr`] / [`Addr`] address newtypes.
//! * [`mesi`] — the MESI coherence states used by the private caches and the
//!   owner/sharer view kept by directories.
//! * [`msg`] — coherence message classes and their on-wire sizes, used for
//!   interconnect-traffic accounting.
//! * [`config`] — the full simulated-machine description (Table I of the paper
//!   is [`SystemConfig::baseline_8core`]).
//! * [`stats`] — the event counters every experiment reads out.
//! * [`rng`] — a small deterministic PRNG (xoshiro256**) so that every
//!   simulation is exactly reproducible from a seed.
//! * [`divisor`] — division by a fixed divisor as a shift and mask when it
//!   is a power of two (bank, key, and DRAM address mapping).
//! * [`env`] — graceful environment-variable parsing (warn + default on
//!   bad values) shared by every harness knob.
//! * [`flatmap`] — a flat open-addressing `u64 → V` hash map (Fibonacci
//!   hashing, backward-shift deletion) used on the protocol engine's hot
//!   lookup paths instead of the SipHash-hardened std map.
//! * [`snap`] — hand-rolled versioned binary snapshot encoding (magic,
//!   version, FNV-1a checksum) used by checkpoint/resume.
//! * [`table`] — plain-text table rendering for the figure harnesses.
//! * [`protocol`] — the protocol vocabulary ([`protocol::Op`],
//!   [`protocol::EvictKind`], invalidations/downgrades) and the pure
//!   decision rules shared by the concrete engine and the exhaustive model
//!   checker.
//!
//! # Example
//!
//! ```
//! use zerodev_common::{Addr, BlockAddr, CoreId, config::SystemConfig};
//!
//! let cfg = SystemConfig::baseline_8core();
//! assert_eq!(cfg.cores, 8);
//! let b = BlockAddr::from_byte_addr(Addr(0x1234));
//! assert_eq!(b.byte_addr().0 % cfg.block_bytes as u64, 0);
//! let _home = cfg.home_bank(b);
//! let _ = CoreId(3);
//! ```

pub mod config;
pub mod divisor;
pub mod env;
pub mod flatmap;
pub mod ids;
pub mod mesi;
pub mod msg;
pub mod protocol;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod table;

pub use config::SystemConfig;
pub use divisor::Divisor;
pub use flatmap::FlatMap;
pub use ids::{Addr, BankId, BlockAddr, CoreId, Cycle, SocketId};
pub use mesi::{DirState, MesiState};
pub use msg::MsgClass;
pub use rng::Prng;
pub use stats::Stats;
