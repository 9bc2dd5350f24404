//! Exhaustive explicit-state model checking for the ZeroDEV protocol.
//!
//! The cycle-accurate simulator exercises the protocol along whatever paths
//! its workloads happen to take; this crate instead *enumerates every
//! reachable state* of an abstracted machine — 1–4 cores on 1–2 sockets,
//! 1–2 block addresses, and an LLC small enough that entry spills, fusion,
//! WB_DE evictions and corrupted-home-memory flows are all reachable within
//! a handful of transitions.
//!
//! The transition relation is not a re-implementation: the checker drives
//! the same concrete [`zerodev_core::System`] the simulator uses, through
//! [`zerodev_core::ProtocolHarness`], which replicates the sim engine's
//! effect-application contract. Rules shared by both live in
//! [`zerodev_common::protocol`]. A protocol bug therefore cannot hide in a
//! divergence between "the model" and "the implementation".
//!
//! * [`config`] — the tiny machine configurations under check.
//! * [`state`] — canonical state encoding with core-ID symmetry reduction.
//! * [`explore`] — BFS over the reachable graph with hashed dedup, one
//!   expansion per class of interchangeable cores, a check per canonical
//!   state, panic isolation, and shortest counterexample reconstruction.
//! * [`trace`] — the counterexample/fixture text format and deterministic
//!   replay.

pub mod config;
pub mod explore;
pub mod state;
pub mod trace;

pub use config::ModelConfig;
pub use explore::{explore, Exploration, Limits, Violation};
pub use trace::{parse_fixture, run_fixture, Expectation, Fixture};
