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
//! * [`snap`] — hand-rolled binary machine images, which the model
//!   checker keeps its frontier in, and the FNV-1a hash behind the
//!   configuration fingerprint.
//! * [`table`] — plain-text table rendering for the figure harnesses.
//! * [`fieldwise_clone!`] — `Clone` whose `clone_from` refills every
//!   field's existing buffers (the model checker's reused successor).
//! * [`panic_message`] — a caught panic's payload as text, for the
//!   panic-isolated sweeps, campaigns, and the model checker.
//! * [`protocol`] — the protocol vocabulary ([`protocol::Op`],
//!   [`protocol::EvictKind`], invalidations/downgrades) and the pure
//!   decision rules shared by the concrete engine and the exhaustive model
//!   checker.
//!
//! # Example
//!
//! ```
//! use zerodev_common::{ids::BLOCK_BYTES, Addr, BlockAddr, CoreId, config::SystemConfig};
//!
//! let cfg = SystemConfig::baseline_8core();
//! assert_eq!(cfg.cores, 8);
//! let b = BlockAddr::from_byte_addr(Addr(0x1234));
//! assert_eq!(b.byte_addr().0 % BLOCK_BYTES as u64, 0);
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

/// Implements `Clone` field by field for a struct that lists every field:
/// `clone` clones each one, and `clone_from` calls each one's own
/// `clone_from`, so a `Vec` (or a nested type implemented the same way)
/// is refilled in the buffer it already has. A derived `clone_from` is
/// `*self = source.clone()`, which allocates every buffer anew. Both
/// methods destructure the struct with every field named and no `..`, so
/// a field added to the struct but not to the list is a compile error.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Lanes {
///     keys: Vec<u64>,
///     len: usize,
/// }
/// zerodev_common::fieldwise_clone!(Lanes { keys, len });
///
/// let full = Lanes { keys: vec![1, 2, 3], len: 3 };
/// let mut scratch = Lanes { keys: Vec::with_capacity(8), len: 0 };
/// let buffer = scratch.keys.as_ptr();
/// scratch.clone_from(&full);
/// assert_eq!(scratch, full);
/// assert_eq!(scratch.keys.as_ptr(), buffer);
/// ```
#[macro_export]
macro_rules! fieldwise_clone {
    ($ty:ident $(<$($g:ident),+>)? { $($field:ident),+ $(,)? }) => {
        impl$(<$($g: Clone),+>)? Clone for $ty$(<$($g),+>)? {
            fn clone(&self) -> Self {
                let $ty { $($field),+ } = self;
                $ty { $($field: Clone::clone($field)),+ }
            }

            fn clone_from(&mut self, source: &Self) {
                let $ty { $($field),+ } = self;
                let $ty { $($field: _),+ } = source;
                $(Clone::clone_from($field, &source.$field);)+
            }
        }
    };
}

/// Renders a caught panic's payload as text: panics carry a `String` or a
/// `&str`, and anything else reads "non-string panic payload". Pass
/// `&*payload` for a `Box<dyn Any + Send>` — a `&Box` would coerce to the
/// box itself and never downcast.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::panic_message;

    #[test]
    fn panic_message_renders_every_payload_kind() {
        let caught = |f: fn()| std::panic::catch_unwind(f).expect_err("closure panics");
        let literal = caught(|| panic!("plain"));
        let formatted = caught(|| panic!("formatted {}", 7));
        let other = caught(|| std::panic::panic_any(7u32));
        assert_eq!(panic_message(&*literal), "plain");
        assert_eq!(panic_message(&*formatted), "formatted 7");
        assert_eq!(panic_message(&*other), "non-string panic payload");
    }
}
