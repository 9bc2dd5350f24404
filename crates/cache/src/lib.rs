//! Set-associative cache arrays and replacement policies for the ZeroDEV
//! simulator.
//!
//! The same generic array backs every tagged structure in the machine: the
//! private L1/L2 caches, the shared LLC banks, the sparse-directory slices,
//! the SecDir partitions, and the Multi-grain Directory. The ZeroDEV LLC
//! replacement extensions (`spLRU`, `dataLRU`, §III-D1 of the paper) are
//! expressed through the *protected-line* victim search of
//! [`SetAssoc::insert`] plus caller-controlled recency touches.
//!
//! # Example
//!
//! ```
//! use zerodev_cache::{SetAssoc, Replacement};
//!
//! let mut cache: SetAssoc<&'static str> = SetAssoc::new(2, 2, Replacement::Lru);
//! assert_eq!(cache.insert(0, "a", |_| false), (0, None)); // slot 0, nothing evicted
//! assert_eq!(cache.insert(2, "b", |_| false), (1, None)); // same set as key 0
//! let slot = cache.touch(0, |_| true).unwrap();            // "a" becomes MRU
//! assert_eq!(*cache.at(slot), "a");
//! let (slot, victim) = cache.insert(4, "c", |_| false);
//! assert_eq!((slot, victim), (1, Some((2, "b"))));        // LRU way evicted
//! ```

mod setassoc;

pub use setassoc::{Replacement, SetAssoc};
