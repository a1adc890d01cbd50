//! `umpa-ds` — low-level data structures shared by the mapping algorithms.
//!
//! The three algorithms of the paper are heap-driven:
//!
//! * Algorithm 1 keeps the task→mapped-set connectivity in a max-heap
//!   (`conn`) with *increase-key* updates,
//! * Algorithm 2 keeps per-task incurred weighted hops in a max-heap
//!   (`whHeap`) with arbitrary key updates,
//! * Algorithm 3 keeps per-link congestion in a max-heap (`congHeap`)
//!   whose keys are virtually perturbed and rolled back while probing
//!   candidate swaps.
//!
//! All of those need an **indexed** binary heap: `O(log n)` push/pop and
//! `O(log n)` change-key addressed by a dense integer id. That structure
//! is [`IndexedMaxHeap`]. The crate also provides a fixed-capacity bitset
//! ([`FixedBitSet`]), an epoch-stamped visit marker ([`EpochMarker`]) that
//! lets BFS workspaces be reused without `O(n)` clears, and flat
//! slot→task buckets with O(1) moves ([`SlotBuckets`]) backing the
//! refinement algorithms' residency tracking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod epoch;
pub mod heap;
pub mod slots;

pub use bitset::FixedBitSet;
pub use epoch::EpochMarker;
pub use heap::IndexedMaxHeap;
pub use slots::SlotBuckets;
