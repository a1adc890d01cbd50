//! Service time source.
//!
//! Every deadline and latency in the service is measured against one
//! [`ServiceClock`] so tests can substitute a manually advanced
//! counter for the wall clock: the ladder and the latency stats then
//! become fully deterministic (seed + event stream ⇒ same decisions),
//! which is what the determinism soak asserts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotonic nanosecond source: the wall clock in production, a shared
/// counter under test.
#[derive(Clone, Debug)]
pub enum ServiceClock {
    /// Wall time relative to the service's start instant.
    Monotonic(Instant),
    /// A manually advanced counter (see [`ManualClock`]).
    Manual(Arc<AtomicU64>),
}

impl ServiceClock {
    /// The production clock.
    pub fn monotonic() -> Self {
        // tidy-allow: determinism (the one wall-clock anchor of the service; tests swap in ServiceClock::manual)
        ServiceClock::Monotonic(Instant::now())
    }

    /// A test clock starting at 0 ns, advanced through the returned
    /// handle.
    pub fn manual() -> (Self, ManualClock) {
        let cell = Arc::new(AtomicU64::new(0));
        (
            ServiceClock::Manual(Arc::clone(&cell)),
            ManualClock { cell },
        )
    }

    /// Nanoseconds since the clock's origin.
    pub fn now_ns(&self) -> u64 {
        match self {
            ServiceClock::Monotonic(origin) => origin.elapsed().as_nanos() as u64,
            ServiceClock::Manual(cell) => cell.load(Ordering::Acquire),
        }
    }
}

/// Handle advancing a [`ServiceClock::Manual`] clock.
#[derive(Clone, Debug)]
pub struct ManualClock {
    cell: Arc<AtomicU64>,
}

impl ManualClock {
    /// Moves the clock forward by `ns`.
    pub fn advance_ns(&self, ns: u64) {
        self.cell.fetch_add(ns, Ordering::AcqRel);
    }

    /// Current reading, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.cell.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let (clock, handle) = ServiceClock::manual();
        assert_eq!(clock.now_ns(), 0);
        handle.advance_ns(250);
        handle.advance_ns(250);
        assert_eq!(clock.now_ns(), 500);
        assert_eq!(handle.now_ns(), 500);
    }

    #[test]
    fn monotonic_clock_does_not_go_backwards() {
        let clock = ServiceClock::monotonic();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }
}
