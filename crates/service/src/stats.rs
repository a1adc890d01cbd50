//! Service-lifetime counters (lock-free, read via snapshot).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::ladder::LadderRung;

/// Internal atomic counters.
#[derive(Debug, Default)]
pub(crate) struct ServiceStats {
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    pub served_by_rung: [AtomicU64; LadderRung::COUNT],
    pub deadline_misses: AtomicU64,
    pub panics: AtomicU64,
    pub repairs: AtomicU64,
    pub infeasible: AtomicU64,
    pub drift_checks: AtomicU64,
    pub polishes: AtomicU64,
    pub baseline_adoptions: AtomicU64,
    pub max_queue_depth: AtomicUsize,
    pub journal_appends: AtomicU64,
    pub journal_bytes: AtomicU64,
    pub journal_errors: AtomicU64,
    pub snapshots_written: AtomicU64,
    /// Mirrors of the resident job's `RemapDrift`, refreshed on every
    /// successful repair so readers get drift without the state lock.
    /// The `f64` members travel as raw bits.
    pub drift_repairs: AtomicU64,
    pub drift_displaced_total: AtomicU64,
    pub drift_wh_delta_bits: AtomicU64,
    pub drift_wh_last_bits: AtomicU64,
}

impl ServiceStats {
    /// Records an observed queue depth (keeps the maximum).
    pub fn note_depth(&self, depth: usize) {
        self.max_queue_depth.fetch_max(depth, Ordering::AcqRel);
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Acquire);
        StatsSnapshot {
            accepted: load(&self.accepted),
            rejected: load(&self.rejected),
            served_by_rung: [
                load(&self.served_by_rung[0]),
                load(&self.served_by_rung[1]),
                load(&self.served_by_rung[2]),
                load(&self.served_by_rung[3]),
            ],
            deadline_misses: load(&self.deadline_misses),
            panics: load(&self.panics),
            repairs: load(&self.repairs),
            infeasible: load(&self.infeasible),
            drift_checks: load(&self.drift_checks),
            polishes: load(&self.polishes),
            baseline_adoptions: load(&self.baseline_adoptions),
            max_queue_depth: self.max_queue_depth.load(Ordering::Acquire),
            journal_appends: load(&self.journal_appends),
            journal_bytes: load(&self.journal_bytes),
            journal_errors: load(&self.journal_errors),
            snapshots_written: load(&self.snapshots_written),
            drift_repairs: load(&self.drift_repairs),
            drift_displaced_total: load(&self.drift_displaced_total),
            drift_wh_delta_total: f64::from_bits(load(&self.drift_wh_delta_bits)),
            drift_wh_last: f64::from_bits(load(&self.drift_wh_last_bits)),
        }
    }
}

/// Point-in-time copy of the service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Map requests admitted.
    pub accepted: u64,
    /// Map requests shed at admission (backpressure).
    pub rejected: u64,
    /// Requests served per ladder rung, indexed by
    /// [`LadderRung::index`].
    pub served_by_rung: [u64; LadderRung::COUNT],
    /// Accepted requests whose response missed its deadline.
    pub deadline_misses: u64,
    /// Request panics caught (and isolated) by workers.
    pub panics: u64,
    /// Successful incremental repairs of the resident job.
    pub repairs: u64,
    /// Repairs that came back infeasible, leaving tasks unplaced.
    pub infeasible: u64,
    /// Drift-supervisor checks run.
    pub drift_checks: u64,
    /// Supervisor polish passes (WH ± congestion) on the live mapping.
    pub polishes: u64,
    /// Times the supervisor adopted the from-scratch baseline.
    pub baseline_adoptions: u64,
    /// Highest admission-queue depth observed.
    pub max_queue_depth: usize,
    /// Journal frames appended (WAL write-path commits).
    pub journal_appends: u64,
    /// Journal bytes appended (frame heads + payloads).
    pub journal_bytes: u64,
    /// Durability write failures absorbed (I/O errors or an injected
    /// crash); the service kept serving from memory.
    pub journal_errors: u64,
    /// Checksummed snapshots atomically published.
    pub snapshots_written: u64,
    /// Resident job's cumulative successful repairs
    /// (`RemapDrift::repairs`, mirrored at the last repair).
    pub drift_repairs: u64,
    /// Tasks displaced across all repairs (`RemapDrift::displaced_total`).
    pub drift_displaced_total: u64,
    /// Cumulative repair WH delta (`RemapDrift::wh_delta_total`).
    pub drift_wh_delta_total: f64,
    /// Live WH recorded by the most recent repair (`RemapDrift::wh_last`).
    pub drift_wh_last: f64,
}

impl StatsSnapshot {
    /// Fraction of submissions shed at admission.
    pub fn shed_rate(&self) -> f64 {
        let total = self.accepted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.rejected as f64 / total as f64
        }
    }

    /// Requests served per rung as `(label, count)` pairs.
    pub fn rung_counts(&self) -> [(&'static str, u64); LadderRung::COUNT] {
        let mut out = [("", 0u64); LadderRung::COUNT];
        for (slot, rung) in out.iter_mut().zip(LadderRung::all()) {
            *slot = (rung.label(), self.served_by_rung[rung.index()]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_rate_and_rung_labels() {
        let stats = ServiceStats::default();
        stats.accepted.store(30, Ordering::Release);
        stats.rejected.store(10, Ordering::Release);
        stats.served_by_rung[LadderRung::Projection.index()].store(5, Ordering::Release);
        stats.note_depth(7);
        stats.note_depth(3);
        let snap = stats.snapshot();
        assert!((snap.shed_rate() - 0.25).abs() < 1e-12);
        assert_eq!(snap.max_queue_depth, 7);
        assert_eq!(snap.rung_counts()[3], ("projection", 5));
        assert_eq!(StatsSnapshot::default().shed_rate(), 0.0);
    }
}
