//! Service-lifetime counters: one struct behind a leaf mutex, copied
//! out whole by [`MappingService::stats`](crate::MappingService::stats).

use crate::ladder::LadderRung;

/// The service counters. The service keeps one behind a mutex that is
/// a leaf (nothing else is locked while it is held) and hands out
/// copies, so every field of one copy was read at the same instant.
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
        let mut served_by_rung = [0; LadderRung::COUNT];
        served_by_rung[LadderRung::Projection.index()] = 5;
        let snap = StatsSnapshot {
            accepted: 30,
            rejected: 10,
            served_by_rung,
            ..StatsSnapshot::default()
        };
        assert!((snap.shed_rate() - 0.25).abs() < 1e-12);
        assert_eq!(snap.rung_counts()[3], ("projection", 5));
        assert_eq!(StatsSnapshot::default().shed_rate(), 0.0);
    }
}
