//! Service configuration: admission, deadlines, supervision and
//! durability, plus the fixed retry policy.

use std::path::PathBuf;

use crate::journal::CrashSwitch;

/// Crash-safety settings (DESIGN.md §18): where the write-ahead churn
/// journal and checksummed snapshots live, and how often state is
/// snapshotted. Durability is opt-in
/// (`ServiceConfig::durability: Option<_>`) and entirely off the
/// map-request hot path — only churn/commit mutations append frames.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding `journal.bin`, `snapshot.bin` and
    /// `snapshot.old.bin`. Created if absent.
    pub dir: PathBuf,
    /// Appended frames between snapshots (`0` = journal only, never
    /// snapshot). Snapshots bound recovery *replay* time; the journal
    /// itself is append-only and grows with churn volume.
    pub snapshot_every: u64,
    /// `fsync` the journal after every frame (durability against OS
    /// crashes, not just process death). Off by default: the frame is
    /// flushed to the OS either way.
    pub fsync: bool,
    /// Deterministic crash injection for the chaos harness
    /// (`tests/recovery.rs`); `None` in production.
    #[doc(hidden)]
    pub crash: Option<CrashSwitch>,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default snapshot ration.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 64,
            fsync: false,
            crash: None,
        }
    }
}

/// Repair attempts before an infeasible repair surfaces a typed
/// [`ServiceError::RepairExhausted`](crate::ServiceError::RepairExhausted)
/// (never a panic). Capacity-restoring events (`NodesAdded`) still
/// re-arm the repair afterwards.
pub const RETRY_MAX_ATTEMPTS: u32 = 8;

/// Backoff before the first timed retry: 1 ms.
const RETRY_BASE_BACKOFF_NS: u64 = 1_000_000;

/// Backoff cap: 100 ms.
const RETRY_MAX_BACKOFF_NS: u64 = 100_000_000;

/// Backoff before retry attempt `attempt` (1-based), doubling from the
/// base and saturating at the cap.
pub(crate) fn retry_backoff_ns(attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(32);
    RETRY_BASE_BACKOFF_NS
        .saturating_mul(1u64 << shift)
        .min(RETRY_MAX_BACKOFF_NS)
}

/// Churn-drift supervisor policy: how often to compare the live
/// (repaired) mapping against a from-scratch baseline.
#[derive(Clone, Debug)]
pub struct SupervisorPolicy {
    /// Repairs between drift checks (`K`). The check itself may cost a
    /// from-scratch baseline re-map, so it is rationed.
    pub check_every: u32,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self { check_every: 16 }
    }
}

/// Full service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads consuming the admission queue. `0` is legal (no
    /// consumers — submissions queue up to capacity, then shed), which
    /// the backpressure tests rely on.
    pub workers: usize,
    /// Admission-queue bound: submissions beyond this depth are shed
    /// with [`Submit::Rejected`](crate::Submit::Rejected) instead of
    /// growing the queue.
    pub queue_capacity: usize,
    /// Deadline for requests that do not carry their own, nanoseconds
    /// (admission to response).
    pub default_deadline_ns: u64,
    /// Queue depth at which the ladder sheds one extra rung even when
    /// the time budget would allow more (overload degrades quality,
    /// not latency).
    pub pressure_depth: usize,
    /// Drift-supervisor policy.
    pub supervisor: SupervisorPolicy,
    /// Crash-safe durability (write-ahead journal + snapshots);
    /// `None` (the default) keeps all state in memory.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            default_deadline_ns: 50_000_000, // 50 ms
            pressure_depth: 32,
            supervisor: SupervisorPolicy::default(),
            durability: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(retry_backoff_ns(1), 1_000_000);
        assert_eq!(retry_backoff_ns(2), 2_000_000);
        assert_eq!(retry_backoff_ns(3), 4_000_000);
        assert_eq!(retry_backoff_ns(7), 64_000_000);
        assert_eq!(retry_backoff_ns(8), 100_000_000); // capped
        assert_eq!(retry_backoff_ns(64), 100_000_000); // shift clamped, no overflow
    }
}
