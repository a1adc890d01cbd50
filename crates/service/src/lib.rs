//! `umpa-service` — the always-on mapping service shell.
//!
//! The paper's premise is that topology-aware mapping is cheap enough
//! to run *online*, at job-launch time. This crate supplies the
//! long-running shell that premise implies (std-only, no async
//! runtime): a [`MappingService`] owning the shared machine /
//! allocation / resident-job state, with three robustness layers on
//! top of the `umpa-core` engine:
//!
//! * **Bounded admission with explicit backpressure** — map requests
//!   enter through a `sync_channel` of fixed capacity consumed by
//!   worker threads (each with a warm [`MapperScratch`] pool); when
//!   the queue is full the submitter gets
//!   [`Submit::Rejected`]` { queue_depth }`, never unbounded growth.
//! * **Per-request deadlines with a degradation ladder** — each
//!   request carries a time budget; when the budget is tight or the
//!   queue is deep the service steps down
//!   `cong_refine → wh_refine → greedy-only → projection`
//!   ([`LadderRung`]), recording which rung served the request, so
//!   overload degrades quality instead of latency. Panicking requests
//!   are isolated with `catch_unwind` and answered with a typed
//!   [`ServiceError::Panicked`]. `install_job` maps the resident job
//!   before it journals it, under the same `catch_unwind`, so a job the
//!   mapper cannot place is refused with that error and never reaches
//!   the journal.
//! * **Churn repair on events and a drift supervisor** — every churn
//!   batch repairs the resident job via `remap_incremental`. An
//!   `Infeasible` outcome reports its unplaced tasks in the
//!   [`RepairReport`] (never a panic); they stay unplaced until a
//!   later batch's repair places them, which converges once
//!   `NodesAdded` restores capacity. Nothing retries on a timer: a
//!   repair of unchanged state fails again. A supervisor checks the
//!   live mapping's WH every 16 repairs against a from-scratch
//!   baseline, polishing (or adopting the baseline) when drift crosses
//!   the bound, and keeping the live mapping when greedy cannot build
//!   a baseline. The resident job's cumulative repair drift is read
//!   through [`MappingService::drift`].
//!
//! The counters are one [`StatsSnapshot`] behind a mutex that is a
//! leaf (nothing else is locked while it is held);
//! [`MappingService::stats`] copies it out whole, so one copy is
//! consistent across all its fields.
//!
//! A fourth layer makes the state crash-safe: every accepted mutation
//! is written ahead to an on-disk journal with in-tree CRC32 framing,
//! periodically compacted into checksummed snapshots published by
//! atomic rename, and [`MappingService::recover`] rebuilds a resident
//! job **bit-identical** to an uninterrupted run — torn or corrupt
//! journal tails are truncated with a typed report, never a panic
//! ([`RecoveryError`]). A deterministic [`CrashPoint`] injection seam
//! lets the chaos harness kill the write path at every byte boundary
//! that matters.
//!
//! See DESIGN.md §16 for the architecture and the policy contracts,
//! and §18 for the durability formats and recovery contract.
//!
//! [`MapperScratch`]: umpa_core::MapperScratch

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
mod codec;
pub mod config;
pub mod journal;
pub mod ladder;
pub mod recovery;
pub mod request;
pub mod service;
pub mod stats;
mod supervisor;
mod worker;

pub use clock::{ManualClock, ServiceClock};
pub use config::{DurabilityConfig, ServiceConfig};
pub use journal::{CrashPoint, CrashSwitch, JournalError};
pub use ladder::LadderRung;
pub use recovery::{RecoveryError, RecoveryReport, SnapshotSource};
pub use request::{MapJob, MapReply, MapTicket, RepairReport, ServiceError, Submit};
pub use service::MappingService;
pub use stats::StatsSnapshot;

/// Commonly used items.
pub mod prelude {
    pub use crate::clock::{ManualClock, ServiceClock};
    pub use crate::config::{DurabilityConfig, ServiceConfig};
    pub use crate::journal::{CrashPoint, CrashSwitch, JournalError};
    pub use crate::ladder::LadderRung;
    pub use crate::recovery::{RecoveryError, RecoveryReport, SnapshotSource};
    pub use crate::request::{MapJob, MapReply, MapTicket, RepairReport, ServiceError, Submit};
    pub use crate::service::MappingService;
    pub use crate::stats::StatsSnapshot;
}
