//! The long-running [`MappingService`]: shared state, bounded
//! admission, churn repair with bounded-backoff retry, and the drift
//! supervisor's trigger points.
//!
//! Concurrency shape: one `RwLock` around the machine/allocation/job
//! state. Map requests are read-locked (many in flight at once, they
//! never mutate); churn repair, retries and supervisor polish are
//! write-locked. Admission is a bounded `sync_channel` plus an atomic
//! depth counter — `try_send` full means the caller gets
//! [`Submit::Rejected`] with the observed depth, never an unbounded
//! queue. Lock poisoning is absorbed with `into_inner`: a panicked
//! request (already isolated by the worker's `catch_unwind`) must not
//! wedge the service.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

use umpa_core::greedy::weighted_hops;
use umpa_core::{
    apply_events, check_job, map_tasks_with, remap_incremental, ChurnEvent, MapperScratch,
    PipelineConfig, RemapConfig, RemapDrift, RemapOutcome,
};
use umpa_graph::TaskGraph;
use umpa_topology::{Allocation, Machine};

use crate::clock::ServiceClock;
use crate::config::{retry_backoff_ns, ServiceConfig, RETRY_MAX_ATTEMPTS};
use crate::journal::{Durability, JournalRecord};
use crate::ladder::{CostModel, LadderRung};
use crate::recovery;
use crate::request::{Envelope, MapJob, MapTicket, RepairReport, ServiceError, Submit};
use crate::stats::{ServiceStats, StatsSnapshot};
use crate::supervisor::{PolishOutcome, Supervisor};
use crate::worker;

/// An infeasible repair awaiting capacity: retried on a bounded
/// exponential backoff by idle workers, and immediately by any later
/// churn application.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingRepair {
    pub attempts: u32,
    pub next_due_ns: u64,
}

/// The resident application whose live mapping the service repairs
/// through churn.
pub(crate) struct ResidentJob {
    pub tasks: Arc<TaskGraph>,
    pub mapping: Vec<u32>,
    pub drift: RemapDrift,
    pub pending: Option<PendingRepair>,
    pub supervisor: Supervisor,
    /// Warm scratch for repairs/polish; lives under the write lock.
    pub scratch: MapperScratch,
}

/// Everything behind the lock.
pub(crate) struct SharedState {
    pub machine: Machine,
    pub alloc: Allocation,
    pub job: Option<ResidentJob>,
}

/// Shared between the handle and the workers.
pub(crate) struct ServiceInner {
    pub cfg: ServiceConfig,
    /// Two-phase pipeline settings every rung and the supervisor use
    /// (the paper defaults, built once at start).
    pub pipeline: PipelineConfig,
    /// Incremental-repair settings for churn events.
    pub remap: RemapConfig,
    pub clock: ServiceClock,
    pub state: RwLock<SharedState>,
    /// Current admission-queue depth.
    pub depth: AtomicUsize,
    /// When the pending repair's next timed retry is due
    /// (`u64::MAX` = no timed retry scheduled) — lets idle workers
    /// check without touching the lock.
    pub pending_due_ns: AtomicU64,
    pub costs: CostModel,
    pub stats: ServiceStats,
    /// Write-ahead durability sink (DESIGN.md §18); `None` while
    /// durability is off — including during recovery replay, which
    /// must not re-journal the frames it replays. Only ever locked
    /// while the state write lock is held, so frame order is
    /// execution order; a snapshot write releases the state lock
    /// after encoding and keeps this one until the file is published
    /// ([`ServiceInner::maybe_snapshot`]).
    pub journal: Mutex<Option<Durability>>,
}

impl ServiceInner {
    pub(crate) fn read_state(&self) -> RwLockReadGuard<'_, SharedState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn write_state(&self) -> RwLockWriteGuard<'_, SharedState> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one record to the write-ahead journal (callers hold
    /// the state write lock and append **before** mutating, so an
    /// acked mutation is always on disk first). Durability failures —
    /// a full disk, or the chaos harness's injected crash — are
    /// counted and absorbed: the service keeps serving from memory.
    pub(crate) fn journal_append(&self, rec: &JournalRecord) {
        let mut guard = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        let Some(journal) = guard.as_mut() else {
            return;
        };
        match journal.append(rec) {
            Ok(info) => {
                self.stats.journal_appends.fetch_add(1, Ordering::AcqRel);
                self.stats
                    .journal_bytes
                    .fetch_add(info.bytes, Ordering::AcqRel);
            }
            Err(_) => {
                self.stats.journal_errors.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Writes a checksummed snapshot of the post-mutation state when
    /// the frame ration has elapsed. Called at the tail of every
    /// journaled operation with its state write guard, which it
    /// releases: the payload is encoded under the guard, so it matches
    /// the journal watermark it records, and the file I/O (tens of ms
    /// when the rotate rename replaces the old fallback) runs after,
    /// so map requests are not held behind it. The journal mutex stays
    /// held until the snapshot is published, so no later frame is
    /// appended before it.
    pub(crate) fn maybe_snapshot(&self, st: RwLockWriteGuard<'_, SharedState>) {
        let mut guard = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        let Some(journal) = guard.as_mut() else {
            return;
        };
        if !journal.should_snapshot() {
            return;
        }
        let payload = recovery::encode_snapshot_payload(&st, journal.last_seq());
        drop(st);
        match journal.write_snapshot(&payload) {
            Ok(()) => {
                self.stats.snapshots_written.fetch_add(1, Ordering::AcqRel);
            }
            Err(_) => {
                self.stats.journal_errors.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    fn note_polish(&self, out: &PolishOutcome, report: &mut RepairReport) {
        if out.checked {
            self.stats.drift_checks.fetch_add(1, Ordering::AcqRel);
        }
        if out.polished {
            self.stats.polishes.fetch_add(1, Ordering::AcqRel);
        }
        if out.adopted {
            self.stats.baseline_adoptions.fetch_add(1, Ordering::AcqRel);
        }
        report.drift_checked = out.checked;
        report.polished = out.polished;
        report.adopted_baseline = out.adopted;
    }

    /// Applies churn events and repairs the resident job. Always
    /// attempts the repair (even past the retry budget): new events
    /// may have restored capacity, which is exactly how an exhausted
    /// repair converges. A batch with an event that does not fit the
    /// machine is refused whole before the journal append:
    /// `applied_events: 0` and [`ServiceError::InvalidEvent`].
    pub(crate) fn apply_churn(&self, events: &[ChurnEvent]) -> RepairReport {
        let mut st = self.write_state();
        if let Some((index, reason)) = first_invalid_event(&st.machine, events) {
            return RepairReport {
                error: Some(ServiceError::InvalidEvent { index, reason }),
                ..RepairReport::default()
            };
        }
        let mut report = RepairReport {
            applied_events: events.len(),
            ..RepairReport::default()
        };
        self.journal_append(&JournalRecord::Churn(events.to_vec()));
        let SharedState {
            machine,
            alloc,
            job,
        } = &mut *st;
        let Some(job) = job.as_mut() else {
            apply_events(machine, alloc, events);
            report.fully_placed = true;
            self.maybe_snapshot(st);
            return report;
        };
        let was_pending = job.pending.is_some();
        if was_pending {
            self.stats.retries.fetch_add(1, Ordering::AcqRel);
        }
        let outcome = remap_incremental(
            &job.tasks,
            machine,
            alloc,
            &mut job.mapping,
            events,
            &self.remap,
            &mut job.scratch,
        );
        self.settle_repair(machine, alloc, job, outcome, &mut report);
        self.maybe_snapshot(st);
        report
    }

    /// Retries a pending infeasible repair if its backoff elapsed
    /// (`force` skips the due/attempt gate — the `retry_now` test
    /// hook). Returns `None` when there was nothing to do.
    pub(crate) fn retry_pending(&self, force: bool) -> Option<RepairReport> {
        let now = self.clock.now_ns();
        if !force && self.pending_due_ns.load(Ordering::Acquire) > now {
            return None;
        }
        let mut st = self.write_state();
        {
            let job = st.job.as_mut()?;
            let due = match &job.pending {
                Some(p) if force => Some(*p),
                Some(p) if p.attempts < RETRY_MAX_ATTEMPTS && p.next_due_ns <= now => Some(*p),
                _ => None,
            };
            due?;
        }
        // The retry will run: journal it so replay re-executes it at
        // the same point in the op sequence.
        self.journal_append(&JournalRecord::Retry);
        let SharedState {
            machine,
            alloc,
            job,
        } = &mut *st;
        let job = job.as_mut()?;
        self.stats.retries.fetch_add(1, Ordering::AcqRel);
        let mut report = RepairReport::default();
        let outcome = remap_incremental(
            &job.tasks,
            machine,
            alloc,
            &mut job.mapping,
            &[],
            &self.remap,
            &mut job.scratch,
        );
        self.settle_repair(machine, alloc, job, outcome, &mut report);
        self.maybe_snapshot(st);
        Some(report)
    }

    /// Publishes the resident job's cumulative drift into the atomic
    /// stats mirror (readable without the state lock).
    pub(crate) fn mirror_drift(&self, drift: &RemapDrift) {
        self.stats
            .drift_repairs
            .store(drift.repairs, Ordering::Release);
        self.stats
            .drift_displaced_total
            .store(drift.displaced_total, Ordering::Release);
        self.stats
            .drift_wh_delta_bits
            .store(drift.wh_delta_total.to_bits(), Ordering::Release);
        self.stats
            .drift_wh_last_bits
            .store(drift.wh_last.to_bits(), Ordering::Release);
    }

    /// Common post-repair bookkeeping: drift stats and the supervisor
    /// on success, backoff scheduling (or the typed exhaustion error)
    /// on continued infeasibility.
    fn settle_repair(
        &self,
        machine: &mut Machine,
        alloc: &mut Allocation,
        job: &mut ResidentJob,
        outcome: RemapOutcome,
        report: &mut RepairReport,
    ) {
        match outcome {
            RemapOutcome::Repaired(stats) => {
                job.pending = None;
                self.pending_due_ns.store(u64::MAX, Ordering::Release);
                job.drift.note(&stats);
                self.stats.repairs.fetch_add(1, Ordering::AcqRel);
                self.mirror_drift(&job.drift);
                report.fully_placed = true;
                report.displaced = stats.displaced;
                let ResidentJob {
                    tasks,
                    mapping,
                    supervisor,
                    scratch,
                    ..
                } = job;
                let polish = supervisor.after_repair(
                    &self.cfg.supervisor,
                    &self.pipeline,
                    tasks,
                    machine,
                    alloc,
                    mapping,
                    scratch,
                    false,
                );
                self.note_polish(&polish, report);
            }
            RemapOutcome::Infeasible { unplaced } => {
                self.stats.infeasible.fetch_add(1, Ordering::AcqRel);
                report.fully_placed = false;
                report.unplaced = unplaced.len();
                let pending = job.pending.get_or_insert(PendingRepair {
                    attempts: 0,
                    next_due_ns: 0,
                });
                pending.attempts += 1;
                if pending.attempts >= RETRY_MAX_ATTEMPTS {
                    // Typed give-up: timed retries stop, but any later
                    // capacity-restoring event still re-attempts.
                    self.stats.retry_exhausted.fetch_add(1, Ordering::AcqRel);
                    self.pending_due_ns.store(u64::MAX, Ordering::Release);
                    report.error = Some(ServiceError::RepairExhausted {
                        unplaced: unplaced.len(),
                        attempts: pending.attempts,
                    });
                } else {
                    let due = self
                        .clock
                        .now_ns()
                        .saturating_add(retry_backoff_ns(pending.attempts));
                    pending.next_due_ns = due;
                    self.pending_due_ns.store(due, Ordering::Release);
                }
            }
        }
    }

    /// Installs (or replaces) the resident job; the write-lock core of
    /// [`MappingService::install_job`], shared with recovery replay
    /// (which re-runs the same from-scratch map deterministically). A
    /// job that fails [`check_job`] is refused with its reason before
    /// anything is journaled or mutated.
    pub(crate) fn install_job(&self, tasks: Arc<TaskGraph>) -> Result<f64, &'static str> {
        let mut scratch = MapperScratch::new();
        let mut st = self.write_state();
        check_job(&tasks, &st.alloc)?;
        self.journal_append(&JournalRecord::install(&tasks));
        let outcome = map_tasks_with(
            &tasks,
            &st.machine,
            &st.alloc,
            LadderRung::Full.kind(),
            &self.pipeline,
            &mut scratch,
        );
        let wh = weighted_hops(&tasks, &st.machine, &outcome.fine_mapping);
        st.job = Some(ResidentJob {
            tasks,
            mapping: outcome.fine_mapping,
            drift: RemapDrift::default(),
            pending: None,
            supervisor: Supervisor::default(),
            scratch,
        });
        self.pending_due_ns.store(u64::MAX, Ordering::Release);
        self.maybe_snapshot(st);
        Ok(wh)
    }

    /// Forced supervisor pass; the write-lock core of
    /// [`MappingService::polish_now`], shared with recovery replay.
    pub(crate) fn polish_now(&self) -> RepairReport {
        let mut report = RepairReport::default();
        let mut st = self.write_state();
        if st.job.is_none() {
            return report;
        }
        self.journal_append(&JournalRecord::Polish);
        let SharedState {
            machine,
            alloc,
            job,
        } = &mut *st;
        let Some(job) = job.as_mut() else {
            return report;
        };
        report.unplaced = job.mapping.iter().filter(|&&n| n == u32::MAX).count();
        report.fully_placed = report.unplaced == 0;
        let ResidentJob {
            tasks,
            mapping,
            supervisor,
            scratch,
            ..
        } = job;
        let polish = supervisor.after_repair(
            &self.cfg.supervisor,
            &self.pipeline,
            tasks,
            machine,
            alloc,
            mapping,
            scratch,
            true,
        );
        self.note_polish(&polish, &mut report);
        self.maybe_snapshot(st);
        report
    }
}

/// The first event of `events` that fails
/// [`Machine::check_link_event`], with its index — the link-event check
/// live churn and recovery replay share.
pub(crate) fn first_invalid_event(
    machine: &Machine,
    events: &[ChurnEvent],
) -> Option<(usize, &'static str)> {
    events.iter().enumerate().find_map(|(i, ev)| match ev {
        ChurnEvent::LinkDegraded { link, factor } => machine
            .check_link_event(*link, *factor)
            .err()
            .map(|e| (i, e)),
        _ => None,
    })
}

/// The always-on mapping service. Dropping (or [`shutdown`]) drains
/// the admission queue, replies to every accepted request, and joins
/// the workers.
///
/// [`shutdown`]: MappingService::shutdown
pub struct MappingService {
    inner: Arc<ServiceInner>,
    tx: Option<SyncSender<Envelope>>,
    /// Keeps the queue's receive side alive even with zero workers,
    /// so a consumerless service buffers up to capacity and sheds
    /// beyond it (the backpressure tests) instead of seeing a
    /// disconnected channel.
    _rx: Arc<Mutex<Receiver<Envelope>>>,
    workers: Vec<JoinHandle<()>>,
}

impl MappingService {
    /// Starts the service on the wall clock.
    pub fn new(machine: Machine, alloc: Allocation, cfg: ServiceConfig) -> Self {
        Self::with_clock(machine, alloc, cfg, ServiceClock::monotonic())
    }

    /// Starts the service on an explicit clock (tests use
    /// [`ServiceClock::manual`]).
    pub fn with_clock(
        machine: Machine,
        alloc: Allocation,
        cfg: ServiceConfig,
        clock: ServiceClock,
    ) -> Self {
        let inner = Self::build_inner(machine, alloc, cfg, clock);
        if let Some(dur_cfg) = inner.cfg.durability.clone() {
            // A brand-new service starts a fresh history. Failures are
            // availability-first: counted, and the service runs
            // non-durable rather than not at all.
            match Durability::create(&dur_cfg) {
                Ok(journal) => {
                    *inner.journal.lock().unwrap_or_else(|e| e.into_inner()) = Some(journal);
                }
                Err(_) => {
                    inner.stats.journal_errors.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
        Self::start(inner)
    }

    /// Builds the shared inner state with no workers, no admission
    /// channel and no journal attached — the common base of
    /// [`MappingService::with_clock`] and crash recovery (which must
    /// replay the journal before any worker can race a timed retry).
    pub(crate) fn build_inner(
        machine: Machine,
        alloc: Allocation,
        cfg: ServiceConfig,
        clock: ServiceClock,
    ) -> Arc<ServiceInner> {
        Arc::new(ServiceInner {
            cfg,
            pipeline: PipelineConfig::default(),
            remap: RemapConfig::default(),
            clock,
            state: RwLock::new(SharedState {
                machine,
                alloc,
                job: None,
            }),
            depth: AtomicUsize::new(0),
            pending_due_ns: AtomicU64::new(u64::MAX),
            costs: CostModel::seeded(),
            stats: ServiceStats::default(),
            journal: Mutex::new(None),
        })
    }

    /// Opens the admission channel and spawns the worker pool over a
    /// fully initialized inner state.
    pub(crate) fn start(inner: Arc<ServiceInner>) -> Self {
        let capacity = inner.cfg.queue_capacity.max(1);
        let (tx, rx) = mpsc::sync_channel(capacity);
        let rx = Arc::new(Mutex::new(rx));
        let workers = worker::spawn(&inner, &rx);
        Self {
            inner,
            tx: Some(tx),
            _rx: rx,
            workers,
        }
    }

    /// Installs (or replaces) the resident job: maps it from scratch
    /// with the ladder's top-rung mapper (`UMC`) and returns the
    /// initial WH.
    /// Subsequent churn repairs and the drift supervisor operate on
    /// this job's live mapping. A job that fails [`check_job`] on the
    /// current allocation is refused before anything is journaled or
    /// mutated, with [`ServiceError::InvalidJob`]; the resident job
    /// stays as it was.
    pub fn install_job(&self, tasks: Arc<TaskGraph>) -> Result<f64, ServiceError> {
        self.inner
            .install_job(tasks)
            .map_err(|reason| ServiceError::InvalidJob { reason })
    }

    /// Submits a map request through the bounded admission queue.
    pub fn submit_map(&self, job: MapJob) -> Submit<MapTicket> {
        let submitted_ns = self.inner.clock.now_ns();
        let (reply, rx) = mpsc::channel();
        self.admit(
            Envelope::Map {
                job,
                submitted_ns,
                reply,
            },
            rx,
        )
    }

    fn admit(
        &self,
        env: Envelope,
        rx: mpsc::Receiver<Result<crate::MapReply, ServiceError>>,
    ) -> Submit<MapTicket> {
        let inner = &self.inner;
        let Some(tx) = &self.tx else {
            // Post-shutdown rejections still report the depth actually
            // observed at rejection time — in-flight work may not have
            // drained yet, and callers size their backoff on this.
            let queue_depth = inner.depth.load(Ordering::Acquire);
            inner.stats.rejected.fetch_add(1, Ordering::AcqRel);
            return Submit::Rejected { queue_depth };
        };
        let depth = inner.depth.load(Ordering::Acquire);
        if depth >= inner.cfg.queue_capacity.max(1) {
            inner.stats.rejected.fetch_add(1, Ordering::AcqRel);
            return Submit::Rejected { queue_depth: depth };
        }
        // Count the slot *before* sending: a worker may dequeue (and
        // decrement) the envelope before this thread runs again.
        let now_depth = inner.depth.fetch_add(1, Ordering::AcqRel) + 1;
        match tx.try_send(env) {
            Ok(()) => {
                inner.stats.note_depth(now_depth);
                inner.stats.accepted.fetch_add(1, Ordering::AcqRel);
                Submit::Accepted(MapTicket { rx })
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                let observed = inner.depth.fetch_sub(1, Ordering::AcqRel) - 1;
                inner.stats.rejected.fetch_add(1, Ordering::AcqRel);
                Submit::Rejected {
                    queue_depth: observed,
                }
            }
        }
    }

    /// Applies churn to the shared machine/allocation and repairs the
    /// resident job (synchronously, on the caller's thread — churn is
    /// the infrastructure feed, not client admission). See
    /// [`RepairReport`]. A batch holding a link event that fails
    /// [`Machine::check_link_event`] is refused whole, before anything
    /// is journaled or mutated: `applied_events: 0` and
    /// [`ServiceError::InvalidEvent`] naming the first such event.
    pub fn apply_churn(&self, events: &[ChurnEvent]) -> RepairReport {
        self.inner.apply_churn(events)
    }

    /// Forces an immediate retry of a pending infeasible repair,
    /// ignoring the backoff gate. `None` when nothing is pending.
    pub fn retry_now(&self) -> Option<RepairReport> {
        self.inner.retry_pending(true)
    }

    /// Forces a drift-supervisor pass on the resident job regardless
    /// of the `check_every` ration.
    pub fn polish_now(&self) -> RepairReport {
        self.inner.polish_now()
    }

    /// Weighted hops of the resident job's live mapping; `None`
    /// without a job or while tasks are unplaced.
    pub fn live_wh(&self) -> Option<f64> {
        let st = self.inner.read_state();
        let job = st.job.as_ref()?;
        if job.mapping.contains(&u32::MAX) {
            return None;
        }
        Some(weighted_hops(&job.tasks, &st.machine, &job.mapping))
    }

    /// Cumulative repair-drift statistics of the resident job.
    pub fn drift(&self) -> Option<RemapDrift> {
        self.inner.read_state().job.as_ref().map(|j| j.drift)
    }

    /// A copy of the resident job's live mapping (`u32::MAX` =
    /// unplaced).
    pub fn live_mapping(&self) -> Option<Vec<u32>> {
        self.inner
            .read_state()
            .job
            .as_ref()
            .map(|j| j.mapping.clone())
    }

    /// Runs `f` against the shared machine/allocation under the read
    /// lock (e.g. to compute a from-scratch comparison in tests).
    pub fn with_state<R>(&self, f: impl FnOnce(&Machine, &Allocation) -> R) -> R {
        let st = self.inner.read_state();
        f(&st.machine, &st.alloc)
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.depth.load(Ordering::Acquire)
    }

    /// Nanoseconds on the service clock.
    pub fn now_ns(&self) -> u64 {
        self.inner.clock.now_ns()
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Drains the queue (replying to every accepted request), joins
    /// the workers, and returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.finish();
        self.inner.stats.snapshot()
    }

    fn finish(&mut self) {
        self.tx = None; // workers drain the queue, then see Disconnected
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for MappingService {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umpa_topology::{AllocSpec, MachineConfig};

    /// Test hooks that reach paths no public call can: a panicking
    /// request, a closed intake with queued work, a poisoned lock.
    impl MappingService {
        /// Submits a request whose service deliberately panics.
        fn submit_poison(&self) -> Submit<MapTicket> {
            let (reply, rx) = mpsc::channel();
            self.admit(Envelope::Poison { reply }, rx)
        }

        /// Closes the admission intake without draining or joining, so
        /// queued work is still in flight when the next submit arrives.
        fn close_intake(&mut self) {
            self.tx = None;
        }

        /// Panics a writer while it holds the state `RwLock`. The panic
        /// is caught here; only the poison escapes.
        fn poison_state_lock(&self) {
            let inner = Arc::clone(&self.inner);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _guard = inner.write_state();
                panic!("deliberate state-lock poisoning (test hook)");
            }));
        }
    }

    /// Ring + chords with skewed weights.
    fn task_graph(n: u32, seed: u64) -> TaskGraph {
        let msgs = (0..n).flat_map(move |i| {
            let w = 1.0 + f64::from((i + seed as u32) % 5);
            [
                (i, (i + 1) % n, 2.0 * w),
                (i, (i + n / 3).max(i + 1) % n, w),
            ]
        });
        TaskGraph::from_messages(n as usize, msgs, None)
    }

    /// A one-worker (or consumerless) service on a 128-node torus with
    /// 96 sparse allocated nodes of 2 processors each.
    fn service(workers: usize, queue_capacity: usize) -> MappingService {
        let machine = MachineConfig::small(&[4, 4, 4], 2, 2).build();
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(96, 7));
        let cfg = ServiceConfig {
            workers,
            queue_capacity,
            ..ServiceConfig::default()
        };
        MappingService::new(machine, alloc, cfg)
    }

    #[test]
    fn poisoned_request_is_isolated_and_service_keeps_serving() {
        let service = service(1, ServiceConfig::default().queue_capacity);
        let poisoned = service
            .submit_poison()
            .accepted()
            .expect("poison must be admitted");
        assert!(matches!(poisoned.wait(), Err(ServiceError::Panicked)));

        // The same worker keeps serving after catching the panic.
        let job = MapJob::new(Arc::new(task_graph(64, 3)));
        let reply = service
            .submit_map(job)
            .accepted()
            .expect("normal request admitted")
            .wait()
            .expect("normal request served after the poison");
        assert_eq!(reply.mapping.len(), 64);

        let stats = service.shutdown();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.deadline_misses, 0);
    }

    #[test]
    fn rejection_after_intake_closes_reports_the_queued_depth() {
        // No consumers: four requests stay queued.
        let mut service = service(0, 4);
        let tasks = Arc::new(task_graph(16, 1));
        for _ in 0..4 {
            assert!(service
                .submit_map(MapJob::new(Arc::clone(&tasks)))
                .accepted()
                .is_some());
        }
        // Once intake closes, a rejection must still carry the depth
        // observed at rejection time — the 4 queued envelopes have not
        // drained — not a hardwired zero.
        service.close_intake();
        match service.submit_map(MapJob::new(Arc::clone(&tasks))) {
            Submit::Accepted(_) => panic!("admitted past shutdown"),
            Submit::Rejected { queue_depth } => assert_eq!(queue_depth, 4),
        }
        assert_eq!(service.stats().rejected, 1);
    }

    #[test]
    fn poisoned_state_lock_is_absorbed_and_service_keeps_serving() {
        let service = service(1, ServiceConfig::default().queue_capacity);
        service
            .install_job(Arc::new(task_graph(96, 4)))
            .expect("job fits");
        let wh_before = service.live_wh().expect("job installed");

        // Panic a writer while it holds the state RwLock: the lock is now
        // poisoned. Every lock site absorbs poison via `into_inner`, so
        // the service must keep serving — reads, churn and mapped
        // requests alike — instead of cascading the panic.
        service.poison_state_lock();

        assert_eq!(
            service.live_wh().map(f64::to_bits),
            Some(wh_before.to_bits()),
            "reads must survive a poisoned lock"
        );
        let victim = service.with_state(|_, a| a.nodes()[0]);
        let report = service.apply_churn(&[ChurnEvent::NodeFailed { node: victim }]);
        assert_eq!(
            report.applied_events, 1,
            "churn must still mutate state after poisoning"
        );
        let reply = service
            .submit_map(MapJob::new(Arc::new(task_graph(48, 9))))
            .accepted()
            .expect("queue empty, must admit")
            .wait()
            .expect("worker must still serve after poisoning");
        assert!(!reply.mapping.is_empty());
    }
}
