//! The long-running [`MappingService`]: shared state, bounded
//! admission, churn repair on events, and the drift supervisor's
//! trigger points.
//!
//! Concurrency shape: one `RwLock` around the machine/allocation/job
//! state. Map requests are read-locked (many in flight at once, they
//! never mutate); churn repair and supervisor polish are
//! write-locked. Admission is a bounded `sync_channel` plus an atomic
//! depth counter — `try_send` full means the caller gets
//! [`Submit::Rejected`] with the observed depth, never an unbounded
//! queue. The counters sit behind their own leaf mutex. Lock poisoning
//! is absorbed with `into_inner`: a panicked request (already isolated
//! by the worker's `catch_unwind`) must not wedge the service.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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
use crate::codec::Wire;
use crate::config::ServiceConfig;
use crate::journal::{Durability, JournalRecord};
use crate::ladder::{CostModel, LadderRung};
use crate::recovery::Snapshot;
use crate::request::{Envelope, MapJob, MapTicket, RepairReport, ServiceError, Submit};
use crate::stats::StatsSnapshot;
use crate::supervisor::Supervisor;
use crate::worker;

/// The resident application whose live mapping the service repairs
/// through churn.
pub(crate) struct ResidentJob {
    pub tasks: Arc<TaskGraph>,
    pub mapping: Vec<u32>,
    pub drift: RemapDrift,
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
    pub costs: CostModel,
    /// The counters. A leaf lock: nothing else is locked while it is
    /// held, so it adds nothing to the state → journal lock order.
    pub stats: Mutex<StatsSnapshot>,
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

    /// Applies `f` to the counters under their lock, absorbing poison
    /// as the state lock does.
    pub(crate) fn with_stats<R>(&self, f: impl FnOnce(&mut StatsSnapshot) -> R) -> R {
        f(&mut self.stats.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Appends one record to the write-ahead journal (callers hold
    /// the state write lock and append **before** mutating, so an
    /// acked mutation is always on disk first). Durability failures —
    /// a full disk, or the chaos harness's injected crash — are
    /// counted and absorbed: the service keeps serving from memory.
    pub(crate) fn journal_append(&self, rec: &JournalRecord<'_>) {
        let mut guard = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        let Some(journal) = guard.as_mut() else {
            return;
        };
        match journal.append(rec) {
            Ok(info) => self.with_stats(|s| {
                s.journal_appends += 1;
                s.journal_bytes += info.bytes;
            }),
            Err(_) => self.with_stats(|s| s.journal_errors += 1),
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
        let payload = Snapshot::of(&st, journal.last_seq()).to_bytes();
        drop(st);
        match journal.write_snapshot(&payload) {
            Ok(()) => self.with_stats(|s| s.snapshots_written += 1),
            Err(_) => self.with_stats(|s| s.journal_errors += 1),
        }
    }

    /// Applies churn events and repairs the resident job. Every batch
    /// attempts the repair, so tasks an earlier infeasible repair left
    /// unplaced are placed as soon as an event (`NodesAdded`) brings
    /// the capacity back. Nothing else re-tries them: only an event
    /// changes the machine or the allocation, and a repair of unchanged
    /// state fails again. A batch with an event that does not fit the
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
        self.journal_append(&JournalRecord::Churn(Cow::Borrowed(events)));
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
        let outcome = remap_incremental(
            &job.tasks,
            machine,
            alloc,
            &mut job.mapping,
            events,
            &self.remap,
            &mut job.scratch,
        );
        match outcome {
            RemapOutcome::Repaired(stats) => {
                job.drift.note(&stats);
                report.fully_placed = true;
                report.displaced = stats.displaced;
                let ResidentJob {
                    tasks,
                    mapping,
                    supervisor,
                    scratch,
                    ..
                } = job;
                supervisor.after_repair(
                    &self.pipeline,
                    tasks,
                    machine,
                    alloc,
                    mapping,
                    scratch,
                    false,
                    &mut report,
                );
                self.with_stats(|s| {
                    s.repairs += 1;
                    count_polish(s, &report);
                });
            }
            RemapOutcome::Infeasible { unplaced } => {
                self.with_stats(|s| s.infeasible += 1);
                report.unplaced = unplaced.len();
            }
        }
        self.maybe_snapshot(st);
        report
    }

    /// Installs (or replaces) the resident job; the write-lock core of
    /// [`MappingService::install_job`], shared with recovery replay
    /// (which re-runs the same from-scratch map deterministically). The
    /// job is checked and mapped before its Install frame is appended,
    /// so a job that fails [`check_job`] ([`ServiceError::InvalidJob`])
    /// or that the mapper cannot place (its panic is caught:
    /// [`ServiceError::Panicked`]) leaves journal and resident job as
    /// they were.
    pub(crate) fn install_job(&self, tasks: Arc<TaskGraph>) -> Result<f64, ServiceError> {
        let mut scratch = MapperScratch::new();
        let mut st = self.write_state();
        check_job(&tasks, &st.alloc).map_err(|reason| ServiceError::InvalidJob { reason })?;
        let mapping = catch_unwind(AssertUnwindSafe(|| {
            map_tasks_with(
                &tasks,
                &st.machine,
                &st.alloc,
                LadderRung::Full.kind(),
                &self.pipeline,
                &mut scratch,
            )
            .fine_mapping
        }))
        .map_err(|_| ServiceError::Panicked)?;
        self.journal_append(&JournalRecord::Install(Arc::clone(&tasks)));
        let wh = weighted_hops(&tasks, &st.machine, &mapping);
        st.job = Some(ResidentJob {
            tasks,
            mapping,
            drift: RemapDrift::default(),
            supervisor: Supervisor::default(),
            scratch,
        });
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
        supervisor.after_repair(
            &self.pipeline,
            tasks,
            machine,
            alloc,
            mapping,
            scratch,
            true,
            &mut report,
        );
        self.with_stats(|s| count_polish(s, &report));
        self.maybe_snapshot(st);
        report
    }
}

/// Counts the supervisor pass that `report` records.
fn count_polish(s: &mut StatsSnapshot, report: &RepairReport) {
    s.drift_checks += u64::from(report.drift_checked);
    s.polishes += u64::from(report.polished);
    s.baseline_adoptions += u64::from(report.adopted_baseline);
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
                Err(_) => inner.with_stats(|s| s.journal_errors += 1),
            }
        }
        Self::start(inner)
    }

    /// Builds the shared inner state with no workers, no admission
    /// channel and no journal attached — the common base of
    /// [`MappingService::with_clock`] and crash recovery (which replays
    /// the journal before the service opens for requests).
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
            costs: CostModel::seeded(),
            stats: Mutex::default(),
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
    /// this job's live mapping. The job is mapped before its Install
    /// frame is journaled. A job that fails [`check_job`] on the
    /// current allocation is refused with [`ServiceError::InvalidJob`],
    /// and one whose mapping panics (greedy cannot pack it) with
    /// [`ServiceError::Panicked`]; either way nothing is journaled and
    /// the resident job stays as it was.
    pub fn install_job(&self, tasks: Arc<TaskGraph>) -> Result<f64, ServiceError> {
        self.inner.install_job(tasks)
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
            inner.with_stats(|s| s.rejected += 1);
            return Submit::Rejected { queue_depth };
        };
        let depth = inner.depth.load(Ordering::Acquire);
        if depth >= inner.cfg.queue_capacity.max(1) {
            inner.with_stats(|s| s.rejected += 1);
            return Submit::Rejected { queue_depth: depth };
        }
        // Count the slot *before* sending: a worker may dequeue (and
        // decrement) the envelope before this thread runs again.
        let now_depth = inner.depth.fetch_add(1, Ordering::AcqRel) + 1;
        match tx.try_send(env) {
            Ok(()) => {
                inner.with_stats(|s| {
                    s.max_queue_depth = s.max_queue_depth.max(now_depth);
                    s.accepted += 1;
                });
                Submit::Accepted(MapTicket { rx })
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                let observed = inner.depth.fetch_sub(1, Ordering::AcqRel) - 1;
                inner.with_stats(|s| s.rejected += 1);
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

    /// Forces a drift-supervisor pass on the resident job regardless
    /// of the check interval.
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

    /// Cumulative repair-drift statistics of the resident job — the
    /// one place to read them.
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

    /// A copy of the lifetime counters, all read at one instant.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.with_stats(|s| *s)
    }

    /// Drains the queue (replying to every accepted request), joins
    /// the workers, and returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.finish();
        self.stats()
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
