//! Request/response types: admission results, tickets, typed errors.

use std::fmt;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;

use umpa_core::MapperKind;
use umpa_graph::TaskGraph;

use crate::ladder::LadderRung;

/// A mapping request: a task graph to place on the service's shared
/// machine/allocation.
#[derive(Clone, Debug)]
pub struct MapJob {
    /// The task graph to map (shared, the service never mutates it).
    pub tasks: Arc<TaskGraph>,
    /// Admission-to-response deadline, nanoseconds; `None` uses the
    /// service default.
    pub deadline_ns: Option<u64>,
}

impl MapJob {
    /// A job with the service-default deadline.
    pub fn new(tasks: Arc<TaskGraph>) -> Self {
        Self {
            tasks,
            deadline_ns: None,
        }
    }

    /// Sets the deadline.
    pub fn with_deadline_ns(mut self, ns: u64) -> Self {
        self.deadline_ns = Some(ns);
        self
    }
}

/// Admission outcome: backpressure is explicit, not implicit queue
/// growth.
#[derive(Debug)]
pub enum Submit<T> {
    /// Admitted; redeem the ticket for the response.
    Accepted(T),
    /// Shed — the bounded queue is full (or the service is shutting
    /// down). `queue_depth` is the depth observed at rejection.
    Rejected {
        /// Queue depth at the moment of rejection.
        queue_depth: usize,
    },
}

impl<T> Submit<T> {
    /// The ticket, if admitted.
    pub fn accepted(self) -> Option<T> {
        match self {
            Submit::Accepted(t) => Some(t),
            Submit::Rejected { .. } => None,
        }
    }
}

/// A served mapping plus how (and how fast) it was served.
#[derive(Clone, Debug)]
pub struct MapReply {
    /// Node id per task.
    pub mapping: Vec<u32>,
    /// Mapper that actually served the request (after ladder
    /// degradation).
    pub served_with: MapperKind,
    /// Ladder rung of `served_with`.
    pub rung: LadderRung,
    /// Time spent queued before a worker picked the request up, ns.
    pub queue_ns: u64,
    /// Time spent inside the mapper, ns.
    pub service_ns: u64,
    /// Admission-to-response total, ns.
    pub total_ns: u64,
    /// The deadline the request was served under, ns.
    pub deadline_ns: u64,
}

impl MapReply {
    /// Whether the response beat its deadline.
    pub fn met_deadline(&self) -> bool {
        self.total_ns <= self.deadline_ns
    }
}

/// Typed service failures. The worker loop never lets a request take
/// the service down: panics are caught and surfaced here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The request panicked inside a worker; the worker caught it and
    /// kept serving.
    Panicked,
    /// The service shut down before replying.
    Disconnected,
    /// Incremental repair stayed infeasible through the whole retry
    /// budget; the listed tasks remain unplaced until capacity
    /// returns (a later `NodesAdded` re-arms the repair).
    RepairExhausted {
        /// Tasks still unplaced.
        unplaced: usize,
        /// Retry attempts consumed.
        attempts: u32,
    },
    /// A churn batch was refused whole, before any journal write or
    /// mutation, because one of its events does not fit the machine.
    InvalidEvent {
        /// Position of the first refused event in the batch.
        index: usize,
        /// Why it was refused (static description).
        reason: &'static str,
    },
    /// A job was refused, before any journal write or mapping, because
    /// it fails [`umpa_core::check_job`] on the current allocation.
    InvalidJob {
        /// Why it was refused (static description).
        reason: &'static str,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Panicked => write!(f, "request panicked in worker (isolated)"),
            ServiceError::Disconnected => write!(f, "service shut down before reply"),
            ServiceError::RepairExhausted { unplaced, attempts } => write!(
                f,
                "repair still infeasible after {attempts} attempts ({unplaced} tasks unplaced)"
            ),
            ServiceError::InvalidEvent { index, reason } => {
                write!(f, "churn batch refused: event {index}: {reason}")
            }
            ServiceError::InvalidJob { reason } => write!(f, "job refused: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Redeemable handle for an admitted map request.
#[derive(Debug)]
pub struct MapTicket {
    pub(crate) rx: Receiver<Result<MapReply, ServiceError>>,
}

impl MapTicket {
    /// Blocks until the response arrives (or the service drops the
    /// request channel during shutdown).
    pub fn wait(self) -> Result<MapReply, ServiceError> {
        match self.rx.recv() {
            Ok(reply) => reply,
            Err(_) => Err(ServiceError::Disconnected),
        }
    }

    /// Non-blocking poll; `None` while the request is still in flight,
    /// [`ServiceError::Disconnected`] once the service dropped it
    /// without a reply (as [`MapTicket::wait`] reports it).
    pub fn try_wait(&self) -> Option<Result<MapReply, ServiceError>> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ServiceError::Disconnected)),
        }
    }
}

/// What one `apply_churn`/`polish_now` call did to the resident job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RepairReport {
    /// Churn events applied.
    pub applied_events: usize,
    /// Whether the live mapping is fully placed after this call.
    pub fully_placed: bool,
    /// Tasks displaced by this repair.
    pub displaced: usize,
    /// Tasks still unplaced (pending retry) after this call.
    pub unplaced: usize,
    /// Whether the drift supervisor ran its check during this call.
    pub drift_checked: bool,
    /// Whether the supervisor polished the live mapping.
    pub polished: bool,
    /// Whether the supervisor replaced the live mapping with the
    /// from-scratch baseline (polish alone could not close the gap).
    pub adopted_baseline: bool,
    /// Terminal retry failure, if the retry budget ran out; or
    /// [`ServiceError::InvalidEvent`] for a refused churn batch, whose
    /// report is otherwise the default (nothing was applied).
    pub error: Option<ServiceError>,
}

/// Internal queue envelope.
pub(crate) enum Envelope {
    /// A mapping request.
    Map {
        job: MapJob,
        submitted_ns: u64,
        reply: Sender<Result<MapReply, ServiceError>>,
    },
    /// A deliberately panicking request, for the isolation tests.
    #[cfg(test)]
    Poison {
        reply: Sender<Result<MapReply, ServiceError>>,
    },
}
