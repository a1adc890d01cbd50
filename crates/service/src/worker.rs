//! Worker threads: drain the admission queue and serve requests behind
//! `catch_unwind`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use umpa_core::{check_job, map_tasks_with, MapperScratch};

use crate::ladder::select_rung;
use crate::request::{Envelope, MapReply, ServiceError};
use crate::service::ServiceInner;

/// Bound on one dequeue wait. No work is due between requests, and
/// shutdown disconnects the queue, which wakes a blocked receive too;
/// the bound is kept because it measurably shortens the wait before a
/// worker picks a request up. In traced `service` benchmark runs on a
/// 2-CPU host, a blocking `recv` raised the median of that wait
/// (`service.queue_wait_ms.p50`) in 6 of 6 paired runs, to
/// 0.094–0.173 ms against 0.038–0.103 ms with this bound.
const POLL: Duration = Duration::from_micros(500);

/// Spawns `cfg.workers` threads sharing the queue receiver. Each
/// worker owns a warm [`MapperScratch`], so steady-state serving does
/// not allocate. The caller keeps its own handle on the shared
/// receiver so a `workers: 0` service still buffers (and bounds) the
/// queue instead of seeing a disconnected channel.
pub(crate) fn spawn(
    inner: &Arc<ServiceInner>,
    rx: &Arc<Mutex<Receiver<Envelope>>>,
) -> Vec<JoinHandle<()>> {
    (0..inner.cfg.workers)
        .map(|_| {
            let inner = Arc::clone(inner);
            let rx = Arc::clone(rx);
            thread::spawn(move || worker_loop(&inner, &rx))
        })
        .collect()
}

fn worker_loop(inner: &ServiceInner, rx: &Mutex<Receiver<Envelope>>) {
    let mut scratch = MapperScratch::new();
    loop {
        // Hold the receiver lock only for the dequeue itself, so
        // sibling workers can pick up the next request while this one
        // serves.
        let msg = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv_timeout(POLL)
        };
        match msg {
            Ok(env) => {
                inner.depth.fetch_sub(1, Ordering::AcqRel);
                serve(inner, env, &mut scratch);
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Queue drained and the service handle dropped: exit.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Serves one envelope. The mapping computation runs inside
/// `catch_unwind`: a panicking request is answered with a typed
/// [`ServiceError::Panicked`] and the worker keeps serving.
fn serve(inner: &ServiceInner, env: Envelope, scratch: &mut MapperScratch) {
    match env {
        Envelope::Map {
            job,
            submitted_ns,
            reply,
        } => {
            let picked_ns = inner.clock.now_ns();
            let queue_ns = picked_ns.saturating_sub(submitted_ns);
            let deadline_ns = job.deadline_ns.unwrap_or(inner.cfg.default_deadline_ns);
            let budget_ns = deadline_ns.saturating_sub(queue_ns);
            let depth = inner.depth.load(Ordering::Acquire);
            let rung = select_rung(budget_ns, depth, &inner.cfg, &inner.costs);
            let tasks = job.tasks;
            let computed = catch_unwind(AssertUnwindSafe(|| {
                let st = inner.read_state();
                check_job(&tasks, &st.alloc)?;
                Ok(map_tasks_with(
                    &tasks,
                    &st.machine,
                    &st.alloc,
                    rung.kind(),
                    &inner.pipeline,
                    scratch,
                )
                .fine_mapping)
            }));
            let done_ns = inner.clock.now_ns();
            let service_ns = done_ns.saturating_sub(picked_ns);
            let total_ns = done_ns.saturating_sub(submitted_ns);
            match computed {
                Ok(Ok(mapping)) => {
                    inner.costs.observe(rung, service_ns);
                    inner.with_stats(|s| {
                        s.served_by_rung[rung.index()] += 1;
                        s.deadline_misses += u64::from(total_ns > deadline_ns);
                    });
                    let _ = reply.send(Ok(MapReply {
                        mapping,
                        rung,
                        queue_ns,
                        service_ns,
                        total_ns,
                        deadline_ns,
                    }));
                }
                Ok(Err(reason)) => {
                    let _ = reply.send(Err(ServiceError::InvalidJob { reason }));
                }
                Err(_) => {
                    inner.with_stats(|s| s.panics += 1);
                    let _ = reply.send(Err(ServiceError::Panicked));
                }
            }
        }
        #[cfg(test)]
        Envelope::Poison { reply } => {
            let poisoned: Result<(), _> = catch_unwind(|| {
                // tidy-allow: panic-freedom (deliberate: the isolation test's poisoned request; caught on the line above)
                panic!("poisoned request (isolation test)");
            });
            debug_assert!(poisoned.is_err());
            inner.with_stats(|s| s.panics += 1);
            let _ = reply.send(Err(ServiceError::Panicked));
        }
    }
}
