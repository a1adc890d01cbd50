//! Soak and robustness harness for the always-on mapping service
//! (DESIGN.md §16).
//!
//! Pins the service's three robustness contracts under sustained
//! interleaved load:
//!
//! * **shed, don't stall** — with the bounded queue enabled, every
//!   *accepted* request is answered within its deadline (the ladder
//!   degrades quality instead), queue depth never exceeds the
//!   configured bound, and overload shows up as explicit
//!   `Submit::Rejected`;
//! * **isolate, don't crash** — infeasible repairs retry on a bounded
//!   backoff and surface `ServiceError::RepairExhausted`, and a job
//!   that fails the job check gets a typed `ServiceError::InvalidJob`,
//!   never a panic (the poisoned-request, poisoned-lock and
//!   closed-intake cases need test hooks, so they are `umpa-service`'s
//!   own unit tests);
//! * **supervise drift** — after a 500+-event churn+load stream, the
//!   drift supervisor keeps the resident job's live WH within 15 % of
//!   a from-scratch re-map of the final machine state.

use std::sync::Arc;

use umpa::core::greedy::weighted_hops;
use umpa::core::{greedy_map_into, wh_refine_scratch, ChurnEvent, MapperKind, MapperScratch};
use umpa::graph::TaskGraph;
use umpa::matgen::churn::{load_sequence, ChurnSpec, LoadEvent, LoadSpec};
use umpa::service::clock::ServiceClock;
use umpa::service::config::RETRY_MAX_ATTEMPTS;
use umpa::service::{
    LadderRung, MapJob, MappingService, ServiceConfig, ServiceError, Submit, SupervisorPolicy,
};
use umpa::topology::{AllocSpec, Allocation, Machine, MachineConfig};

/// Ring + chords with skewed weights — structure to lose, so drift
/// shows up in WH.
fn task_graph(n: u32, seed: u64) -> TaskGraph {
    let n = n.max(4);
    let msgs = (0..n).flat_map(move |i| {
        let w = 1.0 + f64::from((i + seed as u32) % 5);
        [
            (i, (i + 1) % n, 2.0 * w),
            (i, (i + n / 3).max(i + 1) % n, w),
        ]
    });
    TaskGraph::from_messages(n as usize, msgs, None)
}

/// 128-node torus (256 proc slots), 96 sparse allocated nodes: a
/// 128-task resident job stays capacity-feasible even at the churn
/// generator's 25 % removal cap (72 nodes × 2 procs = 144 slots).
fn setup() -> (Machine, Allocation) {
    let machine = MachineConfig::small(&[4, 4, 4], 2, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(96, 7));
    (machine, alloc)
}

/// From-scratch reference for the drift bound: greedy + full WH
/// refinement on the *current* machine/allocation — the same
/// computation the supervisor's baseline uses.
fn from_scratch_wh(tasks: &TaskGraph, machine: &Machine, alloc: &Allocation) -> f64 {
    let mut scratch = MapperScratch::new();
    let mut mapping = Vec::new();
    greedy_map_into(
        tasks,
        machine,
        alloc,
        &Default::default(),
        &mut scratch.greedy,
        &mut mapping,
    );
    wh_refine_scratch(
        tasks,
        machine,
        alloc,
        &mut mapping,
        &Default::default(),
        &mut scratch.wh,
    );
    weighted_hops(tasks, machine, &mapping)
}

#[test]
fn soak_500_events_sheds_survives_and_bounds_drift() {
    let (machine, alloc) = setup();
    let load = load_sequence(
        &machine,
        &alloc,
        &LoadSpec {
            events: 520,
            churn_fraction: 0.25,
            tasks: (32, 96),
            churn: ChurnSpec::new(0, 0),
            ..LoadSpec::new(520, 42)
        },
    );
    assert!(load.len() >= 500);

    let cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        pressure_depth: 6,
        default_deadline_ns: 2_000_000_000, // 2 s: generous, so any miss means a stall
        supervisor: SupervisorPolicy { check_every: 8 },
        ..ServiceConfig::default()
    };
    let queue_capacity = cfg.queue_capacity;
    let service = MappingService::new(machine, alloc, cfg);
    let resident = Arc::new(task_graph(128, 1));
    let initial_wh = service
        .install_job(Arc::clone(&resident))
        .expect("job fits");
    assert!(initial_wh > 0.0);

    let mut tickets = Vec::new();
    let mut shed = 0usize;
    let mut repair_errors = Vec::new();
    for ev in &load {
        match ev {
            LoadEvent::Request { tasks, seed, .. } => {
                let job = MapJob::new(Arc::new(task_graph(*tasks, *seed)));
                match service.submit_map(job) {
                    Submit::Accepted(t) => tickets.push(t),
                    Submit::Rejected { queue_depth } => {
                        assert!(
                            queue_depth <= queue_capacity,
                            "depth {queue_depth} over bound"
                        );
                        shed += 1;
                    }
                }
            }
            LoadEvent::Churn { event, .. } => {
                let report = service.apply_churn(std::slice::from_ref(event));
                if let Some(err) = report.error {
                    repair_errors.push(err);
                }
            }
        }
    }

    // Every accepted request is answered — within deadline, with a
    // feasible mapping, naming the rung that served it.
    let accepted = tickets.len();
    for ticket in tickets {
        let reply = ticket.wait().expect("accepted request must be answered");
        assert!(
            reply.met_deadline(),
            "deadline miss: total {} ns > {} ns (rung {:?})",
            reply.total_ns,
            reply.deadline_ns,
            reply.rung
        );
        assert!(!reply.mapping.is_empty());
        assert!(reply.mapping.iter().all(|&n| n != u32::MAX));
    }

    // Transient infeasibility is allowed; exhaustion is not (the churn
    // generator caps removals so capacity always suffices).
    assert!(
        repair_errors.is_empty(),
        "unexpected terminal repair errors: {repair_errors:?}"
    );
    if service
        .live_mapping()
        .is_some_and(|m| m.contains(&u32::MAX))
    {
        service.retry_now();
    }

    // Drift bound: after a forced supervisor pass, live WH is within
    // 15 % of mapping the final machine state from scratch.
    let report = service.polish_now();
    assert!(report.drift_checked, "supervisor must be able to check");
    let live = service.live_wh().expect("resident job fully placed");
    let scratch_wh = service.with_state(|m, a| from_scratch_wh(&resident, m, a));
    assert!(
        live <= scratch_wh * 1.15 + 1e-9,
        "drift over bound: live {live:.1} vs from-scratch {scratch_wh:.1}"
    );

    let drift = service.drift().expect("resident job tracks drift");
    assert!(drift.repairs > 0, "churn stream must exercise repairs");

    let stats = service.shutdown();
    assert_eq!(stats.panics, 0, "soak must be panic-free");
    assert_eq!(stats.deadline_misses, 0, "shedding must prevent misses");
    assert!(stats.max_queue_depth <= queue_capacity);
    assert_eq!(stats.accepted, accepted as u64);
    assert_eq!(stats.rejected, shed as u64);
    assert_eq!(stats.accepted + stats.rejected, (accepted + shed) as u64);
    assert!(stats.repairs > 0);
    assert!(stats.drift_checks > 0);
    // The ladder served something (whatever mix of rungs the box's
    // speed dictated).
    assert_eq!(
        stats.served_by_rung.iter().sum::<u64>(),
        stats.accepted,
        "every accepted request is attributed to a rung"
    );
}

#[test]
fn backpressure_rejects_with_observed_depth_when_queue_fills() {
    let (machine, alloc) = setup();
    // No consumers: the queue fills to capacity, then sheds.
    let cfg = ServiceConfig {
        workers: 0,
        queue_capacity: 4,
        ..ServiceConfig::default()
    };
    let service = MappingService::new(machine, alloc, cfg);
    let tasks = Arc::new(task_graph(16, 1));

    let mut admitted = Vec::new();
    for _ in 0..4 {
        match service.submit_map(MapJob::new(Arc::clone(&tasks))) {
            Submit::Accepted(t) => admitted.push(t),
            Submit::Rejected { queue_depth } => {
                panic!("rejected below capacity at depth {queue_depth}")
            }
        }
    }
    assert_eq!(service.queue_depth(), 4);
    match service.submit_map(MapJob::new(Arc::clone(&tasks))) {
        Submit::Accepted(_) => panic!("admitted past the bound"),
        Submit::Rejected { queue_depth } => assert_eq!(queue_depth, 4),
    }

    let stats = service.stats();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.rejected, 1);
    assert!((stats.shed_rate() - 0.2).abs() < 1e-12);
    assert_eq!(stats.max_queue_depth, 4);
}

#[test]
fn infeasible_repair_retries_exhausts_typed_then_converges_on_capacity() {
    let machine = MachineConfig::small(&[4, 4], 1, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 3));
    let (clock, _handle) = ServiceClock::manual();
    let cfg = ServiceConfig {
        workers: 0, // retries driven explicitly, deterministic
        ..ServiceConfig::default()
    };
    let max_attempts = RETRY_MAX_ATTEMPTS;
    let service = MappingService::with_clock(machine, alloc, cfg, clock);
    // 14 unit tasks on 8 nodes × 2 procs = 16 slots: nearly full.
    service
        .install_job(Arc::new(task_graph(14, 5)))
        .expect("job fits");

    // Remove 4 nodes (8 slots): 14 tasks cannot fit 8 slots.
    let doomed: Vec<u32> = service.with_state(|_, a| a.nodes()[..4].to_vec());
    let report = service.apply_churn(&[ChurnEvent::NodesRemoved {
        nodes: doomed.clone(),
    }]);
    assert!(!report.fully_placed);
    assert!(report.unplaced > 0);
    assert!(report.error.is_none(), "first attempt is not exhaustion");

    // Burn the retry budget: still infeasible, so the typed error
    // surfaces — never a panic, and the service stays up.
    let mut last = None;
    for _ in 0..max_attempts {
        last = service.retry_now();
    }
    let last = last.expect("pending repair must be retryable");
    assert!(matches!(
        last.error,
        Some(ServiceError::RepairExhausted { unplaced, .. }) if unplaced > 0
    ));
    let stats = service.stats();
    assert!(stats.retry_exhausted >= 1);
    assert!(stats.retries >= u64::from(max_attempts));

    // Capacity returns: the event-driven attempt converges even after
    // exhaustion.
    let report = service.apply_churn(&[ChurnEvent::NodesAdded { nodes: doomed }]);
    assert!(report.fully_placed, "NodesAdded must converge the repair");
    assert_eq!(report.unplaced, 0);
    let mapping = service.live_mapping().expect("job installed");
    assert!(mapping.iter().all(|&n| n != u32::MAX));
    assert_eq!(service.stats().panics, 0);
}

#[test]
fn ladder_degrades_on_tight_deadlines_and_reports_the_rung() {
    let (machine, alloc) = setup();
    let cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let service = MappingService::new(machine, alloc, cfg);
    let tasks = Arc::new(task_graph(64, 9));

    // A 1 µs budget affords nothing but projection.
    let reply = service
        .submit_map(MapJob::new(Arc::clone(&tasks)).with_deadline_ns(1_000))
        .accepted()
        .expect("admitted")
        .wait()
        .expect("served");
    assert_eq!(reply.rung, LadderRung::Projection);
    assert_eq!(reply.served_with, MapperKind::Def);

    // A generous budget keeps the requested top rung.
    let reply = service
        .submit_map(MapJob::new(Arc::clone(&tasks)).with_deadline_ns(u64::MAX))
        .accepted()
        .expect("admitted")
        .wait()
        .expect("served");
    assert_eq!(reply.rung, LadderRung::Full);
    assert_eq!(reply.served_with, MapperKind::GreedyMc);

    let stats = service.shutdown();
    assert_eq!(stats.served_by_rung[LadderRung::Projection.index()], 1);
    assert_eq!(stats.served_by_rung[LadderRung::Full.index()], 1);
}

#[test]
fn manual_clock_runs_are_deterministic() {
    let run = || {
        let (machine, alloc) = setup();
        let load = load_sequence(&machine, &alloc, &LoadSpec::new(60, 13));
        let (clock, _handle) = ServiceClock::manual();
        let cfg = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let service = MappingService::with_clock(machine, alloc, cfg, clock);
        service
            .install_job(Arc::new(task_graph(96, 2)))
            .expect("job fits");
        let mut replies = Vec::new();
        for ev in &load {
            match ev {
                LoadEvent::Request { tasks, seed, .. } => {
                    // Sequential submit+wait: one worker, ordered EWMA
                    // updates, no scheduling nondeterminism.
                    let reply = service
                        .submit_map(MapJob::new(Arc::new(task_graph(*tasks, *seed))))
                        .accepted()
                        .expect("no contention, must admit")
                        .wait()
                        .expect("served");
                    replies.push((reply.mapping, reply.served_with));
                }
                LoadEvent::Churn { event, .. } => {
                    service.apply_churn(std::slice::from_ref(event));
                }
            }
        }
        let live = service.live_mapping().expect("job installed");
        (replies, live)
    };
    let (replies_a, live_a) = run();
    let (replies_b, live_b) = run();
    assert_eq!(replies_a, replies_b, "served mappings must be seed-stable");
    assert_eq!(live_a, live_b, "live mapping must be seed-stable");
}

#[test]
fn try_wait_reports_a_request_the_service_dropped() {
    let (machine, alloc) = setup();
    let cfg = ServiceConfig {
        workers: 0, // nothing ever serves the request
        ..ServiceConfig::default()
    };
    let service = MappingService::new(machine, alloc, cfg);
    let ticket = service
        .submit_map(MapJob::new(Arc::new(task_graph(16, 1))))
        .accepted()
        .expect("queue empty, must admit");
    assert!(ticket.try_wait().is_none(), "queued request is in flight");

    // Shutdown drops the queued request unanswered: a poller must see
    // the same typed error `wait` returns, not "still in flight".
    drop(service);
    assert!(matches!(
        ticket.try_wait(),
        Some(Err(ServiceError::Disconnected))
    ));
}

#[test]
fn oversized_map_request_gets_a_typed_error() {
    // 4×4 torus, one node per router, two processors per node: an
    // 8-node allocation holds 16 processors, and a 20-task job does
    // not fit it. A 16-task ring fits, but not with a NaN, infinite or
    // negative volume on one of its messages.
    let machine = MachineConfig::small(&[4, 4], 1, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 1));
    let cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let service = MappingService::new(machine, alloc, cfg);
    let ring_with_volume = |bad: f64| {
        let ring = (0..16u32).map(move |i| (i, (i + 1) % 16, if i == 5 { bad } else { 1.0 }));
        TaskGraph::from_messages(16, ring, None)
    };
    let bad_volume = "message volume is NaN, infinite or negative";
    for (label, tasks, reason) in [
        (
            "20 tasks",
            task_graph(20, 1),
            "total task weight exceeds the allocation's processors",
        ),
        ("NaN volume", ring_with_volume(f64::NAN), bad_volume),
        (
            "infinite volume",
            ring_with_volume(f64::INFINITY),
            bad_volume,
        ),
        ("negative volume", ring_with_volume(-1.0), bad_volume),
    ] {
        let reply = service
            .submit_map(MapJob::new(Arc::new(tasks)))
            .accepted()
            .expect("queue empty, must admit")
            .wait();
        assert_eq!(
            reply.map(|r| r.mapping),
            Err(ServiceError::InvalidJob { reason }),
            "{label}"
        );
    }
    // The worker keeps serving jobs that fit.
    let reply = service
        .submit_map(MapJob::new(Arc::new(task_graph(16, 1))))
        .accepted()
        .expect("queue empty, must admit")
        .wait()
        .expect("a fitting job is served");
    assert_eq!(reply.mapping.len(), 16);
    assert_eq!(service.shutdown().panics, 0);
}
