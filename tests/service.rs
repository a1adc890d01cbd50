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
//! * **isolate, don't crash** — an infeasible repair reports its
//!   unplaced tasks, keeps them through unrelated events and places
//!   them once capacity returns, and a job that fails the job check
//!   gets a typed `ServiceError::InvalidJob`, never a panic (the
//!   poisoned-request, poisoned-lock and closed-intake cases need test
//!   hooks, so they are `umpa-service`'s own unit tests);
//! * **supervise drift** — after a 500+-event churn+load stream, the
//!   drift supervisor keeps the resident job's live WH within 15 % of
//!   a from-scratch re-map of the final machine state.

use std::sync::Arc;

use umpa::core::greedy::weighted_hops;
use umpa::core::{greedy_map_into, wh_refine_scratch, ChurnEvent, MapperScratch};
use umpa::graph::TaskGraph;
use umpa::matgen::churn::{load_sequence, ChurnSpec, LoadEvent, LoadSpec};
use umpa::service::clock::ServiceClock;
use umpa::service::{LadderRung, MapJob, MappingService, ServiceConfig, ServiceError, Submit};
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

    // The generator's events all fit the machine, so no batch is
    // refused (an infeasible repair reports unplaced tasks, not an
    // error).
    assert!(
        repair_errors.is_empty(),
        "unexpected refused churn batches: {repair_errors:?}"
    );

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
fn infeasible_repair_reports_unplaced_tasks_until_capacity_returns() {
    let machine = MachineConfig::small(&[4, 4], 1, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 3));
    let cfg = ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    };
    let service = MappingService::new(machine, alloc, cfg);
    // 14 unit tasks on 8 nodes × 2 procs = 16 slots: nearly full.
    service
        .install_job(Arc::new(task_graph(14, 5)))
        .expect("job fits");
    let unplaced_tasks = || {
        let mapping = service.live_mapping().expect("job installed");
        (0..mapping.len())
            .filter(|&t| mapping[t] == u32::MAX)
            .collect::<Vec<_>>()
    };

    // Remove 4 nodes (8 slots): 14 tasks cannot fit 8 slots. The
    // report names the unplaced tasks; that is not an error.
    let doomed: Vec<u32> = service.with_state(|_, a| a.nodes()[..4].to_vec());
    let report = service.apply_churn(&[ChurnEvent::NodesRemoved {
        nodes: doomed.clone(),
    }]);
    assert!(!report.fully_placed);
    assert!(report.unplaced > 0);
    assert_eq!(report.error, None);
    let unplaced = unplaced_tasks();
    assert_eq!(unplaced.len(), report.unplaced);

    // An event that brings no capacity back repairs again and leaves
    // the same tasks unplaced.
    let report = service.apply_churn(&[ChurnEvent::LinkDegraded {
        link: 1,
        factor: 0.5,
    }]);
    assert_eq!(report.applied_events, 1);
    assert!(!report.fully_placed);
    assert_eq!(report.error, None);
    assert_eq!(unplaced_tasks(), unplaced);
    assert_eq!(service.stats().infeasible, 2);

    // Capacity returns: the repair of that batch converges.
    let report = service.apply_churn(&[ChurnEvent::NodesAdded { nodes: doomed }]);
    assert!(report.fully_placed, "NodesAdded must converge the repair");
    assert_eq!(report.unplaced, 0);
    assert!(unplaced_tasks().is_empty());
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

    // A generous budget keeps the requested top rung.
    let reply = service
        .submit_map(MapJob::new(Arc::clone(&tasks)).with_deadline_ns(u64::MAX))
        .accepted()
        .expect("admitted")
        .wait()
        .expect("served");
    assert_eq!(reply.rung, LadderRung::Full);

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
                    replies.push((reply.mapping, reply.rung));
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

    // Eight nodes of four processors: a task of weight 5 fits no node,
    // though the job's total (23 of 32) fits the allocation.
    let (machine, alloc) = four_processor_nodes();
    let service = MappingService::new(machine, alloc, ServiceConfig::default());
    let reply = service
        .submit_map(MapJob::new(Arc::new(ring_with_heavy_task(5.0))))
        .accepted()
        .expect("queue empty, must admit")
        .wait();
    assert_eq!(
        reply.map(|r| r.mapping),
        Err(ServiceError::InvalidJob {
            reason: "a task weight exceeds every node's processors"
        })
    );
    assert_eq!(service.shutdown().panics, 0);
}

/// A 4×4×2 torus with one node per router and four processors per
/// node, and an 8-node allocation (32 processors).
fn four_processor_nodes() -> (Machine, Allocation) {
    let machine = MachineConfig::small(&[4, 4, 2], 1, 4).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 3));
    (machine, alloc)
}

/// Ten ring tasks of weight 2, except task 4, which weighs `heavy`.
fn ring_with_heavy_task(heavy: f64) -> TaskGraph {
    let weights = (0..10).map(|t| if t == 4 { heavy } else { 2.0 }).collect();
    TaskGraph::from_messages(
        10,
        (0..10u32).map(|i| (i, (i + 1) % 10, 1.0)),
        Some(weights),
    )
}

/// A ring of tasks with the given weights and skewed volumes.
fn weighted_ring(weights: Vec<f64>) -> TaskGraph {
    let n = weights.len() as u32;
    TaskGraph::from_messages(
        n as usize,
        (0..n).map(|i| (i, (i + 1) % n, 1.0 + f64::from(i % 3))),
        Some(weights),
    )
}

#[test]
fn unplaceable_job_is_refused_and_the_supervisor_keeps_the_live_mapping() {
    let (machine, alloc) = four_processor_nodes();
    let cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let service = MappingService::new(machine, alloc, cfg);

    // Ten tasks of weight 3 pass the job check (each fits a node, 30
    // of 32 processors), but a node holds only one of them: install
    // refuses the job and keeps no resident job.
    let threes = Arc::new(weighted_ring(vec![3.0; 10]));
    assert_eq!(
        service.install_job(Arc::clone(&threes)),
        Err(ServiceError::Panicked)
    );
    assert_eq!(service.live_mapping(), None);
    // A map request for it is answered `Panicked` as well: the mapping
    // entry points have no typed "cannot place" error yet.
    let reply = service
        .submit_map(MapJob::new(threes))
        .accepted()
        .expect("queue empty, must admit")
        .wait();
    assert!(matches!(reply, Err(ServiceError::Panicked)));

    // Eight tasks of weight 3 and eight of weight 1, in a ring weighing
    // 3, 3, 1, 1, …, fill the 32 processors exactly. Phase 1 cuts them
    // into eight groups of weight 4, so install places the job; greedy
    // on the ungrouped tasks, the supervisor's baseline, strands a task
    // of weight 3. The forced check is skipped and the live mapping
    // kept.
    let weights = (0..16).map(|t| if t % 4 < 2 { 3.0 } else { 1.0 });
    service
        .install_job(Arc::new(weighted_ring(weights.collect())))
        .expect("phase 1 packs four processors per group");
    let live = service.live_mapping();
    let report = service.polish_now();
    assert!(report.fully_placed);
    assert!(!report.drift_checked, "no baseline, so no check");
    assert!(!report.polished && !report.adopted_baseline);
    assert_eq!(service.live_mapping(), live);
    let stats = service.shutdown();
    assert_eq!(stats.drift_checks, 0);
    assert_eq!(stats.panics, 1, "only the map request panicked");
}
