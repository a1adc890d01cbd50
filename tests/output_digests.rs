//! Pins the exact outputs of the mapping entry points and of the
//! service's repair path.
//!
//! Each test folds every mapping (and every repair report) it produces
//! into a 64-bit FNV-1a digest over `u32` words and compares it with a
//! recorded constant, one per topology backend. A refactor that claims
//! bit-identical outputs must leave every digest unchanged; a change
//! that moves any placement, any repair outcome or any drift figure by
//! one bit fails here with the new digests printed.
//!
//! * `map_tasks_with` for all seven mapper kinds through one warm
//!   scratch;
//! * `map_multilevel_with` for the four greedy kinds, under the default
//!   multilevel config and an eager one that coarsens as deep as the
//!   capacity cap allows;
//! * a consumerless (`workers: 0`) service without a journal: install a
//!   resident job, replay a fixed churn stream (soft and hard link
//!   failures, node failures, an infeasible shrink), force retries until
//!   the retry budget runs out, restore capacity, then force a
//!   supervisor pass.

use std::sync::Arc;

use umpa::core::{
    map_multilevel_with, map_tasks_with, ChurnEvent, MapperKind, MapperScratch, PipelineConfig,
};
use umpa::graph::TaskGraph;
use umpa::service::clock::ServiceClock;
use umpa::service::{MappingService, RepairReport, ServiceConfig, ServiceError};
use umpa::topology::{
    AllocSpec, Allocation, DragonflyConfig, FatTreeConfig, Machine, MachineConfig,
};

/// 64-bit FNV-1a over `u32` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        self.0 ^= u64::from(w);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        self.word(v as u32);
        self.word((v >> 32) as u32);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn words(&mut self, ws: &[u32]) {
        self.u64(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    fn report(&mut self, r: &RepairReport) {
        self.u64(r.applied_events as u64);
        self.word(u32::from(r.fully_placed));
        self.u64(r.displaced as u64);
        self.u64(r.unplaced as u64);
        self.word(u32::from(r.drift_checked));
        self.word(u32::from(r.polished));
        self.word(u32::from(r.adopted_baseline));
        match &r.error {
            None => self.word(0),
            Some(ServiceError::RepairExhausted { unplaced, attempts }) => {
                self.word(1);
                self.u64(*unplaced as u64);
                self.word(*attempts);
            }
            Some(other) => panic!("unexpected repair error {other:?}"),
        }
    }
}

/// One machine per topology backend.
fn machines() -> [(&'static str, Machine); 3] {
    [
        ("torus", MachineConfig::small(&[4, 4, 2], 1, 2).build()),
        ("fat-tree", FatTreeConfig::small(4, 2, 2).build()),
        ("dragonfly", DragonflyConfig::small(3, 3, 2).build()),
    ]
}

/// Ring plus two chord families with skewed volumes, so every
/// refinement has structure to act on; `uneven` halves every fourth
/// task's weight.
fn task_graph(n: u32, weight: f64, uneven: bool) -> TaskGraph {
    let msgs = (0..n).flat_map(move |i| {
        let w = 1.0 + f64::from(i % 5);
        [
            (i, (i + 1) % n, 2.0 * w),
            (i, (i + n / 3).max(i + 1) % n, w),
            (i, (i * 7 + 3) % n, 0.5),
        ]
    });
    let weights = (0..n)
        .map(|i| weight * if uneven && i % 4 == 0 { 0.5 } else { 1.0 })
        .collect();
    TaskGraph::from_messages(n as usize, msgs, Some(weights))
}

/// Compares the computed digests with the recorded ones, printing all
/// of them on a mismatch.
fn check(what: &str, got: &[(&str, u64)], want: &[u64]) {
    let gotv: Vec<u64> = got.iter().map(|&(_, d)| d).collect();
    if gotv != want {
        for (name, d) in got {
            eprintln!("{what} {name}: {d:#018x}");
        }
        panic!("{what}: digests changed: got {gotv:#018x?}, want {want:#018x?}");
    }
}

#[test]
fn direct_mappings_are_pinned() {
    let cfg = PipelineConfig::default();
    let mut scratch = MapperScratch::new();
    let mut got = Vec::new();
    for (name, machine) in machines() {
        let nodes = machine.num_nodes() * 3 / 4;
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(nodes, 5));
        let tg = task_graph(alloc.total_procs(), 1.0, false);
        let mut h = Fnv::new();
        for kind in MapperKind::all() {
            let out = map_tasks_with(&tg, &machine, &alloc, kind, &cfg, &mut scratch);
            h.words(&out.fine_mapping);
        }
        got.push((name, h.0));
    }
    check(
        "map_tasks_with",
        &got,
        &[0x4dcf3cbde6104afd, 0x292379dd79ec37cd, 0xc370eb981e628c44],
    );
}

#[test]
fn multilevel_mappings_are_pinned() {
    // Coarsen as deep as the capacity cap allows.
    let mut eager = PipelineConfig::default();
    eager.multilevel.coarsen_min = 1;
    eager.multilevel.coarsen_factor = 0.5;
    let configs = [PipelineConfig::default(), eager];
    let kinds = [
        MapperKind::Greedy,
        MapperKind::GreedyWh,
        MapperKind::GreedyMc,
        MapperKind::GreedyMmc,
    ];
    let mut scratch = MapperScratch::new();
    let mut got = Vec::new();
    for (name, machine) in machines() {
        let nodes = machine.num_nodes() * 3 / 4;
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(nodes, 9));
        // Ten tasks per processor at 0.08 weight each: 70 % full, so
        // the default config coarsens several levels too.
        let tg = task_graph(10 * alloc.total_procs(), 0.08, true);
        let mut h = Fnv::new();
        for cfg in &configs {
            for kind in kinds {
                let out = map_multilevel_with(&tg, &machine, &alloc, kind, cfg, &mut scratch);
                h.words(&out.fine_mapping);
                h.words(&out.group_of);
            }
        }
        got.push((name, h.0));
    }
    check(
        "map_multilevel_with",
        &got,
        &[0x7ed0407bd3fd6e7c, 0x1dd93bf5676d60b8, 0xa96be34518cf4b5f],
    );
}

#[test]
fn service_repairs_are_pinned() {
    let mut got = Vec::new();
    for (name, machine) in machines() {
        let nodes = machine.num_nodes() * 3 / 4;
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(nodes, 3));
        // Physical link ids: the directed id space is twice as large.
        let links = (machine.num_links() / 2) as u32;
        let held: Vec<u32> = alloc.nodes().to_vec();
        // Three quarters full: single failures stay repairable, losing
        // half the nodes does not.
        let tasks = Arc::new(task_graph(alloc.total_procs() * 3 / 4, 1.0, false));
        let (clock, _handle) = ServiceClock::manual();
        let cfg = ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        };
        let service = MappingService::with_clock(machine, alloc, cfg, clock);
        let mut h = Fnv::new();
        h.f64(service.install_job(Arc::clone(&tasks)).expect("job fits"));

        let mut stream = vec![
            ChurnEvent::LinkDegraded {
                link: links / 3,
                factor: 0.5,
            },
            ChurnEvent::LinkDegraded {
                link: links / 2,
                factor: 0.0,
            },
        ];
        // Enough single-node churn for the supervisor's own check to
        // fire, each failure followed by the node coming back.
        for &node in &held[..10] {
            stream.push(ChurnEvent::NodeFailed { node });
            stream.push(ChurnEvent::NodesAdded { nodes: vec![node] });
        }
        // Then two nodes leave for good, and a forced supervisor pass
        // polishes what the repairs left.
        for &node in &held[10..12] {
            stream.push(ChurnEvent::NodeFailed { node });
        }
        for ev in &stream {
            h.report(&service.apply_churn(std::slice::from_ref(ev)));
        }
        h.report(&service.polish_now());

        // An infeasible shrink, retried until the budget runs out.
        let doomed: Vec<u32> = service.with_state(|_, a| a.nodes()[..a.num_nodes() / 2].to_vec());
        let report = service.apply_churn(&[ChurnEvent::NodesRemoved {
            nodes: doomed.clone(),
        }]);
        assert!(!report.fully_placed, "{name}: shrink must be infeasible");
        h.report(&report);
        let mut exhausted = false;
        for _ in 0..64 {
            let report = service.retry_now().expect("a repair is pending");
            h.report(&report);
            if report.error.is_some() {
                exhausted = true;
                break;
            }
        }
        assert!(exhausted, "{name}: retry budget never ran out");

        // Capacity returns; then a soft link recovers and a forced
        // supervisor pass runs.
        h.report(&service.apply_churn(&[ChurnEvent::NodesAdded { nodes: doomed }]));
        h.report(&service.apply_churn(&[ChurnEvent::LinkDegraded {
            link: links / 3,
            factor: 1.0,
        }]));
        h.report(&service.polish_now());

        let live = service.live_mapping().expect("job installed");
        assert!(live.iter().all(|&n| n != u32::MAX), "{name}: unplaced");
        h.words(&live);
        let drift = service.drift().expect("job installed");
        h.u64(drift.repairs);
        h.u64(drift.displaced_total);
        h.f64(drift.wh_delta_total);
        h.f64(drift.wh_last);
        got.push((name, h.0));
    }
    check(
        "service",
        &got,
        &[0x687ed34d65fe771c, 0xf7ed5f21ae1c7cf0, 0xacf880292b26c7af],
    );
}
