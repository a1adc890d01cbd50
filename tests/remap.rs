//! Differential harness for fault-tolerant incremental remapping
//! (DESIGN.md §14).
//!
//! Four promises are pinned here, across the backend × preset matrix
//! (torus / fat-tree / dragonfly) and seeded churn streams from
//! `umpa_matgen::churn`:
//!
//! * **feasibility** — after every churn event, `remap_incremental`
//!   either returns a mapping that validates feasible or a clean
//!   [`RemapOutcome::Infeasible`] whose placed remainder is feasible
//!   (never a panic, never a silently broken mapping);
//! * **bounded quality gap** — after a whole churn stream, the repaired
//!   mapping's weighted hops stay within a constant factor of mapping
//!   the final machine/allocation from scratch with the full pipeline;
//! * **cache invalidation** — the lazily-built distance oracle and
//!   route cache are rebuilt, not served stale, when a link hard-fails
//!   or recovers (the stale-cache bug class `Machine::degrade_link`'s
//!   docs call out), and a restore returns distances and routes
//!   byte-identical to the pristine machine;
//! * **no event, no change** — after an infeasible repair, a repair
//!   with an empty batch is infeasible again with the same unplaced
//!   set and touches nothing, so only an event can make it succeed.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use umpa::core::remap::{remap_incremental, ChurnEvent, RemapConfig, RemapOutcome};
use umpa::core::{
    map_tasks, map_tasks_with, validate_mapping, MapperKind, MapperScratch, PipelineConfig,
};
use umpa::graph::TaskGraph;
use umpa::matgen::churn::{churn_sequence, ChurnSpec};
use umpa::topology::{
    AllocSpec, Allocation, DragonflyConfig, FatTreeConfig, Machine, MachineConfig, Topology,
};

/// The three-backend matrix of the acceptance criteria.
fn machines() -> Vec<(&'static str, Machine)> {
    vec![
        (
            "torus 4x4x2",
            MachineConfig::small(&[4, 4, 2], 1, 2).build(),
        ),
        ("fat-tree k=4", FatTreeConfig::small(4, 2, 2).build()),
        ("dragonfly 3x3", DragonflyConfig::small(3, 3, 2).build()),
    ]
}

/// Ring + chords with skewed weights — communication with structure to
/// lose, so bad repairs show up in WH.
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

/// The weight-feasible remainder of a partially placed mapping is
/// itself a valid mapping (every placed task on an allocated node,
/// no slot over capacity).
fn assert_remainder_feasible(tg: &TaskGraph, alloc: &Allocation, mapping: &[u32]) {
    let mut load = vec![0.0f64; alloc.num_nodes()];
    for (t, &node) in mapping.iter().enumerate() {
        if node == u32::MAX {
            continue;
        }
        let slot = alloc
            .slot_of(node)
            .unwrap_or_else(|| panic!("task {t} placed on unallocated node {node}"));
        load[slot as usize] += tg.task_weight(t as u32);
    }
    for (slot, &l) in load.iter().enumerate() {
        assert!(
            l <= f64::from(alloc.procs(slot)) + 1e-9,
            "slot {slot} over capacity"
        );
    }
}

/// Feasibility after every event of seeded churn streams, on every
/// backend. Repairs replay event-by-event through one warm scratch.
#[test]
fn differential_every_event_feasible_or_cleanly_infeasible() {
    for (label, machine) in machines() {
        for seed in 0..3u64 {
            let mut machine = machine.clone();
            let nodes = (machine.num_nodes() * 3 / 4).max(4);
            let mut alloc = Allocation::generate(&machine, &AllocSpec::sparse(nodes, seed));
            let tasks = alloc.total_procs();
            let tg = task_graph(tasks, seed);
            let mut mapping = map_tasks(
                &tg,
                &machine,
                &alloc,
                MapperKind::GreedyMc,
                &PipelineConfig::default(),
            )
            .fine_mapping;
            validate_mapping(&tg, &alloc, &mapping).unwrap();
            let events = churn_sequence(&machine, &alloc, &ChurnSpec::new(30, seed + 100));
            let mut scratch = MapperScratch::new();
            for (i, ev) in events.iter().enumerate() {
                let out = remap_incremental(
                    &tg,
                    &mut machine,
                    &mut alloc,
                    &mut mapping,
                    std::slice::from_ref(ev),
                    &RemapConfig::default(),
                    &mut scratch,
                );
                match out {
                    RemapOutcome::Repaired(stats) => {
                        assert_eq!(
                            validate_mapping(&tg, &alloc, &mapping),
                            Ok(()),
                            "{label} seed {seed} event {i}: repaired mapping invalid"
                        );
                        assert!(stats.frontier >= stats.displaced);
                    }
                    RemapOutcome::Infeasible { ref unplaced } => {
                        assert!(!unplaced.is_empty());
                        for &t in unplaced {
                            assert_eq!(mapping[t as usize], u32::MAX);
                        }
                        assert_remainder_feasible(&tg, &alloc, &mapping);
                    }
                }
            }
        }
    }
}

/// One repair stays within the acceptance bound of mapping the damaged
/// state from scratch: the mean WH ratio across the backend × seed
/// matrix is within 15%, and no single case exceeds 25% (local repair
/// can land in a placement-structure local optimum a full re-map
/// escapes; the bound caps how bad that gets). The repair is compared
/// with the WH-refined mapper, so the comparison is WH against WH.
/// Long streams are feasibility-tested above; quality is a per-repair
/// contract.
#[test]
fn differential_quality_gap_is_bounded() {
    let cfg = RemapConfig {
        frontier_hops: 2,
        wh: Some(umpa::core::WhRefineConfig {
            delta: 16,
            max_passes: 4,
            ..Default::default()
        }),
    };
    let mut ratios = Vec::new();
    for (label, machine) in machines() {
        for seed in 0..4u64 {
            let mut machine = machine.clone();
            let nodes = (machine.num_nodes() * 3 / 4).max(4);
            let mut alloc = Allocation::generate(&machine, &AllocSpec::sparse(nodes, seed));
            // Headroom so losing two nodes stays feasible.
            let tasks = alloc.total_procs() / 2;
            let tg = task_graph(tasks, seed);
            let mut scratch = MapperScratch::new();
            let mut mapping = map_tasks_with(
                &tg,
                &machine,
                &alloc,
                MapperKind::GreedyWh,
                &PipelineConfig::default(),
                &mut scratch,
            )
            .fine_mapping;
            // One damage batch: two occupied nodes die at once.
            let events = [
                ChurnEvent::NodeFailed { node: mapping[0] },
                ChurnEvent::NodeFailed {
                    node: mapping[mapping.len() / 2],
                },
            ];
            let out = remap_incremental(
                &tg,
                &mut machine,
                &mut alloc,
                &mut mapping,
                &events,
                &cfg,
                &mut scratch,
            );
            let repaired_wh = out
                .stats()
                .unwrap_or_else(|| panic!("{label} seed {seed}: repair infeasible"))
                .wh_after;
            let scratch_mapping = map_tasks(
                &tg,
                &machine,
                &alloc,
                MapperKind::GreedyWh,
                &PipelineConfig::default(),
            )
            .fine_mapping;
            let scratch_wh = umpa::core::greedy::weighted_hops(&tg, &machine, &scratch_mapping);
            let ratio = repaired_wh / scratch_wh.max(1e-12);
            assert!(
                ratio <= 1.25,
                "{label} seed {seed}: repaired WH {repaired_wh} vs from-scratch {scratch_wh}"
            );
            ratios.push(ratio);
        }
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean <= 1.15,
        "mean repaired/from-scratch WH ratio {mean} exceeds the 15% acceptance bound"
    );
}

/// Incremental repair of a single node failure is much faster than a
/// full re-map on a medium instance. The release-mode bench reports the
/// real p50/p99 ratios; this is the debug-mode smoke bound.
#[test]
fn repair_is_faster_than_full_remap() {
    let mut machine = MachineConfig::small(&[8, 8, 4], 2, 2).build();
    let mut alloc = Allocation::generate(&machine, &AllocSpec::sparse(320, 11));
    let tasks = alloc.total_procs() / 2;
    let tg = task_graph(tasks, 1);
    let mut scratch = MapperScratch::new();
    let mut mapping = map_tasks_with(
        &tg,
        &machine,
        &alloc,
        MapperKind::GreedyMc,
        &PipelineConfig::default(),
        &mut scratch,
    )
    .fine_mapping;
    // Warm everything once.
    let warm = [
        ChurnEvent::NodeFailed {
            node: alloc.node(0),
        },
        ChurnEvent::NodesAdded {
            nodes: vec![alloc.node(0)],
        },
    ];
    for ev in &warm {
        remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            std::slice::from_ref(ev),
            &RemapConfig::default(),
            &mut scratch,
        );
    }
    let mut repair_worst = 0.0f64;
    for i in 0..10 {
        let victim = alloc.node(i * 7 % alloc.num_nodes());
        let events = [
            ChurnEvent::NodeFailed { node: victim },
            ChurnEvent::NodesAdded {
                nodes: vec![victim],
            },
        ];
        for ev in &events {
            let t0 = Instant::now();
            let out = remap_incremental(
                &tg,
                &mut machine,
                &mut alloc,
                &mut mapping,
                std::slice::from_ref(ev),
                &RemapConfig::default(),
                &mut scratch,
            );
            repair_worst = repair_worst.max(t0.elapsed().as_secs_f64());
            assert!(out.is_repaired());
        }
    }
    let t0 = Instant::now();
    let full = map_tasks_with(
        &tg,
        &machine,
        &alloc,
        MapperKind::GreedyMc,
        &PipelineConfig::default(),
        &mut scratch,
    );
    let full_time = t0.elapsed().as_secs_f64();
    assert_eq!(validate_mapping(&tg, &alloc, &full.fine_mapping), Ok(()));
    assert!(
        repair_worst * 3.0 < full_time,
        "worst repair {repair_worst}s not well below full re-map {full_time}s"
    );
}

/// Oracle invalidation: hop distances change when a link on the route
/// hard-fails, and return exactly to the pristine values on restore —
/// on all three backends.
#[test]
fn oracle_is_invalidated_on_link_failure_and_restore() {
    for (label, mut machine) in machines() {
        let n = machine.num_nodes() as u32;
        // Find a node pair with a non-empty route.
        let (a, b, link) = 'found: {
            for a in 0..n {
                for b in 0..n {
                    let route = machine.route_links_vec(a, b);
                    if !route.is_empty() {
                        break 'found (a, b, Topology::channel_link(route[0]));
                    }
                }
            }
            panic!("{label}: no routed pair found");
        };
        let before_hops = machine.hops(a, b);
        let before_route = machine.route_links_vec(a, b);
        machine.degrade_link(link, 0.0);
        assert!(machine.has_failed_links());
        // The old route crossed the failed link; the recomputed one
        // must not (stale caches would).
        let after_route = machine.route_links_vec(a, b);
        assert!(
            after_route
                .iter()
                .all(|&c| Topology::channel_link(c) != link),
            "{label}: route still crosses failed link {link}"
        );
        let after_hops = machine.hops(a, b);
        assert!(
            after_hops >= before_hops,
            "{label}: masked distance shorter than geodesic"
        );
        assert_eq!(
            after_route.len() as u32,
            after_hops,
            "{label}: masked route length != masked distance"
        );
        machine.restore_link(link);
        assert!(!machine.has_failed_links());
        assert_eq!(machine.hops(a, b), before_hops, "{label}: restore");
        assert_eq!(machine.route_links_vec(a, b), before_route, "{label}");
    }
}

/// Consistency of the masked products across every pair: route length
/// equals masked distance, and no route crosses the failed link.
#[test]
fn masked_routes_and_distances_agree_on_every_pair() {
    for (label, mut machine) in machines() {
        let n = machine.num_nodes() as u32;
        let link = Topology::channel_link(machine.route_links_vec(0, n - 1)[0]);
        machine.degrade_link(link, 0.0);
        let mut route = Vec::new();
        for a in 0..n {
            for b in 0..n {
                route.clear();
                machine.route_links(a, b, &mut route);
                assert!(
                    route.iter().all(|&c| Topology::channel_link(c) != link),
                    "{label}: {a}->{b} crosses failed link"
                );
                if machine.router_of(a) != machine.router_of(b) {
                    assert_eq!(
                        route.len() as u32,
                        machine.hops(a, b),
                        "{label}: {a}->{b} route/distance mismatch"
                    );
                }
            }
        }
    }
}

/// Soft degradation (factor > 0) changes bandwidth but neither routes
/// nor distances — and does not enter masked-routing mode.
#[test]
fn soft_degradation_keeps_routes_and_distances() {
    for (label, mut machine) in machines() {
        let n = machine.num_nodes() as u32;
        let route = machine.route_links_vec(0, n - 1);
        let channel = route[0];
        let link = Topology::channel_link(channel);
        let hops = machine.hops(0, n - 1);
        let bw = machine.link_bandwidth(channel);
        machine.degrade_link(link, 0.5);
        assert!(!machine.has_failed_links(), "{label}");
        assert_eq!(machine.hops(0, n - 1), hops, "{label}");
        assert_eq!(machine.route_links_vec(0, n - 1), route, "{label}");
        assert!(
            (machine.link_bandwidth(channel) - 0.5 * bw).abs() < 1e-12,
            "{label}: bandwidth not scaled"
        );
        machine.restore_link(link);
        assert!((machine.link_bandwidth(channel) - bw).abs() < 1e-12);
    }
}

/// Repair under an actual hard link failure: routes around the dead
/// link, mapping stays feasible, and congestion refinement (which
/// walks cached routes) sees the masked routes.
#[test]
fn repair_under_hard_link_failure_stays_feasible() {
    for (label, machine) in machines() {
        let mut machine = machine.clone();
        let nodes = (machine.num_nodes() * 3 / 4).max(4);
        let mut alloc = Allocation::generate(&machine, &AllocSpec::sparse(nodes, 2));
        let tasks = alloc.total_procs() / 2;
        let tg = task_graph(tasks, 2);
        let mut scratch = MapperScratch::new();
        let mut mapping = map_tasks_with(
            &tg,
            &machine,
            &alloc,
            MapperKind::GreedyMc,
            &PipelineConfig::default(),
            &mut scratch,
        )
        .fine_mapping;
        let n = machine.num_nodes() as u32;
        let link = Topology::channel_link(machine.route_links_vec(0, n - 1)[0]);
        let victim = mapping[0];
        let events = [
            ChurnEvent::LinkDegraded { link, factor: 0.0 },
            ChurnEvent::NodeFailed { node: victim },
        ];
        let out = remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &events,
            &RemapConfig::default(),
            &mut scratch,
        );
        assert!(out.is_repaired(), "{label}");
        assert_eq!(validate_mapping(&tg, &alloc, &mapping), Ok(()), "{label}");
        assert!(machine.has_failed_links());
        // Recover fully: the machine must behave as freshly built.
        let out = remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &[ChurnEvent::LinkDegraded { link, factor: 1.0 }],
            &RemapConfig::default(),
            &mut scratch,
        );
        assert!(out.is_repaired(), "{label}");
        assert!(!machine.has_failed_links());
    }
}

/// Shrinking the allocation to nothing, one failure at a time, ends in
/// a clean `Infeasible` that lists every task — and growth repairs it.
#[test]
fn repeated_failures_to_zero_allocation_then_regrow() {
    let mut machine = MachineConfig::small(&[4, 4], 1, 2).build();
    let mut alloc = Allocation::generate(&machine, &AllocSpec::sparse(4, 5));
    let original: Vec<u32> = alloc.nodes().to_vec();
    let tg = task_graph(8, 3);
    let mut scratch = MapperScratch::new();
    let mut mapping = map_tasks_with(
        &tg,
        &machine,
        &alloc,
        MapperKind::Greedy,
        &PipelineConfig::default(),
        &mut scratch,
    )
    .fine_mapping;
    let mut saw_infeasible = false;
    for &node in &original {
        let out = remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &[ChurnEvent::NodeFailed { node }],
            &RemapConfig::default(),
            &mut scratch,
        );
        match out {
            RemapOutcome::Repaired(_) => {
                assert_eq!(validate_mapping(&tg, &alloc, &mapping), Ok(()));
            }
            RemapOutcome::Infeasible { .. } => {
                saw_infeasible = true;
                assert_remainder_feasible(&tg, &alloc, &mapping);
            }
        }
    }
    assert!(saw_infeasible);
    assert_eq!(alloc.num_nodes(), 0);
    assert!(mapping.iter().all(|&n| n == u32::MAX));
    let out = remap_incremental(
        &tg,
        &mut machine,
        &mut alloc,
        &mut mapping,
        &[ChurnEvent::NodesAdded { nodes: original }],
        &RemapConfig::default(),
        &mut scratch,
    );
    assert!(out.is_repaired());
    validate_mapping(&tg, &alloc, &mapping).unwrap();
}

/// `placement_only` repairs without refinement still validate; the
/// default config never does worse than placement-only on WH.
#[test]
fn refinement_polish_helps_or_ties() {
    let machine0 = MachineConfig::small(&[4, 4, 2], 1, 2).build();
    let alloc0 = Allocation::generate(&machine0, &AllocSpec::sparse(16, 9));
    let tg = task_graph(alloc0.total_procs() / 2, 9);
    let base = map_tasks(
        &tg,
        &machine0,
        &alloc0,
        MapperKind::GreedyMc,
        &PipelineConfig::default(),
    )
    .fine_mapping;
    let victims = [base[0], base[3]];
    let mut results = Vec::new();
    for cfg in [RemapConfig::placement_only(), RemapConfig::default()] {
        let (mut machine, mut alloc, mut mapping) =
            (machine0.clone(), alloc0.clone(), base.clone());
        let mut scratch = MapperScratch::new();
        let events: Vec<ChurnEvent> = victims
            .iter()
            .map(|&v| ChurnEvent::NodeFailed { node: v })
            .collect();
        let out = remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &events,
            &cfg,
            &mut scratch,
        );
        let stats = *out.stats().expect("repairable");
        assert_eq!(validate_mapping(&tg, &alloc, &mapping), Ok(()));
        results.push(stats.wh_after);
    }
    assert!(
        results[1] <= results[0] + 1e-9,
        "refined repair {} worse than placement-only {}",
        results[1],
        results[0]
    );
}

/// A repair with no events cannot turn an `Infeasible` outcome around:
/// nothing but an event changes the machine or the allocation, and the
/// tasks it re-tries already failed to fit a free capacity no smaller
/// than today's. Over seeded uneven-weight jobs filling 60–94 % of
/// 8–15 four-processor nodes on every backend, an allocation shrink
/// that leaves tasks unplaced is followed by repairs with an empty
/// batch: each returns `Infeasible` with the same unplaced set and
/// leaves the mapping, the machine's fault state and the allocation
/// as they were. The service's repair-on-events rule rests on this.
#[test]
fn eventless_repair_after_infeasible_changes_nothing() {
    let backends = [
        ("torus", MachineConfig::small(&[4, 4, 2], 1, 4).build()),
        ("fat-tree", FatTreeConfig::small(4, 2, 4).build()),
        (
            "dragonfly",
            DragonflyConfig {
                procs_per_node: 4,
                ..DragonflyConfig::small(3, 3, 2)
            }
            .build(),
        ),
    ];
    let sorted = |ts: &[u32]| {
        let mut ts = ts.to_vec();
        ts.sort_unstable();
        ts
    };
    let (mut infeasible, mut partial) = (0, 0);
    for (label, machine0) in backends {
        for seed in 0..100u64 {
            let ctx = format!("{label} seed {seed}");
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let nodes = rng.gen_range(8..=15usize);
            let mut alloc = Allocation::generate(&machine0, &AllocSpec::sparse(nodes, seed));
            let mut machine = machine0.clone();
            // Uneven weights in half-processor steps, up to a target fill.
            let capacity = f64::from(alloc.total_procs());
            let fill = rng.gen_range(0.60..0.94);
            let mut weights = Vec::new();
            let mut total = 0.0;
            loop {
                let w = 0.5 * f64::from(rng.gen_range(1..=4u32));
                if total + w > fill * capacity {
                    break;
                }
                total += w;
                weights.push(w);
            }
            let n = weights.len() as u32;
            let msgs = (0..n).flat_map(|i| {
                let v = 1.0 + f64::from(i % 5);
                [
                    (i, (i + 1) % n, 2.0 * v),
                    (i, (i + n / 3).max(i + 1) % n, v),
                ]
            });
            let tg = TaskGraph::from_messages(n as usize, msgs, Some(weights));
            let mut scratch = MapperScratch::new();
            let mut mapping = map_tasks_with(
                &tg,
                &machine,
                &alloc,
                MapperKind::Greedy,
                &PipelineConfig::default(),
                &mut scratch,
            )
            .fine_mapping;
            validate_mapping(&tg, &alloc, &mapping).unwrap();

            // Remove up to half of the nodes and degrade a link.
            let mut held = alloc.nodes().to_vec();
            let mut doomed = Vec::new();
            for _ in 0..rng.gen_range(1..=nodes / 2) {
                doomed.push(held.swap_remove(rng.gen_range(0..held.len())));
            }
            let displaced = mapping.iter().filter(|n| doomed.contains(n)).count();
            let link = rng.gen_range(0..(machine.num_links() / 2) as u32);
            let shrink = [
                ChurnEvent::LinkDegraded { link, factor: 0.5 },
                ChurnEvent::NodesRemoved { nodes: doomed },
            ];
            let out = remap_incremental(
                &tg,
                &mut machine,
                &mut alloc,
                &mut mapping,
                &shrink,
                &RemapConfig::default(),
                &mut scratch,
            );
            let RemapOutcome::Infeasible { unplaced } = out else {
                continue;
            };
            infeasible += 1;
            // Fewer unplaced than displaced: the repair placed some
            // tasks before one failed to fit.
            partial += usize::from(unplaced.len() < displaced);
            let unplaced = sorted(&unplaced);
            let state = (
                mapping.clone(),
                machine.fault_snapshot(),
                alloc.nodes().to_vec(),
                alloc.procs_all().to_vec(),
            );
            for attempt in 1..=3 {
                let again = remap_incremental(
                    &tg,
                    &mut machine,
                    &mut alloc,
                    &mut mapping,
                    &[],
                    &RemapConfig::default(),
                    &mut scratch,
                );
                match again {
                    RemapOutcome::Infeasible { unplaced: now } => {
                        assert_eq!(sorted(&now), unplaced, "{ctx} attempt {attempt}");
                    }
                    RemapOutcome::Repaired(_) => {
                        panic!("{ctx} attempt {attempt}: an event-less repair succeeded")
                    }
                }
                let now = (
                    mapping.clone(),
                    machine.fault_snapshot(),
                    alloc.nodes().to_vec(),
                    alloc.procs_all().to_vec(),
                );
                assert_eq!(now, state, "{ctx} attempt {attempt}: state changed");
            }
        }
    }
    assert!(
        infeasible >= 150 && partial >= 25,
        "{infeasible} infeasible shrinks, {partial} partly placed: too few to probe the case"
    );
    eprintln!("{infeasible} infeasible shrinks ({partial} partly placed) re-tried without events");
}
