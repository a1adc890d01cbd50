//! Property: the batched `map_many` API is exactly a loop of
//! `map_tasks` — same mappings, same groupings, same fallback flags, in
//! request order — both without the `parallel` feature (one shared
//! scratch) and with it (per-worker scratch pool). Run under both
//! feature configurations in CI.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use umpa::core::pipeline::{
    map_many, map_many_seq, map_tasks, MapRequest, MapStrategy, MapperKind, PipelineConfig,
};
use umpa::core::validate_mapping;
use umpa::graph::TaskGraph;
use umpa::topology::{AllocSpec, Allocation, Machine, MachineConfig};

fn random_task_graph(rng: &mut ChaCha8Rng, n: u32) -> TaskGraph {
    let m = rng.gen_range(1..40usize);
    TaskGraph::from_messages(
        n as usize,
        (0..m).map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                f64::from(rng.gen_range(1..100u32)),
            )
        }),
        None,
    )
}

/// `(graph index, alloc index, mapper)` per request.
type BatchPlan = Vec<(usize, usize, MapperKind)>;

/// A mixed batch: several task graphs × allocations × mapper kinds.
fn build_batch(
    machine: &Machine,
    rng: &mut ChaCha8Rng,
) -> (Vec<TaskGraph>, Vec<Allocation>, BatchPlan) {
    let graphs: Vec<TaskGraph> = (0..4).map(|_| random_task_graph(rng, 12)).collect();
    let allocs: Vec<Allocation> = (0..3)
        .map(|i| Allocation::generate(machine, &AllocSpec::sparse(6, 40 + i)))
        .collect();
    let kinds = [
        MapperKind::Def,
        MapperKind::Greedy,
        MapperKind::GreedyWh,
        MapperKind::GreedyMc,
        MapperKind::GreedyMmc,
        MapperKind::Tmap,
        MapperKind::Smap,
    ];
    let mut plan = Vec::new();
    for (gi, _) in graphs.iter().enumerate() {
        for (ai, _) in allocs.iter().enumerate() {
            for &kind in &kinds {
                plan.push((gi, ai, kind));
            }
        }
    }
    (graphs, allocs, plan)
}

#[test]
fn map_many_matches_looped_map_tasks() {
    let machine = MachineConfig::small(&[4, 4], 1, 2).build();
    let mut rng = ChaCha8Rng::seed_from_u64(0x9A9);
    let cfg = PipelineConfig::default();
    let (graphs, allocs, plan) = build_batch(&machine, &mut rng);
    let requests: Vec<MapRequest<'_>> = plan
        .iter()
        .map(|&(gi, ai, kind)| MapRequest {
            tasks: &graphs[gi],
            machine: &machine,
            alloc: &allocs[ai],
            kind,
            strategy: MapStrategy::Direct,
            cfg: &cfg,
        })
        .collect();

    // The batched API (parallel when the feature is on)…
    let batched = map_many(&requests);
    // …the always-sequential batched form…
    let sequential = map_many_seq(&requests);
    assert_eq!(batched.len(), plan.len());
    for (i, &(gi, ai, kind)) in plan.iter().enumerate() {
        // …and the plain one-at-a-time loop.
        let single = map_tasks(&graphs[gi], &machine, &allocs[ai], kind, &cfg);
        assert_eq!(
            batched[i].fine_mapping, single.fine_mapping,
            "request {i} ({kind:?}): batched mapping diverged"
        );
        assert_eq!(
            sequential[i].fine_mapping, single.fine_mapping,
            "request {i} ({kind:?}): sequential batched mapping diverged"
        );
        assert_eq!(batched[i].group_of, single.group_of, "request {i}");
        assert_eq!(
            batched[i].tmap_fell_back, single.tmap_fell_back,
            "request {i}"
        );
        validate_mapping(&graphs[gi], &allocs[ai], &batched[i].fine_mapping)
            .unwrap_or_else(|e| panic!("request {i}: {e}"));
    }
}

#[test]
fn map_many_handles_trivial_batches() {
    let machine = MachineConfig::small(&[4, 4], 1, 2).build();
    let cfg = PipelineConfig::default();
    assert!(map_many(&[]).is_empty());
    let tg = TaskGraph::from_messages(4, [(0, 1, 2.0), (2, 3, 1.0)], None);
    let alloc = Allocation::generate(&machine, &AllocSpec::contiguous(2));
    let one = map_many(&[MapRequest {
        tasks: &tg,
        machine: &machine,
        alloc: &alloc,
        kind: MapperKind::Greedy,
        strategy: MapStrategy::Direct,
        cfg: &cfg,
    }]);
    assert_eq!(one.len(), 1);
    assert_eq!(
        one[0].fine_mapping,
        map_tasks(&tg, &machine, &alloc, MapperKind::Greedy, &cfg).fine_mapping
    );
}
