//! Differential harness for the rewritten congestion-refinement hot
//! path (DESIGN.md §13).
//!
//! The route-caching PR rewrote Algorithm 3's probe loop around cached
//! routes, epoch-marked dedup and read-only probes, promising
//! **bit-identical mappings** — same probe order, same accept rule,
//! same float accumulation order. This test pins that promise across
//! the backend × preset matrix three ways per fixture:
//!
//! * the rewritten engine with the **route cache on** (default),
//! * the rewritten engine with the **route cache off**
//!   (`Machine::set_route_cache_threshold(0)` — the analytic fallback
//!   CI keeps honest by running this test in both feature configs),
//! * the **pre-rewrite engine**, preserved verbatim in
//!   `tests/reference/cong.rs` as `congestion_refine_reference`.
//!
//! All three must produce the same mapping vector and exactly equal
//! `(MC, AC)` (plain `==` on the floats — the engines promise identical
//! arithmetic, not merely close results). The matrix covers tori
//! including extent-1 and extent-2 dimensions (the link-id regression
//! family), a mesh, a fat-tree and a dragonfly, each under both
//! congestion kinds, with the distance oracle on and off, through one
//! warm scratch shared across every case.

#[path = "reference/hop_dist.rs"]
mod hop_dist;
#[path = "reference/cong.rs"]
mod reference;

use reference::congestion_refine_reference;
use umpa::core::cong_refine::{congestion_refine_scratch, CongRefineConfig, CongScratch};
use umpa::graph::TaskGraph;
use umpa::topology::{
    AllocSpec, Allocation, DragonflyConfig, FatTreeConfig, Machine, MachineConfig,
};

/// The backend × preset matrix: label + machine constructor.
fn machines() -> Vec<(&'static str, Machine)> {
    vec![
        ("torus 4x4", MachineConfig::small(&[4, 4], 1, 2).build()),
        (
            "torus 3x3x2",
            MachineConfig::small(&[3, 3, 2], 2, 2).build(),
        ),
        (
            "torus extent-1",
            MachineConfig::small(&[1, 6], 1, 2).build(),
        ),
        (
            "torus extent-2",
            MachineConfig::small(&[2, 4], 1, 2).build(),
        ),
        ("mesh 4x3", MachineConfig::small_mesh(&[4, 3], 1, 2).build()),
        ("fat-tree k=4", FatTreeConfig::small(4, 2, 2).build()),
        ("dragonfly 3x3", DragonflyConfig::small(3, 3, 2).build()),
    ]
}

/// A communication-heavy fixture: ring + chords with skewed weights, so
/// refinement has real congestion to chase on every backend.
fn task_graph(n: u32, seed: u64) -> TaskGraph {
    let msgs = (0..n).flat_map(move |i| {
        let w = 1.0 + f64::from((i + seed as u32) % 5);
        [
            (i, (i + 1) % n, 2.0 * w),
            (i, (i + n / 2) % n, w),
            ((i + 3) % n, i, 0.5 * w),
        ]
    });
    TaskGraph::from_messages(n as usize, msgs, None)
}

fn initial_mapping(alloc: &Allocation, tasks: usize) -> Vec<u32> {
    (0..tasks)
        .map(|t| alloc.node(t % alloc.num_nodes()))
        .collect()
}

#[test]
fn cache_on_cache_off_and_reference_are_bit_identical() {
    let mut scratch = CongScratch::new();
    for (label, machine) in machines() {
        // Oracle on and off: the WH-damage candidate tiebreak runs
        // through both the table rows and the analytic distances.
        for oracle_on in [true, false] {
            let mut cache_on = machine.clone();
            let mut cache_off = machine.clone();
            cache_off.set_route_cache_threshold(0);
            if !oracle_on {
                cache_on.set_oracle_threshold(0);
                cache_off.set_oracle_threshold(0);
            }
            let nodes = (machine.num_nodes() / 2).max(2);
            for seed in 0..3u64 {
                let alloc = Allocation::generate(&cache_on, &AllocSpec::sparse(nodes, seed));
                let tasks = alloc.num_nodes() * machine.procs_per_node() as usize;
                let tg = task_graph(tasks as u32, seed);
                for cfg in [CongRefineConfig::volume(), CongRefineConfig::messages()] {
                    let base = initial_mapping(&alloc, tasks);

                    let mut m_ref = base.clone();
                    let out_ref =
                        congestion_refine_reference(&tg, &cache_on, &alloc, &mut m_ref, &cfg);

                    let mut m_on = base.clone();
                    let out_on = congestion_refine_scratch(
                        &tg,
                        &cache_on,
                        &alloc,
                        &mut m_on,
                        &cfg,
                        &mut scratch,
                    );
                    assert!(
                        scratch.stats().route_cache_hit_rate() == 1.0
                            || scratch.stats().route_queries == 0,
                        "{label}: cache-on run did not serve routes from the cache"
                    );

                    let mut m_off = base.clone();
                    let out_off = congestion_refine_scratch(
                        &tg,
                        &cache_off,
                        &alloc,
                        &mut m_off,
                        &cfg,
                        &mut scratch,
                    );
                    assert_eq!(
                        scratch.stats().route_cache_hits,
                        0,
                        "{label}: cache-off run touched the cache"
                    );

                    let kind = cfg.kind;
                    assert_eq!(
                        m_on, m_off,
                        "{label} seed {seed} {kind:?} oracle {oracle_on}: cache on/off mappings diverged"
                    );
                    assert_eq!(
                        out_on, out_off,
                        "{label} seed {seed} {kind:?} oracle {oracle_on}: cache on/off (MC, AC) diverged"
                    );
                    assert_eq!(
                        m_on, m_ref,
                        "{label} seed {seed} {kind:?} oracle {oracle_on}: rewrite diverged from the pre-rewrite engine"
                    );
                    assert_eq!(
                        out_on, out_ref,
                        "{label} seed {seed} {kind:?} oracle {oracle_on}: (MC, AC) diverged from the pre-rewrite engine"
                    );
                }
            }
        }
    }
}

#[test]
fn full_pipeline_umc_is_unchanged_by_the_cache_mode() {
    // End-to-end: the UMC/UMMC mappers through `map_tasks` must be
    // identical with the route memo disabled.
    use umpa::core::pipeline::{map_tasks, MapperKind, PipelineConfig};
    let cfg = PipelineConfig::default();
    for (label, machine) in machines() {
        let mut no_cache = machine.clone();
        no_cache.set_route_cache_threshold(0);
        let nodes = (machine.num_nodes() / 2).max(2);
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(nodes, 7));
        // Fine tasks fill the allocation exactly (phase 1 groups them
        // into per-node groups bounded by the processor counts).
        let tg = task_graph(
            (alloc.num_nodes() * machine.procs_per_node() as usize) as u32,
            1,
        );
        for kind in [MapperKind::GreedyMc, MapperKind::GreedyMmc] {
            let with = map_tasks(&tg, &machine, &alloc, kind, &cfg);
            let without = map_tasks(&tg, &no_cache, &alloc, kind, &cfg);
            assert_eq!(
                with.fine_mapping,
                without.fine_mapping,
                "{label}: {} mapping changed with the route cache off",
                kind.name()
            );
        }
    }
}
