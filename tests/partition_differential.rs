//! Differential test of phase 1: `recursive_bisection` followed by
//! `fix_balance(.., 0.0)`, the two calls `umpa_core::group_tasks`
//! makes, must give exactly what the frozen copy in
//! `tests/reference/partition.rs` gives — the same part vector and the
//! same moved count.
//!
//! Target vectors are the processor counts of allocations on the
//! torus, fat-tree and dragonfly backends, as `group_tasks` builds
//! them. Inputs: row-partitioned SpMV, power-law graphs, 3-D stencils,
//! non-uniform node capacities, fewer tasks than nodes, and
//! disconnected graphs, each under the default settings and under a
//! second seed with a smaller coarsest graph (deeper coarsening).
//!
//! The test pins today's partitioner so a rewrite onto reused buffers
//! can prove its output did not change.

#[path = "reference/partition.rs"]
mod reference;

use reference::{fix_balance_reference, recursive_bisection_reference};
use umpa::graph::TaskGraph;
use umpa::matgen::gen::{stencil2d, Stencil2D};
use umpa::matgen::{power_law_tasks, spmv_task_graph, stencil3d_tasks, total_weight_for};
use umpa::partition::{fix_balance, recursive_bisection, MlConfig, PartitionerKind};
use umpa::topology::{
    AllocSpec, Allocation, DragonflyConfig, FatTreeConfig, Machine, MachineConfig,
};

/// One machine per backend, four processors per node.
fn machines() -> [(&'static str, Machine); 3] {
    [
        ("torus", MachineConfig::small(&[4, 4, 2], 2, 4).build()),
        ("fat-tree", FatTreeConfig::small(4, 2, 4).build()),
        (
            "dragonfly",
            DragonflyConfig {
                procs_per_node: 4,
                ..DragonflyConfig::small(3, 3, 2)
            }
            .build(),
        ),
    ]
}

/// Row-partitioned SpMV on a 5-point stencil, one task per processor.
fn spmv(alloc: &Allocation, seed: u64) -> TaskGraph {
    let parts = alloc.total_procs() as usize;
    let side = ((8 * parts) as f64).sqrt().ceil() as usize;
    let a = stencil2d(side, side, Stencil2D::FivePoint);
    let part = PartitionerKind::Metis.partition_matrix(&a, parts, seed);
    spmv_task_graph(&a, &part, parts)
}

/// Two 3-D stencils side by side with no message between them, plus
/// three isolated tasks.
fn disconnected(total_weight: f64) -> TaskGraph {
    let a = stencil3d_tasks(4, 4, 3, 8.0, 0.0, 1.0);
    let b = stencil3d_tasks(3, 3, 3, 4.0, 2.0, 1.0);
    let (na, nb) = (a.num_tasks() as u32, b.num_tasks() as u32);
    let n = na + nb + 3;
    let msgs: Vec<(u32, u32, f64)> = a
        .messages()
        .chain(b.messages().map(|(s, t, c)| (s + na, t + na, c)))
        .collect();
    TaskGraph::from_messages(
        n as usize,
        msgs,
        Some(vec![total_weight / f64::from(n); n as usize]),
    )
}

/// Runs both partitioners on `tg` with `alloc`'s targets, asserts they
/// agree, and returns the moved count.
fn check(label: &str, tg: &TaskGraph, alloc: &Allocation, cfg: &MlConfig) -> usize {
    let targets: Vec<f64> = (0..alloc.num_nodes())
        .map(|s| f64::from(alloc.procs(s)))
        .collect();
    let g = tg.symmetric();
    let mut part = recursive_bisection(g, &targets, cfg);
    let mut part_ref = recursive_bisection_reference(g, &targets, cfg);
    assert_eq!(part, part_ref, "{label}: bisection diverged");
    let moved = fix_balance(g, &mut part, &targets, 0.0);
    let moved_ref = fix_balance_reference(g, &mut part_ref, &targets, 0.0);
    assert_eq!(part, part_ref, "{label}: balanced parts diverged");
    assert_eq!(moved, moved_ref, "{label}: moved counts diverged");
    moved
}

#[test]
fn phase_one_matches_the_frozen_partitioner() {
    let configs = [
        MlConfig::default(),
        MlConfig {
            seed: 7,
            coarsen_to: 24,
            ..MlConfig::default()
        },
    ];
    let (mut cases, mut moved) = (0usize, 0usize);
    for (name, machine) in machines() {
        for (ci, cfg) in configs.iter().enumerate() {
            let seed = 11 + ci as u64;
            let mut run = |what: &str, tg: &TaskGraph, alloc: &Allocation| {
                moved += check(&format!("{name}/cfg{ci}/{what}"), tg, alloc, cfg);
                cases += 1;
            };
            let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, seed));
            let weight = |fill| total_weight_for(&alloc, fill);
            run("spmv", &spmv(&alloc, seed), &alloc);
            run(
                "power-law",
                &power_law_tasks(300, 3, seed, weight(0.85)),
                &alloc,
            );
            run(
                "stencil",
                &stencil3d_tasks(6, 5, 4, 8.0, 2.0, weight(0.7)),
                &alloc,
            );
            run("disconnected", &disconnected(weight(0.8)), &alloc);

            // Non-uniform capacities: one to four processors per node.
            let mut mixed = Allocation::generate(&machine, &AllocSpec::sparse(10, seed));
            mixed.set_procs((0..10).map(|s| 1 + s % 4).collect());
            let mixed_weight = total_weight_for(&mixed, 0.9);
            run(
                "non-uniform power-law",
                &power_law_tasks(200, 2, seed, mixed_weight),
                &mixed,
            );
            run(
                "non-uniform stencil",
                &stencil3d_tasks(5, 5, 4, 8.0, 0.0, mixed_weight),
                &mixed,
            );

            // Fewer tasks than nodes.
            let wide = Allocation::generate(&machine, &AllocSpec::sparse(12, seed));
            run(
                "fewer tasks than nodes",
                &power_law_tasks(9, 2, seed, 9.0),
                &wide,
            );
        }
    }
    eprintln!("partition differential: {cases} cases, {moved} vertices moved by fix_balance");
    assert!(moved > 0, "no case exercised fix_balance's moves");
}
