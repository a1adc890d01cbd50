//! Edge-case and failure-injection tests: the degenerate inputs a
//! downstream user will eventually feed the library.

use umpa::core::mapping::validate_mapping;
use umpa::core::multilevel::MultilevelConfig;
use umpa::matgen::spmv::spmv_task_graph;
use umpa::matgen::SparsePattern;
use umpa::prelude::*;

#[test]
fn empty_task_graph_through_the_pipeline() {
    let machine = MachineConfig::small(&[4], 1, 1).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::contiguous(2));
    let tg = TaskGraph::from_messages(0, [], None);
    let cfg = PipelineConfig::default();
    for kind in MapperKind::all() {
        let out = map_tasks(&tg, &machine, &alloc, kind, &cfg);
        assert!(out.fine_mapping.is_empty(), "{}", kind.name());
    }
}

#[test]
fn single_task_maps_somewhere_valid() {
    let machine = MachineConfig::small(&[4, 4], 2, 4).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(3, 9));
    let tg = TaskGraph::from_messages(1, [], None);
    let cfg = PipelineConfig::default();
    for kind in MapperKind::all() {
        let out = map_tasks(&tg, &machine, &alloc, kind, &cfg);
        validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
}

#[test]
fn tasks_with_no_messages_at_all() {
    let machine = MachineConfig::small(&[4], 1, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::contiguous(4));
    // 8 isolated tasks, zero edges.
    let tg = TaskGraph::from_messages(8, [], None);
    let cfg = PipelineConfig::default();
    for kind in MapperKind::all() {
        let out = map_tasks(&tg, &machine, &alloc, kind, &cfg);
        validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let m = evaluate(&tg, &machine, &out.fine_mapping);
        assert_eq!(m.th, 0.0);
        assert_eq!(m.used_links, 0);
    }
}

#[test]
fn exact_fit_allocation_leaves_no_slack() {
    // 8 tasks, 4 nodes × 2 procs: every node must end exactly full.
    let machine = MachineConfig::small(&[4, 4], 1, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(4, 2));
    let tg = TaskGraph::from_messages(8, (0..8u32).map(|i| (i, (i + 1) % 8, 1.0)), None);
    let cfg = PipelineConfig::default();
    for kind in [
        MapperKind::Greedy,
        MapperKind::GreedyWh,
        MapperKind::GreedyMc,
    ] {
        let out = map_tasks(&tg, &machine, &alloc, kind, &cfg);
        let mut per_node = std::collections::HashMap::new();
        for &n in &out.fine_mapping {
            *per_node.entry(n).or_insert(0u32) += 1;
        }
        assert!(per_node.values().all(|&c| c == 2), "{}", kind.name());
    }
}

#[test]
fn one_part_partition_is_trivial() {
    let a = umpa::matgen::gen::stencil2d(6, 6, umpa::matgen::gen::Stencil2D::FivePoint);
    let part = PartitionerKind::Patoh.partition_matrix(&a, 1, 0);
    assert!(part.iter().all(|&p| p == 0));
    let tg = spmv_task_graph(&a, &part, 1);
    assert_eq!(tg.num_messages(), 0);
}

#[test]
fn matrix_without_diagonal_still_works() {
    // Rows that do not reference their own column exercise the
    // ownership-change corner of the comm refiner.
    let a = SparsePattern::from_entries(4, 4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (0, 3)]);
    for kind in PartitionerKind::all() {
        let part = kind.partition_matrix(&a, 2, 1);
        let tg = spmv_task_graph(&a, &part, 2);
        // Sanity: metrics computable, volumes finite.
        assert!(tg.total_volume().is_finite(), "{}", kind.name());
    }
}

#[test]
fn zero_volume_messages_do_not_poison_metrics() {
    let machine = MachineConfig::small(&[4], 1, 1).build();
    let tg = TaskGraph::from_messages(3, [(0, 1, 0.0), (1, 2, 5.0)], None);
    let m = evaluate(&tg, &machine, &[0, 1, 2]);
    assert_eq!(m.th, 2.0); // both messages still travel
    assert_eq!(m.wh, 5.0); // but only one carries volume
    assert!(m.mc.is_finite());
}

#[test]
fn allocation_covering_the_whole_machine() {
    let machine = MachineConfig::small(&[2, 2], 2, 1).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::contiguous(8));
    assert_eq!(alloc.num_nodes(), machine.num_nodes());
    let tg = TaskGraph::from_messages(8, (0..8u32).map(|i| (i, (i + 3) % 8, 1.0)), None);
    let cfg = PipelineConfig::default();
    let out = map_tasks(&tg, &machine, &alloc, MapperKind::GreedyWh, &cfg);
    validate_mapping(&tg, &alloc, &out.fine_mapping).unwrap();
}

#[test]
fn self_messages_are_dropped_by_construction() {
    let tg = TaskGraph::from_messages(2, [(0, 0, 99.0), (0, 1, 1.0)], None);
    assert_eq!(tg.num_messages(), 1);
    assert_eq!(tg.total_volume(), 1.0);
}

/// Multilevel config that would coarsen anything coarsenable — the
/// degenerate inputs below must survive it regardless.
fn eager_ml_cfg() -> PipelineConfig {
    PipelineConfig {
        multilevel: MultilevelConfig {
            coarsen_min: 1,
            coarsen_factor: 0.5,
        },
        ..PipelineConfig::default()
    }
}

/// The multilevel engine on a fresh scratch.
fn multilevel_fresh(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    kind: MapperKind,
    cfg: &PipelineConfig,
) -> MappingOutcome {
    map_multilevel_with(tg, machine, alloc, kind, cfg, &mut MapperScratch::new())
}

/// The greedy family — the kinds the multilevel engine maps itself.
const ML_KINDS: [MapperKind; 4] = [
    MapperKind::Greedy,
    MapperKind::GreedyWh,
    MapperKind::GreedyMc,
    MapperKind::GreedyMmc,
];

#[test]
fn multilevel_zero_and_single_task() {
    let machine = MachineConfig::small(&[4, 4], 2, 4).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(3, 9));
    let cfg = eager_ml_cfg();
    for kind in ML_KINDS {
        let empty = TaskGraph::from_messages(0, [], None);
        let out = multilevel_fresh(&empty, &machine, &alloc, kind, &cfg);
        assert!(out.fine_mapping.is_empty(), "{}", kind.name());
        let single = TaskGraph::from_messages(1, [], None);
        let out = multilevel_fresh(&single, &machine, &alloc, kind, &cfg);
        validate_mapping(&single, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
}

#[test]
fn multilevel_fewer_tasks_than_nodes() {
    let machine = MachineConfig::small(&[4, 4], 1, 4).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 4));
    // 5 tasks on 8 nodes; the ring still coarsens under the eager config.
    let tg = TaskGraph::from_messages(5, (0..5u32).map(|i| (i, (i + 1) % 5, 2.0)), None);
    let cfg = eager_ml_cfg();
    for kind in ML_KINDS {
        let out = multilevel_fresh(&tg, &machine, &alloc, kind, &cfg);
        validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
}

#[test]
fn multilevel_empty_comm_graph_cannot_coarsen() {
    // 16 isolated tasks: no matchable edges at all, so coarsening must
    // stall gracefully and the engine maps the fine graph directly.
    let machine = MachineConfig::small(&[4, 4], 1, 4).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(6, 2));
    let tg = TaskGraph::from_messages(16, [], None);
    let cfg = eager_ml_cfg();
    for kind in ML_KINDS {
        let out = multilevel_fresh(&tg, &machine, &alloc, kind, &cfg);
        validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let m = evaluate(&tg, &machine, &out.fine_mapping);
        assert_eq!(m.th, 0.0, "{}", kind.name());
    }
}

#[test]
fn multilevel_star_graph_collapses_to_one_vertex() {
    // A 9-task star: only hub–leaf merges are possible, one per level,
    // until the whole star is a single coarse vertex (light enough to
    // fit one node). The engine must neither panic nor split it.
    let machine = MachineConfig::small(&[4], 1, 8).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::contiguous(4));
    let tg = TaskGraph::from_messages(9, (1..9u32).map(|leaf| (0, leaf, 1.0)), Some(vec![0.25; 9]));
    let cfg = eager_ml_cfg();
    for kind in ML_KINDS {
        let out = multilevel_fresh(&tg, &machine, &alloc, kind, &cfg);
        validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
    // Under UWH the fully collapsed star lands on a single node: the
    // whole graph's weight is 2.25 of an 8-proc node, so every message
    // should end node-local.
    let out = multilevel_fresh(&tg, &machine, &alloc, MapperKind::GreedyWh, &cfg);
    let m = evaluate(&tg, &machine, &out.fine_mapping);
    assert_eq!(m.th, 0.0, "collapsed star should be colocated");
}

#[test]
fn multilevel_heavy_tasks_that_cannot_merge() {
    // Every task already weighs more than half a node: the capacity cap
    // blocks every merge (another cannot-coarsen shape), and the fine
    // graph maps directly.
    let machine = MachineConfig::small(&[4, 4], 1, 4).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 6));
    let tg = TaskGraph::from_messages(
        8,
        (0..8u32).map(|i| (i, (i + 1) % 8, 1.0)),
        Some(vec![3.0; 8]),
    );
    let cfg = eager_ml_cfg();
    for kind in ML_KINDS {
        let out = multilevel_fresh(&tg, &machine, &alloc, kind, &cfg);
        validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
}

#[test]
fn nnls_on_degenerate_inputs() {
    use umpa::analysis::{nnls, Matrix};
    // All-zero design matrix → zero solution, no panic.
    let a = Matrix::zeros(3, 2);
    let x = nnls(&a, &[1.0, 2.0, 3.0]);
    assert_eq!(x, vec![0.0, 0.0]);
    // Single row.
    let a = Matrix::from_rows(&[vec![2.0, 4.0]]);
    let x = nnls(&a, &[8.0]);
    let fit = 2.0 * x[0] + 4.0 * x[1];
    assert!((fit - 8.0).abs() < 1e-6);
}

#[test]
fn single_node_allocation_accepts_everything() {
    let machine = MachineConfig::small(&[4], 1, 8).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::contiguous(1));
    let tg = TaskGraph::from_messages(8, (0..8u32).map(|i| (i, (i + 1) % 8, 2.0)), None);
    let cfg = PipelineConfig::default();
    for kind in MapperKind::all() {
        let out = map_tasks(&tg, &machine, &alloc, kind, &cfg);
        validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        // Everything on one node → zero network traffic.
        let m = evaluate(&tg, &machine, &out.fine_mapping);
        assert_eq!(m.th, 0.0, "{}", kind.name());
    }
}
