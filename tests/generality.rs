//! Generality tests: the mapping algorithms on non-default machines —
//! meshes (no wraparound), 5-D tori, fat-trees, dragonflies,
//! heterogeneous node capacities and heterogeneous allocations.
//! Section III of the paper claims the WH-minimizing algorithms "can be
//! applied to various topologies"; these tests hold it to that.

use umpa::core::mapping::validate_mapping;
use umpa::prelude::*;

fn ring_tasks(n: u32, vol: f64) -> TaskGraph {
    TaskGraph::from_messages(n as usize, (0..n).map(|i| (i, (i + 1) % n, vol)), None)
}

#[test]
fn all_mappers_work_on_a_mesh() {
    let machine = MachineConfig::small_mesh(&[6, 6], 1, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 4));
    let tg = ring_tasks(16, 3.0);
    let cfg = PipelineConfig::default();
    for kind in MapperKind::all() {
        let out = map_tasks(&tg, &machine, &alloc, kind, &cfg);
        validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{} on mesh: {e}", kind.name()));
        let m = evaluate(&tg, &machine, &out.fine_mapping);
        let sum: f64 = m.msg_congestion.iter().sum();
        assert!(
            (m.th - sum).abs() < 1e-9,
            "{} mesh TH identity",
            kind.name()
        );
    }
}

/// Every mapper on a machine: feasibility + the TH/WH identities.
fn all_mappers_end_to_end(machine: &Machine, tasks: u32) {
    let nodes = (tasks as usize / 2).min(machine.num_nodes());
    let alloc = Allocation::generate(machine, &AllocSpec::sparse(nodes, 4));
    let tg = ring_tasks(tasks, 3.0);
    let cfg = PipelineConfig::default();
    let label = machine.topology().summary();
    for kind in MapperKind::all() {
        let out = map_tasks(&tg, machine, &alloc, kind, &cfg);
        validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{} on {label}: {e}", kind.name()));
        let m = evaluate(&tg, machine, &out.fine_mapping);
        let sum: f64 = m.msg_congestion.iter().sum();
        assert!(
            (m.th - sum).abs() < 1e-9,
            "{} {label}: TH identity",
            kind.name()
        );
        let vsum: f64 = m.vol_traffic.iter().sum();
        assert!(
            (m.wh - vsum).abs() < 1e-9 * (1.0 + m.wh),
            "{} {label}: WH identity",
            kind.name()
        );
    }
}

#[test]
fn all_mappers_work_on_a_fat_tree() {
    // k=4 testbeds (two node counts per switch) and the cloud cluster
    // preset.
    all_mappers_end_to_end(&FatTreeConfig::small(4, 2, 2).build(), 16);
    all_mappers_end_to_end(&FatTreeConfig::small(4, 1, 2).build(), 12);
    all_mappers_end_to_end(&FatTreeConfig::cluster().build(), 64);
}

#[test]
fn all_mappers_work_on_a_dragonfly() {
    let mut small = DragonflyConfig::small(4, 3, 1);
    small.procs_per_node = 2;
    all_mappers_end_to_end(&small.build(), 16);
    let mut wide = DragonflyConfig::small(3, 4, 2);
    wide.procs_per_node = 2;
    all_mappers_end_to_end(&wide.build(), 16);
    all_mappers_end_to_end(&DragonflyConfig::supercomputer().build(), 64);
}

#[test]
fn refinement_improves_on_hierarchical_topologies_too() {
    // UWH must not trail UG on WH, and UMC must not trail UG on MC,
    // on the new backends — the core quality guarantees stay intact.
    for machine in [FatTreeConfig::small(4, 2, 2).build(), {
        let mut d = DragonflyConfig::small(4, 4, 1);
        d.procs_per_node = 2;
        d.build()
    }] {
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 5));
        let tg = ring_tasks(16, 2.0);
        let cfg = PipelineConfig::default();
        let label = machine.topology().summary();
        let ug = map_tasks(&tg, &machine, &alloc, MapperKind::Greedy, &cfg);
        let uwh = map_tasks(&tg, &machine, &alloc, MapperKind::GreedyWh, &cfg);
        let umc = map_tasks(&tg, &machine, &alloc, MapperKind::GreedyMc, &cfg);
        let m_ug = evaluate(&tg, &machine, &ug.fine_mapping);
        let m_uwh = evaluate(&tg, &machine, &uwh.fine_mapping);
        let m_umc = evaluate(&tg, &machine, &umc.fine_mapping);
        assert!(m_uwh.wh <= m_ug.wh + 1e-9, "{label}: UWH worse than UG");
        assert!(m_umc.mc <= m_ug.mc + 1e-9, "{label}: UMC worse than UG");
    }
}

#[test]
fn simulator_runs_on_hierarchical_topologies() {
    use umpa::netsim::des::{simulate, DesConfig};
    // (machine, stride that genuinely crosses pods / groups).
    let cases = [
        // k=4 fat-tree, 2 nodes per edge switch: stride 4 jumps pods.
        (FatTreeConfig::small(4, 2, 1).build(), 4u32),
        // 4 groups x 3 routers x 2 nodes = 24 nodes: stride 6 jumps a
        // whole group per task.
        (DragonflyConfig::small(4, 3, 2).build(), 6u32),
    ];
    for (machine, stride) in cases {
        let tg = ring_tasks(8, 50_000.0);
        let packed: Vec<u32> = (0..8).collect();
        let near = simulate(&machine, &tg, &packed, &DesConfig::default());
        assert!(near.makespan_us > 0.0);
        assert!(near.network_bytes > 0.0);
        let n = machine.num_nodes() as u32;
        let spread: Vec<u32> = (0..8u32).map(|i| (i * stride) % n).collect();
        assert_ne!(spread, packed, "stride must actually spread the ring");
        let far = simulate(&machine, &tg, &spread, &DesConfig::default());
        // Scattering bulky ring traffic across pods/groups moves every
        // message onto multi-hop shared paths: strictly more bytes on
        // the network and a longer makespan.
        assert!(
            far.network_bytes >= near.network_bytes,
            "{}",
            machine.topology().summary()
        );
        assert!(
            far.makespan_us > near.makespan_us,
            "{}: spread {} should exceed packed {}",
            machine.topology().summary(),
            far.makespan_us,
            near.makespan_us
        );
    }
}

#[test]
fn mesh_distances_penalize_corner_to_corner() {
    let mesh = MachineConfig::small_mesh(&[8, 8], 1, 1).build();
    let torus = MachineConfig::small(&[8, 8], 1, 1).build();
    let corner_a = 0u32;
    let corner_b = (mesh.num_nodes() - 1) as u32;
    assert_eq!(mesh.hops(corner_a, corner_b), 14);
    assert_eq!(torus.hops(corner_a, corner_b), 2);
}

#[test]
fn five_dimensional_torus_end_to_end() {
    let machine = MachineConfig::small(&[3, 3, 3, 2, 2], 1, 4).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(16, 6));
    let tg = ring_tasks(64, 2.0);
    let cfg = PipelineConfig::default();
    let ug = map_tasks(&tg, &machine, &alloc, MapperKind::Greedy, &cfg);
    let uwh = map_tasks(&tg, &machine, &alloc, MapperKind::GreedyWh, &cfg);
    validate_mapping(&tg, &alloc, &ug.fine_mapping).unwrap();
    validate_mapping(&tg, &alloc, &uwh.fine_mapping).unwrap();
    let wh_ug = evaluate(&tg, &machine, &ug.fine_mapping).wh;
    let wh_uwh = evaluate(&tg, &machine, &uwh.fine_mapping).wh;
    assert!(wh_uwh <= wh_ug + 1e-9);
}

#[test]
fn heterogeneous_node_capacities_flow_through_the_pipeline() {
    let machine = MachineConfig::small(&[4, 4], 1, 8).build();
    let mut alloc = Allocation::generate(&machine, &AllocSpec::contiguous(4));
    // One fat node, three thin ones: 8 + 4 + 2 + 2 = 16 procs.
    alloc.set_procs(vec![8, 4, 2, 2]);
    let tg = ring_tasks(16, 1.0);
    let cfg = PipelineConfig::default();
    for kind in [
        MapperKind::Def,
        MapperKind::Greedy,
        MapperKind::GreedyWh,
        MapperKind::GreedyMc,
    ] {
        let out = map_tasks(&tg, &machine, &alloc, kind, &cfg);
        validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{} heterogeneous: {e}", kind.name()));
    }
}

#[test]
fn contiguous_vs_sparse_allocations_change_def_quality() {
    let machine = MachineConfig::small(&[8, 8], 1, 1).build();
    let tg = ring_tasks(16, 1.0);
    let cfg = PipelineConfig::default();
    let cont = Allocation::generate(&machine, &AllocSpec::contiguous(16));
    let frag = Allocation::generate(
        &machine,
        &AllocSpec {
            num_nodes: 16,
            background_occupancy: 0.6,
            fragment_len: 2,
            ordering: NodeOrdering::Serpentine,
            seed: 3,
        },
    );
    let wh_cont = {
        let out = map_tasks(&tg, &machine, &cont, MapperKind::Def, &cfg);
        evaluate(&tg, &machine, &out.fine_mapping).wh
    };
    let wh_frag = {
        let out = map_tasks(&tg, &machine, &frag, MapperKind::Def, &cfg);
        evaluate(&tg, &machine, &out.fine_mapping).wh
    };
    // Fragmentation hurts the curve-following default placement — the
    // premise of the whole paper.
    assert!(
        wh_frag > wh_cont,
        "fragmented DEF WH {wh_frag} should exceed contiguous {wh_cont}"
    );
}
