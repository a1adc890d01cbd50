//! Distance-oracle contract tests (DESIGN.md §11).
//!
//! Two guarantees keep the oracle safe to put under every hot path:
//!
//! 1. **Agreement** — the dense table returns exactly the analytic
//!    `Topology::distance` for every terminal-router pair, on every
//!    backend preset, including the degenerate extent-1/extent-2 torus
//!    dimensions that historically hid link-id bugs;
//! 2. **Bit-identity** — the refinement engines produce the same
//!    mappings whether distances come from the table or the analytic
//!    fallback (hop counts are exact integers either way, so every
//!    float gain and therefore every swap decision coincides).

use umpa::core::cong_refine::{congestion_refine_scratch, CongRefineConfig, CongScratch};
use umpa::core::greedy::{greedy_map_into, weighted_hops, GreedyConfig, GreedyScratch};
use umpa::core::wh_refine::{wh_refine_scratch, WhRefineConfig, WhScratch};
use umpa::graph::TaskGraph;
use umpa::topology::{
    AllocSpec, Allocation, DistanceOracle, DragonflyConfig, FatTreeConfig, Machine, MachineConfig,
};

/// Every preset the sweep covers: torus (ordinary, extent-1, extent-2,
/// mesh), fat-tree, dragonfly.
fn preset_machines() -> Vec<(&'static str, Machine)> {
    vec![
        (
            "torus 4x4x4",
            MachineConfig::small(&[4, 4, 4], 2, 1).build(),
        ),
        ("torus 1x4", MachineConfig::small(&[1, 4], 1, 1).build()),
        ("torus 2x4", MachineConfig::small(&[2, 4], 1, 1).build()),
        ("torus 2x2", MachineConfig::small(&[2, 2], 1, 1).build()),
        ("mesh 4x3", MachineConfig::small_mesh(&[4, 3], 1, 1).build()),
        ("fat-tree k=4", FatTreeConfig::small(4, 2, 1).build()),
        ("dragonfly", DragonflyConfig::small(4, 3, 2).build()),
    ]
}

#[test]
fn oracle_agrees_with_analytic_distance_on_every_router_pair() {
    for (name, m) in preset_machines() {
        let topo = m.topology();
        let oracle = m.oracle().unwrap_or_else(|| panic!("{name}: no oracle"));
        let n = m.num_terminal_routers() as u32;
        assert_eq!(oracle.num_routers() as u32, n, "{name}");
        for a in 0..n {
            let row = oracle.row(a);
            for b in 0..n {
                let analytic = topo.distance(a, b);
                assert_eq!(
                    oracle.distance(a, b),
                    analytic,
                    "{name}: routers {a} -> {b}"
                );
                assert_eq!(u32::from(row[b as usize]), analytic, "{name}: row {a}[{b}]");
            }
        }
        // Rebuilding standalone gives the same table.
        let rebuilt = DistanceOracle::build(topo, usize::MAX).unwrap();
        for a in 0..n {
            assert_eq!(rebuilt.row(a), oracle.row(a), "{name}: row {a}");
        }
    }
}

#[test]
fn machine_hops_identical_with_and_without_oracle() {
    for (name, mut m) in preset_machines() {
        let with: Vec<u32> = (0..m.num_nodes() as u32)
            .flat_map(|a| (0..m.num_nodes() as u32).map(move |b| (a, b)))
            .map(|(a, b)| m.hops(a, b))
            .collect();
        m.set_oracle_threshold(0);
        assert!(m.oracle().is_none(), "{name}: threshold 0 must disable");
        let without: Vec<u32> = (0..m.num_nodes() as u32)
            .flat_map(|a| (0..m.num_nodes() as u32).map(move |b| (a, b)))
            .map(|(a, b)| m.hops(a, b))
            .collect();
        assert_eq!(with, without, "{name}");
    }
}

/// The engine fixture shared by the bit-identity tests.
fn fixture_tg() -> TaskGraph {
    TaskGraph::from_messages(
        24,
        (0..24u32).flat_map(|i| {
            [
                (i, (i + 1) % 24, 2.0 + f64::from(i % 5)),
                (i, (i + 7) % 24, 1.0),
            ]
        }),
        None,
    )
}

fn engine_machines() -> Vec<(&'static str, Machine)> {
    vec![
        ("torus", MachineConfig::small(&[4, 4], 1, 4).build()),
        ("fattree", FatTreeConfig::small(4, 1, 4).build()),
        (
            "dragonfly",
            DragonflyConfig {
                procs_per_node: 4,
                ..DragonflyConfig::small(3, 3, 1)
            }
            .build(),
        ),
    ]
}

/// The default greedy mapping, on a fresh scratch.
fn greedy(tg: &TaskGraph, machine: &Machine, alloc: &Allocation) -> Vec<u32> {
    let mut out = Vec::new();
    let cfg = GreedyConfig::default();
    greedy_map_into(
        tg,
        machine,
        alloc,
        &cfg,
        &mut GreedyScratch::new(),
        &mut out,
    );
    out
}

#[test]
fn oracle_backed_refinement_is_bit_identical_to_analytic() {
    let tg = fixture_tg();
    for (name, m_oracle) in engine_machines() {
        assert!(m_oracle.oracle().is_some(), "{name}");
        let mut m_analytic = m_oracle.clone();
        m_analytic.set_oracle_threshold(0);
        for seed in 0..4u64 {
            let alloc = Allocation::generate(&m_oracle, &AllocSpec::sparse(8, seed));
            // Same greedy start on both machines (itself a cross-check).
            let base_o = greedy(&tg, &m_oracle, &alloc);
            let base_a = greedy(&tg, &m_analytic, &alloc);
            assert_eq!(base_o, base_a, "{name} seed {seed}: greedy diverged");

            let mut wh_o = base_o.clone();
            let mut wh_a = base_o.clone();
            let wh_cfg = WhRefineConfig::default();
            let out_o = wh_refine_scratch(
                &tg,
                &m_oracle,
                &alloc,
                &mut wh_o,
                &wh_cfg,
                &mut WhScratch::new(),
            );
            let out_a = wh_refine_scratch(
                &tg,
                &m_analytic,
                &alloc,
                &mut wh_a,
                &wh_cfg,
                &mut WhScratch::new(),
            );
            assert_eq!(wh_o, wh_a, "{name} seed {seed}: wh_refine mapping diverged");
            assert_eq!(
                out_o.to_bits(),
                out_a.to_bits(),
                "{name} seed {seed}: wh_refine WH diverged"
            );
            assert_eq!(
                weighted_hops(&tg, &m_oracle, &wh_o).to_bits(),
                weighted_hops(&tg, &m_analytic, &wh_a).to_bits(),
                "{name} seed {seed}: weighted_hops diverged"
            );

            let mut mc_o = base_o.clone();
            let mut mc_a = base_o.clone();
            let mc_cfg = CongRefineConfig::volume();
            let cong_o = congestion_refine_scratch(
                &tg,
                &m_oracle,
                &alloc,
                &mut mc_o,
                &mc_cfg,
                &mut CongScratch::new(),
            );
            let cong_a = congestion_refine_scratch(
                &tg,
                &m_analytic,
                &alloc,
                &mut mc_a,
                &mc_cfg,
                &mut CongScratch::new(),
            );
            assert_eq!(
                mc_o, mc_a,
                "{name} seed {seed}: cong_refine mapping diverged"
            );
            assert_eq!(
                cong_o, cong_a,
                "{name} seed {seed}: cong_refine MC/AC diverged"
            );
        }
    }
}

#[test]
fn oversize_machines_fall_back_without_a_table() {
    let mut m = MachineConfig::small(&[4, 4], 1, 1).build();
    m.set_oracle_threshold(15); // 16 routers > threshold
    assert!(m.oracle().is_none());
    assert!(m.dist_row(0).is_none());
    // The analytic path still serves everything.
    assert_eq!(m.hops(0, 1), 1);
    assert_eq!(m.diameter(), 4);
}
