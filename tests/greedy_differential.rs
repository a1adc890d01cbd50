//! Differential harness for the batch-gain-kernel greedy rewrite
//! (DESIGN.md §17).
//!
//! The gain-kernel PR rewrote Algorithm 1's placement loop around the
//! shared batch kernel of `umpa_core::gain`: a compact slot×slot
//! distance panel built once per run, candidate batches scored against
//! hoisted rows, a level-0 fast path that skips the router BFS
//! entirely, capped BFS expansion past the feasible level, and an
//! early-stopping far-node search — promising **bit-identical
//! mappings and WH** (same seed choices, same BFS candidate order,
//! same tie-breaks, same float accumulation order). This test pins
//! that promise against the pre-rewrite engine, preserved verbatim in
//! `tests/reference/greedy.rs` as `greedy_map_into_reference`, across:
//!
//! * the backend matrix — tori including extent-1 and extent-2
//!   dimensions, a mesh, a fat-tree and a dragonfly;
//! * the distance oracle on and off (the analytic fallback CI keeps
//!   honest by running this test in both feature configs);
//! * a **warm** scratch shared across every case and a **cold** one
//!   per case;
//! * `NBFS` candidate sets beyond the default;
//! * allocations past the panel size cap (the per-lookup fallback arm)
//!   and heterogeneous node capacities (the heavy-first pre-pass).
//!
//! Mappings compare with `==` and WH with `to_bits` — the engines
//! promise identical arithmetic, not merely close results.

#[path = "reference/hop_dist.rs"]
mod hop_dist;
#[path = "reference/greedy.rs"]
mod reference;

use reference::{greedy_map_into_reference, GreedyReferenceScratch};
use umpa::core::greedy::{greedy_map_into, GreedyConfig, GreedyScratch};
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
/// placement has real distance structure to chase on every backend.
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

/// Runs both engines plus a cold-scratch rewrite run and asserts the
/// three mappings and WH returns are exactly equal.
fn assert_bit_identical(
    label: &str,
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    cfg: &GreedyConfig,
    warm: &mut GreedyScratch,
) {
    let mut out_ref = Vec::new();
    let wh_ref = greedy_map_into_reference(
        tg,
        machine,
        alloc,
        cfg,
        &mut GreedyReferenceScratch::new(),
        &mut out_ref,
    );
    let mut out_warm = Vec::new();
    let wh_warm = greedy_map_into(tg, machine, alloc, cfg, warm, &mut out_warm);
    let mut out_cold = Vec::new();
    let wh_cold = greedy_map_into(
        tg,
        machine,
        alloc,
        cfg,
        &mut GreedyScratch::new(),
        &mut out_cold,
    );
    assert_eq!(out_warm, out_ref, "{label}: warm rewrite mapping diverged");
    assert_eq!(
        wh_warm.map(f64::to_bits),
        Some(wh_ref.to_bits()),
        "{label}: warm rewrite WH diverged ({wh_warm:?} vs {wh_ref})"
    );
    assert_eq!(out_cold, out_ref, "{label}: cold rewrite mapping diverged");
    assert_eq!(
        wh_cold.map(f64::to_bits),
        Some(wh_ref.to_bits()),
        "{label}: cold rewrite WH diverged ({wh_cold:?} vs {wh_ref})"
    );
}

#[test]
fn rewrite_matches_reference_bit_for_bit_across_the_matrix() {
    let mut warm = GreedyScratch::new();
    let cfgs = [
        GreedyConfig::default(),
        GreedyConfig {
            nbfs_candidates: vec![0, 1, 2],
            heavy_first_fraction: 0.5,
        },
    ];
    for (label, machine) in machines() {
        for oracle_on in [true, false] {
            let mut m = machine.clone();
            if !oracle_on {
                m.set_oracle_threshold(0);
            }
            let nodes = (machine.num_nodes() / 2).max(2);
            for seed in 0..3u64 {
                let alloc = Allocation::generate(&m, &AllocSpec::sparse(nodes, seed));
                let tasks = alloc.num_nodes() * machine.procs_per_node() as usize;
                let tg = task_graph(tasks as u32, seed);
                for cfg in &cfgs {
                    let case = format!(
                        "{label} seed {seed} oracle {oracle_on} nbfs {:?}",
                        cfg.nbfs_candidates
                    );
                    assert_bit_identical(&case, &tg, &m, &alloc, cfg, &mut warm);
                }
            }
        }
    }
}

#[test]
fn panel_overflow_falls_back_and_still_matches_reference() {
    // Allocations larger than the compact panel cap (the multilevel
    // coarsest-level shape) run the per-lookup kernel arm; it must be
    // just as bit-identical.
    let mut warm = GreedyScratch::new();
    let cfg = GreedyConfig::default();
    for oracle_on in [true, false] {
        let mut m = MachineConfig::small(&[16, 16], 1, 2).build();
        if !oracle_on {
            m.set_oracle_threshold(0);
        }
        let alloc = Allocation::generate(&m, &AllocSpec::sparse(140, 5));
        let tg = task_graph((alloc.num_nodes() * 2) as u32, 5);
        let case = format!("fallback 16x16 oracle {oracle_on}");
        assert_bit_identical(&case, &tg, &m, &alloc, &cfg, &mut warm);
    }
}

#[test]
fn heavy_first_pre_pass_matches_reference() {
    // Heterogeneous node capacities drive the heavy-first pre-pass
    // (sorted placement before the seed), which exercises the kernel
    // before any connectivity structure exists.
    let mut warm = GreedyScratch::new();
    let m = MachineConfig::small(&[4, 4], 1, 4).build();
    let mut alloc = Allocation::generate(&m, &AllocSpec::sparse(6, 2));
    alloc.set_procs(vec![4, 2, 2, 4, 1, 3]);
    let weights = vec![4.0, 1.0, 2.0, 3.0, 1.0, 1.0, 2.0, 1.0];
    let tg = TaskGraph::from_messages(
        8,
        (0..8u32).flat_map(|i| [(i, (i + 1) % 8, 2.0), (i, (i + 3) % 8, 0.5)]),
        Some(weights),
    );
    for cfg in [
        GreedyConfig::default(),
        GreedyConfig {
            nbfs_candidates: vec![0, 1],
            heavy_first_fraction: 0.25,
        },
    ] {
        let case = format!("heterogeneous heavy_first {}", cfg.heavy_first_fraction);
        assert_bit_identical(&case, &tg, &m, &alloc, &cfg, &mut warm);
    }
}
