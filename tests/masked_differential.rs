//! Differential test for the failure-masked distance oracle and route
//! cache (DESIGN.md §14).
//!
//! After a hard link failure the machine re-derives its hop table and
//! its routes by BFS over the surviving links. This test pins both to
//! the frozen pre-rewrite rebuild in `tests/reference/masked.rs`:
//! every row of `Machine::oracle()`, and for every terminal pair
//! `route_cache().row_from(a).route(b)` and `row_to(b).route(a)`, must
//! equal the reference byte for byte.
//!
//! Machines: a 3-D torus, an extent-2 torus, a mesh, a fat-tree (whose
//! internal switches make `num_routers > num_terminal_routers`), a
//! dragonfly, and sampled pairs on Hopper. Failure cases: one failed
//! link, two failed links, a mesh cut that isolates a corner router,
//! and fail → restore → fail another link, which must not serve the
//! first failure's products.
//!
//! A last test pins the on-demand footprint: a hard failure on Hopper
//! builds no route row, and one `GreedyMc` map then builds both rows of
//! every allocated router and nothing else.

#[path = "reference/masked.rs"]
mod reference;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use reference::{build_masked, MaskedProducts};
use umpa::prelude::*;

/// The small machines: label + machine.
fn machines() -> Vec<(&'static str, Machine)> {
    vec![
        (
            "torus 4x3x3",
            MachineConfig::small(&[4, 3, 3], 1, 1).build(),
        ),
        (
            "torus extent-2",
            MachineConfig::small(&[2, 4], 1, 1).build(),
        ),
        ("mesh 4x3", MachineConfig::small_mesh(&[4, 3], 1, 1).build()),
        ("fat-tree k=4", FatTreeConfig::small(4, 2, 1).build()),
        ("dragonfly 4x3", DragonflyConfig::small(4, 3, 2).build()),
    ]
}

/// Two physical links the healthy routes use: the first hops of
/// `0 → n-1` and of `n-1 → 0`, so hierarchical backends lose a link at
/// both ends of a route.
fn used_links(m: &Machine) -> [u32; 2] {
    let n = m.num_terminal_routers() as u32;
    let node = |r: u32| m.nodes_of_router(r).start;
    let first_hop = |a: u32, b: u32| Topology::channel_link(m.route_links_vec(node(a), node(b))[0]);
    let links = [first_hop(0, n - 1), first_hop(n - 1, 0)];
    assert_ne!(links[0], links[1], "{}", m.topology().summary());
    links
}

/// Every physical link touching router `r`.
fn links_of(m: &Machine, r: u32) -> Vec<u32> {
    let mut out = Vec::new();
    m.topology().for_each_link(|l, a, b, _| {
        if a == r || b == r {
            out.push(l);
        }
    });
    out
}

/// The health factors of a machine whose `failed` links are down.
fn factors(m: &Machine, failed: &[u32]) -> Vec<f64> {
    let mut f = vec![1.0; m.topology().num_physical_links()];
    for &l in failed {
        f[l as usize] = 0.0;
    }
    f
}

/// Fails `failed` on a copy of `healthy`.
fn fail(healthy: &Machine, failed: &[u32]) -> Machine {
    let mut m = healthy.clone();
    for &l in failed {
        m.degrade_link(l, 0.0);
    }
    m
}

/// Checks every oracle row and every terminal pair's forward and
/// reverse route against a reference with every source kept.
fn assert_all_pairs_match(label: &str, m: &Machine, r: &MaskedProducts) {
    let n = m.num_terminal_routers() as u32;
    let topo = m.topology();
    let oracle = m.oracle().expect("masked oracle is built under failures");
    let cache = m
        .route_cache()
        .expect("masked cache is built under failures");
    for a in 0..n {
        let row = &r.table[a as usize * r.n..(a as usize + 1) * r.n];
        assert_eq!(oracle.row(a), row, "{label}: oracle row {a}");
        let from = cache.row_from(topo, a);
        for b in 0..n {
            assert_eq!(from.route(b), r.row_from(a).route(b), "{label}: {a}->{b}");
        }
    }
    for b in 0..n {
        let to = cache.row_to(topo, b);
        let expected = r.row_to(b);
        for a in 0..n {
            assert_eq!(to.route(a), expected.route(a), "{label}: {a}->{b} (row_to)");
        }
    }
}

#[test]
fn masked_products_match_the_frozen_rebuild() {
    for (label, healthy) in machines() {
        let [l1, l2] = used_links(&healthy);
        for failed in [vec![l1], vec![l1, l2]] {
            let m = fail(&healthy, &failed);
            let r = build_masked(m.topology(), &factors(&m, &failed), |_| true);
            assert_all_pairs_match(&format!("{label}, failed {failed:?}"), &m, &r);
        }
    }
}

#[test]
fn a_mesh_cut_isolates_a_corner() {
    let healthy = MachineConfig::small_mesh(&[4, 3], 1, 1).build();
    let failed = links_of(&healthy, 0);
    assert_eq!(failed.len(), 2, "a 2-D mesh corner has two links");
    let m = fail(&healthy, &failed);
    let r = build_masked(m.topology(), &factors(&m, &failed), |_| true);
    assert_all_pairs_match("mesh corner cut", &m, &r);
    let topo = m.topology();
    let cache = m.route_cache().unwrap();
    let oracle = m.oracle().unwrap();
    for x in 1..m.num_terminal_routers() as u32 {
        assert_eq!(oracle.distance(0, x), u32::from(u16::MAX));
        assert_eq!(oracle.distance(x, 0), u32::from(u16::MAX));
        assert!(cache.row_from(topo, 0).route(x).is_empty());
        assert!(cache.row_to(topo, 0).route(x).is_empty());
    }
}

#[test]
fn fail_restore_fail_serves_the_current_failure() {
    for (label, healthy) in machines() {
        let [l1, l2] = used_links(&healthy);
        let mut m = fail(&healthy, &[l1]);
        // Build every product of the first failure, rows included.
        let n = m.num_terminal_routers() as u32;
        let cache = m.route_cache().unwrap();
        for r in 0..n {
            cache.row_from(m.topology(), r);
            cache.row_to(m.topology(), r);
        }
        m.restore_link(l1);
        m.degrade_link(l2, 0.0);
        let r = build_masked(m.topology(), &factors(&m, &[l2]), |_| true);
        assert_all_pairs_match(&format!("{label}, {l1} then {l2}"), &m, &r);
    }
}

#[test]
fn hopper_masked_products_match_on_sampled_pairs() {
    let healthy = MachineConfig::hopper().build();
    let [l1, _] = used_links(&healthy);
    let m = fail(&healthy, &[l1]);
    let n = m.num_terminal_routers() as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(0x3A5C);
    let sources: Vec<u32> = (0..12).map(|_| rng.gen_range(0..n)).collect();
    let r = build_masked(m.topology(), &factors(&m, &[l1]), |s| sources.contains(&s));
    let topo = m.topology();
    let oracle = m.oracle().unwrap();
    for a in 0..n {
        let row = &r.table[a as usize * r.n..(a as usize + 1) * r.n];
        assert_eq!(oracle.row(a), row, "Hopper oracle row {a}");
    }
    let cache = m.route_cache().unwrap();
    for &a in &sources {
        let from = cache.row_from(topo, a);
        for b in 0..n {
            assert_eq!(from.route(b), r.row_from(a).route(b), "Hopper {a}->{b}");
        }
        for _ in 0..8 {
            let b = rng.gen_range(0..n);
            // The reference's reverse rows are the forward rows' transpose.
            assert_eq!(
                cache.row_to(topo, b).route(a),
                r.row_from(a).route(b),
                "Hopper {a}->{b} (row_to)"
            );
        }
    }
}

#[test]
fn masked_rows_build_on_demand() {
    let mut m = MachineConfig::hopper().build();
    let [l1, _] = used_links(&m);
    m.degrade_link(l1, 0.0);
    let cache = m
        .route_cache()
        .expect("masked cache is built under failures");
    assert_eq!(cache.built_rows(), 0, "a hard failure builds no route row");
    let alloc = Allocation::generate(&m, &AllocSpec::sparse(32, 5));
    let tg = TaskGraph::from_messages(
        256,
        (0..256u32).flat_map(|i| [(i, (i + 1) % 256, 4.0), (i, (i + 9) % 256, 1.0)]),
        None,
    );
    map_tasks(
        &tg,
        &m,
        &alloc,
        MapperKind::GreedyMc,
        &PipelineConfig::default(),
    );
    let mut routers: Vec<u32> = alloc.nodes().iter().map(|&v| m.router_of(v)).collect();
    routers.sort_unstable();
    routers.dedup();
    // Congestion refinement builds both rows of every allocated router
    // and nothing else.
    assert_eq!(cache.built_rows(), 2 * routers.len());
    assert!(
        cache.size_bytes() < 32 << 20,
        "{} bytes of masked rows",
        cache.size_bytes()
    );
}
