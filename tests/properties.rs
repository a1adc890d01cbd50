//! Property-based tests of the paper's structural invariants.
//!
//! `proptest` is unavailable offline, so each property is exercised over
//! a deterministic family of randomized cases drawn from the workspace's
//! seeded ChaCha8 generator — same invariants, reproducible inputs.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use umpa::core::greedy::{greedy_map, weighted_hops, GreedyConfig};
use umpa::core::mapping::validate_mapping;
use umpa::core::wh_refine::{wh_refine, WhRefineConfig};
use umpa::prelude::*;
use umpa::topology::routing;

/// Random torus dims (2–3 dims, extents 2–6).
fn torus_dims(rng: &mut ChaCha8Rng) -> Vec<u32> {
    let ndims = rng.gen_range(2..=3usize);
    (0..ndims).map(|_| rng.gen_range(2..=6u32)).collect()
}

/// A random directed message list over `n` tasks (1..40 messages).
fn messages(rng: &mut ChaCha8Rng, n: u32) -> Vec<(u32, u32, f64)> {
    let m = rng.gen_range(1..40usize);
    (0..m)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                f64::from(rng.gen_range(1..100u32)),
            )
        })
        .collect()
}

#[test]
fn route_length_equals_o1_distance() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11CE);
    for _ in 0..64 {
        let dims = torus_dims(&mut rng);
        let t = Torus::new(&dims);
        let n = t.num_routers() as u32;
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        // The walk is contiguous, ends at b, and takes distance(a, b)
        // hops.
        let (mut cur, mut hops) = (a, 0);
        routing::walk(&t, a, b, |from, to, d, positive| {
            assert_eq!(from, cur);
            assert_eq!(to, t.neighbor(cur, d, positive));
            cur = to;
            hops += 1;
        });
        assert_eq!(hops, t.distance(a, b));
        assert_eq!(cur, b);
    }
}

/// Machines of every backend family for a sweep iteration: wraparound
/// torus, mesh, fat-tree, dragonfly.
fn backend_machines(rng: &mut ChaCha8Rng) -> Vec<Machine> {
    let dims = torus_dims(rng);
    let k = 2 * rng.gen_range(1..=3u32); // 2, 4 or 6
    let g = rng.gen_range(2..=5u32);
    let a = rng.gen_range(1..=4u32);
    let mut df = DragonflyConfig::small(g, a, 1);
    df.procs_per_node = 2;
    vec![
        MachineConfig::small(&dims, 1, 2).build(),
        MachineConfig::small_mesh(&dims, 1, 2).build(),
        FatTreeConfig::small(k, 1, 2).build(),
        df.build(),
    ]
}

#[test]
fn route_invariants_hold_on_every_backend_and_link_mode() {
    // For every backend x wraparound: route length equals the O(1)
    // distance, the channels decoded with `for_each_link`'s endpoints
    // form a contiguous router path from a to b (every hop adjacent in
    // the CSR router graph), and every channel id lies in the exact id
    // space.
    let mut rng = ChaCha8Rng::seed_from_u64(0x70B0);
    for case in 0..24 {
        for m in backend_machines(&mut rng) {
            let topo = m.topology();
            let nt = topo.num_terminal_routers() as u32;
            let mut ends = vec![(0, 0); topo.num_physical_links()];
            topo.for_each_link(|l, u, v, _| ends[l as usize] = (u, v));
            let g = m.router_graph();
            let nl = m.num_links() as u32;
            let mut links = Vec::new();
            for _ in 0..32 {
                let a = rng.gen_range(0..nt);
                let b = rng.gen_range(0..nt);
                links.clear();
                topo.route_links(a, b, &mut links);
                let ctx = || format!("case {case} {} {a}->{b}", topo.summary());
                assert_eq!(links.len() as u32, topo.distance(a, b), "{}", ctx());
                assert!(links.iter().all(|&c| c < nl), "{}", ctx());
                let mut cur = a;
                for &c in &links {
                    let l = Topology::channel_link(c);
                    let (u, v) = ends[l as usize];
                    let (from, to) = if c == Topology::channel(l, false) {
                        (u, v)
                    } else {
                        (v, u)
                    };
                    assert_eq!(from, cur, "{}: channel {c}", ctx());
                    assert!(
                        g.neighbors(from).contains(&to),
                        "{}: hop {from}->{to} not adjacent",
                        ctx()
                    );
                    cur = to;
                }
                assert_eq!(cur, b, "{}", ctx());
            }
        }
    }
}

#[test]
fn metric_identities_hold_on_every_backend_and_link_mode() {
    // TH = Σ_e Congestion(e) and WH = Σ_e VC(e)·bw(e) on random
    // mappings, for every backend.
    let mut rng = ChaCha8Rng::seed_from_u64(0x1DE47);
    for case in 0..16 {
        for m in backend_machines(&mut rng) {
            let n_tasks = 12u32;
            let msgs = messages(&mut rng, n_tasks);
            let tg = TaskGraph::from_messages(n_tasks as usize, msgs, None);
            let nodes = (n_tasks as usize).div_ceil(2).min(m.num_nodes());
            let alloc = Allocation::generate(&m, &AllocSpec::contiguous(nodes));
            // Random feasible mapping: 2 procs per node.
            let mut slots: Vec<u32> = (0..n_tasks).map(|t| t % nodes as u32).collect();
            slots.shuffle(&mut rng);
            let mapping: Vec<u32> = slots.iter().map(|&s| alloc.node(s as usize)).collect();
            let r = evaluate(&tg, &m, &mapping);
            let ctx = || format!("case {case} {}", m.topology().summary());
            let th_sum: f64 = r.msg_congestion.iter().sum();
            assert!((r.th - th_sum).abs() < 1e-9, "{}: TH identity", ctx());
            // WH = Σ_e VC(e)·bw(e), with VC recomputed from MC's own
            // definition (max over per-link VC) so the bandwidth lookup
            // is load-bearing — a wrong channel→physical-link mapping
            // would break the MC cross-check below, not cancel out.
            let wh_sum: f64 = r.vol_traffic.iter().sum();
            assert!(
                (r.wh - wh_sum).abs() < 1e-9 * (1.0 + r.wh),
                "{}: WH identity",
                ctx()
            );
            let mc_hand = (0..m.num_links() as u32)
                .map(|l| r.vol_traffic[l as usize] / m.link_bandwidth(l))
                .fold(0.0f64, f64::max);
            assert!(
                (r.mc - mc_hand).abs() < 1e-9 * (1.0 + r.mc),
                "{}: MC from per-link VC",
                ctx()
            );
            // Directed channels inherit their physical link's
            // bandwidth: both directions must agree.
            for l in 0..m.topology().num_physical_links() as u32 {
                assert_eq!(
                    m.link_bandwidth(Topology::channel(l, false)).to_bits(),
                    m.link_bandwidth(Topology::channel(l, true)).to_bits(),
                    "{}: channel pair {l}",
                    ctx()
                );
            }
        }
    }
}

#[test]
fn torus_distance_is_a_metric() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0B);
    for _ in 0..64 {
        let dims = torus_dims(&mut rng);
        let t = Torus::new(&dims);
        let n = t.num_routers() as u32;
        let (x, y, z) = (
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(0..n),
        );
        assert_eq!(t.distance(x, y), t.distance(y, x));
        assert_eq!(t.distance(x, x), 0);
        assert!(t.distance(x, z) <= t.distance(x, y) + t.distance(y, z));
    }
}

#[test]
fn th_equals_sum_of_link_congestion() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    for _ in 0..64 {
        let msgs = messages(&mut rng, 12);
        let machine = MachineConfig::small(&[3, 3, 3], 1, 2).build();
        let alloc = Allocation::generate(&machine, &AllocSpec::contiguous(6));
        let tg = TaskGraph::from_messages(12, msgs, None);
        let mapping: Vec<u32> = (0..12).map(|t| alloc.node(t % 6)).collect();
        let m = evaluate(&tg, &machine, &mapping);
        let sum: f64 = m.msg_congestion.iter().sum();
        assert!((m.th - sum).abs() < 1e-9);
        // And WH = Σ_e traffic(e) with unit bandwidths.
        let vsum: f64 = m.vol_traffic.iter().sum();
        assert!((m.wh - vsum).abs() < 1e-9);
    }
}

#[test]
fn greedy_mapping_is_always_feasible() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD00D);
    for case in 0..64 {
        let msgs = messages(&mut rng, 10);
        let seed = rng.gen_range(0..20u64);
        let machine = MachineConfig::small(&[4, 4], 1, 2).build();
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(5, seed));
        let tg = TaskGraph::from_messages(10, msgs, None);
        let mapping = greedy_map(&tg, &machine, &alloc, &GreedyConfig::default());
        assert!(
            validate_mapping(&tg, &alloc, &mapping).is_ok(),
            "case {case}"
        );
    }
}

#[test]
fn wh_refinement_is_monotone() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE5);
    for case in 0..64 {
        let msgs = messages(&mut rng, 8);
        let seed = rng.gen_range(0..10u64);
        let machine = MachineConfig::small(&[4, 4], 1, 1).build();
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, seed));
        let tg = TaskGraph::from_messages(8, msgs, None);
        let mut mapping: Vec<u32> = (0..8).map(|t| alloc.node(t)).collect();
        let before = weighted_hops(&tg, &machine, &mapping);
        let after = wh_refine(
            &tg,
            &machine,
            &alloc,
            &mut mapping,
            &WhRefineConfig::default(),
        );
        assert!(after <= before + 1e-9, "case {case}");
        assert!((weighted_hops(&tg, &machine, &mapping) - after).abs() < 1e-6);
        assert!(validate_mapping(&tg, &alloc, &mapping).is_ok());
    }
}

#[test]
fn congestion_refinement_never_worsens_mc() {
    use umpa::core::cong_refine::{congestion_refine, CongRefineConfig};
    let mut rng = ChaCha8Rng::seed_from_u64(0xF00);
    for case in 0..64 {
        let msgs = messages(&mut rng, 8);
        let seed = rng.gen_range(0..10u64);
        let machine = MachineConfig::small(&[4, 4], 1, 1).build();
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, seed));
        let tg = TaskGraph::from_messages(8, msgs, None);
        let mut mapping: Vec<u32> = (0..8).map(|t| alloc.node(t)).collect();
        let before = evaluate(&tg, &machine, &mapping).mc;
        let (mc, _) = congestion_refine(
            &tg,
            &machine,
            &alloc,
            &mut mapping,
            &CongRefineConfig::volume(),
        );
        let after = evaluate(&tg, &machine, &mapping).mc;
        assert!(after <= before + 1e-9, "case {case}");
        assert!(
            (after - mc).abs() < 1e-9,
            "case {case}: internal state drifted: {after} vs {mc}"
        );
    }
}

#[test]
fn allocations_are_valid_subsets() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFACE);
    for _ in 0..64 {
        let seed = rng.gen_range(0..50u64);
        let n = rng.gen_range(2..30usize);
        let machine = MachineConfig::small(&[4, 4, 4], 2, 4).build();
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(n, seed));
        assert_eq!(alloc.num_nodes(), n);
        let mut seen = std::collections::HashSet::new();
        for &node in alloc.nodes() {
            assert!((node as usize) < machine.num_nodes());
            assert!(seen.insert(node));
        }
    }
}

#[test]
fn partitioner_respects_part_count() {
    use umpa::matgen::gen::{stencil2d, Stencil2D};
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF);
    for _ in 0..12 {
        let nx = rng.gen_range(6..14usize);
        let k = rng.gen_range(2..9usize);
        let a = stencil2d(nx, nx, Stencil2D::FivePoint);
        let part = PartitionerKind::Patoh.partition_matrix(&a, k, 5);
        assert_eq!(part.len(), nx * nx);
        assert!(part.iter().all(|&p| (p as usize) < k));
        // No part is empty (matrices here are connected and large enough).
        let mut counts = vec![0usize; k];
        for &p in &part {
            counts[p as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0));
    }
}

#[test]
fn quotient_graph_conserves_cross_volume() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDEAD);
    for _ in 0..64 {
        let msgs = messages(&mut rng, 12);
        let tg = TaskGraph::from_messages(12, msgs, None);
        // Arbitrary grouping into 4 groups.
        let groups: Vec<u32> = (0..12u32).map(|t| t % 4).collect();
        let q = tg.group_quotient(&groups, 4, false);
        let cross: f64 = tg
            .messages()
            .filter(|(s, t, _)| groups[*s as usize] != groups[*t as usize])
            .map(|(_, _, v)| v)
            .sum();
        assert!((q.total_volume() - cross).abs() < 1e-9);
    }
}
