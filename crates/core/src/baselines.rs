//! Baseline mappers: `DEF`, `TMAP`, `SMAP`.
//!
//! * [`def_mapping`] — Hopper's default SMP-STYLE placement: consecutive
//!   MPI ranks fill a node, nodes are taken in the allocation's
//!   placement-curve order (Section IV-B explains why this baseline is
//!   already decent: partitioners give nearby parts nearby ids and the
//!   curve keeps nearby nodes close);
//! * [`tmap_mapping`] — the best LibTopoMap variant per the paper:
//!   recursive bipartitioning of the task graph against a geometric
//!   bipartition of the allocated nodes. The paper-documented fallback
//!   ("if TMAP's MC value is not smaller than DEF's, it returns the DEF
//!   mapping") is applied by the pipeline, which has the fine-grain
//!   graph needed to compare;
//! * [`smap_mapping`] — Scotch-style dual recursive bipartitioning: the
//!   node set is split by a farthest-pair two-center rule (graph
//!   distance), the task set by min-cut bisection, and the halves are
//!   matched.

use crate::mapping::fits;
use umpa_graph::TaskGraph;
use umpa_partition::bisect::multilevel_bisect;
use umpa_partition::MlConfig;
use umpa_topology::{Allocation, Machine};

/// SMP-STYLE default placement: task `t` goes to the allocation slot
/// whose processor range contains rank `t`.
pub fn def_mapping(tg: &TaskGraph, alloc: &Allocation) -> Vec<u32> {
    let mut mapping = Vec::with_capacity(tg.num_tasks());
    let mut slot = 0usize;
    let mut free = f64::from(alloc.procs(0));
    for t in 0..tg.num_tasks() as u32 {
        let w = tg.task_weight(t);
        while !fits(free, w) {
            slot += 1;
            assert!(
                slot < alloc.num_nodes(),
                "allocation too small for the SMP-style fill"
            );
            free = f64::from(alloc.procs(slot));
        }
        free -= w;
        mapping.push(alloc.node(slot));
    }
    mapping
}

/// Grouping used by `DEF`: `group_of[t]` = allocation slot index of the
/// SMP-style fill (consecutive ranks per node).
pub fn def_groups(tg: &TaskGraph, alloc: &Allocation) -> Vec<u32> {
    let mapping = def_mapping(tg, alloc);
    mapping
        .iter()
        .map(|&node| alloc.slot_of(node).unwrap())
        .collect()
}

/// How a dual-recursive-bipartitioning baseline splits the node set.
#[derive(Clone, Copy, Debug)]
enum NodeSplit {
    /// Median cut along the torus dimension with the widest coordinate
    /// spread (LibTopoMap-style geometric recursion).
    Geometric,
    /// Farthest-pair two-center split by hop distance (Scotch-style
    /// architecture bipartition).
    TwoCenter,
}

/// LibTopoMap-like mapping (recursive graph bipartitioning variant).
pub fn tmap_mapping(tg: &TaskGraph, machine: &Machine, alloc: &Allocation, seed: u64) -> Vec<u32> {
    dual_recursive(tg, machine, alloc, NodeSplit::Geometric, seed)
}

/// Scotch-like dual recursive bipartitioning mapping.
pub fn smap_mapping(tg: &TaskGraph, machine: &Machine, alloc: &Allocation, seed: u64) -> Vec<u32> {
    dual_recursive(tg, machine, alloc, NodeSplit::TwoCenter, seed)
}

fn dual_recursive(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    split: NodeSplit,
    seed: u64,
) -> Vec<u32> {
    let mut mapping = vec![u32::MAX; tg.num_tasks()];
    let tasks: Vec<u32> = (0..tg.num_tasks() as u32).collect();
    let slots: Vec<u32> = (0..alloc.num_nodes() as u32).collect();
    recurse(
        tg,
        machine,
        alloc,
        split,
        seed,
        tasks,
        slots,
        &mut mapping,
        1,
    );
    debug_assert!(mapping.iter().all(|&n| n != u32::MAX));
    mapping
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    split: NodeSplit,
    seed: u64,
    tasks: Vec<u32>,
    slots: Vec<u32>,
    mapping: &mut [u32],
    depth_id: u64,
) {
    if tasks.is_empty() {
        return;
    }
    if slots.len() == 1 {
        let node = alloc.node(slots[0] as usize);
        for t in tasks {
            mapping[t as usize] = node;
        }
        return;
    }
    // -- Split the node set.
    let (s1, s2) = match split {
        NodeSplit::Geometric => geometric_split(machine, alloc, &slots),
        NodeSplit::TwoCenter => two_center_split(machine, alloc, &slots),
    };
    let cap = |ss: &[u32]| -> f64 { ss.iter().map(|&s| f64::from(alloc.procs(s as usize))).sum() };
    let (cap1, cap2) = (cap(&s1), cap(&s2));
    // -- Split the task set proportionally by min-cut bisection.
    let sub = tg.symmetric().induced_subgraph(&tasks);
    let total_w = sub.total_vertex_weight();
    let target_left = total_w * cap1 / (cap1 + cap2);
    let cfg = MlConfig {
        epsilon: 0.02,
        seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(depth_id),
        ..MlConfig::default()
    };
    let mut side = multilevel_bisect(&sub, target_left, &cfg);
    enforce_capacity(&sub, &mut side, cap1, cap2);
    let mut t1 = Vec::new();
    let mut t2 = Vec::new();
    for (i, &t) in tasks.iter().enumerate() {
        if side[i] == 0 {
            t1.push(t);
        } else {
            t2.push(t);
        }
    }
    recurse(
        tg,
        machine,
        alloc,
        split,
        seed,
        t1,
        s1,
        mapping,
        depth_id * 2,
    );
    recurse(
        tg,
        machine,
        alloc,
        split,
        seed,
        t2,
        s2,
        mapping,
        depth_id * 2 + 1,
    );
}

/// Forces the bisection under the hard capacities by migrating the
/// least-connected vertices of the overloaded side.
fn enforce_capacity(sub: &umpa_graph::Graph, side: &mut [u8], cap1: f64, cap2: f64) {
    loop {
        let mut w = [0.0f64; 2];
        for (i, &s) in side.iter().enumerate() {
            w[s as usize] += sub.vertex_weight(i as u32);
        }
        let over = if !fits(cap1, w[0]) {
            0u8
        } else if !fits(cap2, w[1]) {
            1u8
        } else {
            break;
        };
        // Vertex of the overloaded side with the most attraction (or
        // least repulsion) toward the other side.
        let best = (0..side.len())
            .filter(|&i| side[i] == over)
            .max_by(|&a, &b| {
                let gain = |v: usize| -> f64 {
                    sub.edges(v as u32)
                        .map(|(n, wgt)| if side[n as usize] == over { -wgt } else { wgt })
                        .sum()
                };
                gain(a).partial_cmp(&gain(b)).unwrap().then(b.cmp(&a))
            })
            .expect("overloaded side cannot be empty");
        side[best] = 1 - over;
    }
}

/// Median cut along the coordinate with the widest spread. Coordinates
/// only exist on the torus backend; hierarchical topologies (fat-tree,
/// dragonfly) fall back to the distance-based two-center split, which
/// is how LibTopoMap degrades on non-grid machines too.
fn geometric_split(machine: &Machine, alloc: &Allocation, slots: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let Some(torus) = machine.torus() else {
        return two_center_split(machine, alloc, slots);
    };
    let nd = torus.ndims();
    let coord = |slot: u32, d: usize| torus.coord(machine.router_of(alloc.node(slot as usize)), d);
    // Spread per dimension (bounding box; wraparound ignored for the
    // emulation — LibTopoMap treats coordinates the same way).
    let mut best_dim = 0usize;
    let mut best_spread = 0u32;
    for d in 0..nd {
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        for &s in slots {
            let c = coord(s, d);
            lo = lo.min(c);
            hi = hi.max(c);
        }
        let spread = hi - lo;
        if spread > best_spread {
            best_spread = spread;
            best_dim = d;
        }
    }
    let mut order: Vec<u32> = slots.to_vec();
    order.sort_by_key(|&s| {
        let mut key = [0u32; 8];
        for (d, k) in key.iter_mut().take(nd).enumerate() {
            *k = coord(s, (best_dim + d) % nd);
        }
        (key, s)
    });
    split_by_capacity(alloc, order)
}

/// Farthest-pair two-center split.
fn two_center_split(machine: &Machine, alloc: &Allocation, slots: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let node = |s: u32| alloc.node(s as usize);
    let far_from = |a: u32| -> u32 {
        *slots
            .iter()
            .max_by_key(|&&s| (machine.hops(node(a), node(s)), std::cmp::Reverse(s)))
            .unwrap()
    };
    let c1 = far_from(slots[0]);
    let c2 = far_from(c1);
    let mut order: Vec<u32> = slots.to_vec();
    // Most c1-sided first: sorted by dist(c1) − dist(c2).
    order.sort_by_key(|&s| {
        let d1 = machine.hops(node(c1), node(s)) as i64;
        let d2 = machine.hops(node(c2), node(s)) as i64;
        (d1 - d2, s)
    });
    split_by_capacity(alloc, order)
}

/// Splits an ordered slot list at the capacity midpoint.
fn split_by_capacity(alloc: &Allocation, order: Vec<u32>) -> (Vec<u32>, Vec<u32>) {
    let total: f64 = order
        .iter()
        .map(|&s| f64::from(alloc.procs(s as usize)))
        .sum();
    let mut acc = 0.0;
    let mut cutpoint = order.len() / 2;
    for (i, &s) in order.iter().enumerate() {
        acc += f64::from(alloc.procs(s as usize));
        if acc >= total / 2.0 {
            cutpoint = (i + 1).min(order.len() - 1).max(1);
            break;
        }
    }
    let (a, b) = order.split_at(cutpoint);
    (a.to_vec(), b.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate_mapping;
    use umpa_topology::{AllocSpec, MachineConfig};

    fn setup(nodes: usize, procs: u32) -> (Machine, Allocation) {
        let m = MachineConfig::small(&[4, 4], 1, procs).build();
        let a = Allocation::generate(&m, &AllocSpec::sparse(nodes, 3));
        (m, a)
    }

    #[test]
    fn def_fills_slots_in_order() {
        let (_, alloc) = setup(4, 2);
        let tg = TaskGraph::from_messages(8, (0..7u32).map(|i| (i, i + 1, 1.0)), None);
        let mapping = def_mapping(&tg, &alloc);
        assert_eq!(mapping[0], alloc.node(0));
        assert_eq!(mapping[1], alloc.node(0));
        assert_eq!(mapping[2], alloc.node(1));
        assert_eq!(mapping[7], alloc.node(3));
        validate_mapping(&tg, &alloc, &mapping).unwrap();
    }

    #[test]
    fn def_groups_match_def_mapping() {
        let (_, alloc) = setup(4, 2);
        let tg = TaskGraph::from_messages(8, (0..7u32).map(|i| (i, i + 1, 1.0)), None);
        let groups = def_groups(&tg, &alloc);
        assert_eq!(groups, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn tmap_produces_valid_mappings() {
        let (m, alloc) = setup(8, 1);
        let tg = TaskGraph::from_messages(
            8,
            (0..8u32).map(|i| (i, (i + 1) % 8, 1.0 + f64::from(i % 2))),
            None,
        );
        let mapping = tmap_mapping(&tg, &m, &alloc, 5);
        validate_mapping(&tg, &alloc, &mapping).unwrap();
    }

    #[test]
    fn smap_produces_valid_mappings() {
        let (m, alloc) = setup(8, 1);
        let tg = TaskGraph::from_messages(8, (0..8u32).map(|i| (i, (i + 3) % 8, 1.0)), None);
        let mapping = smap_mapping(&tg, &m, &alloc, 5);
        validate_mapping(&tg, &alloc, &mapping).unwrap();
    }

    #[test]
    fn dual_rb_keeps_clusters_together() {
        // Two 4-cliques, 8 single-proc nodes: each clique should end on
        // 4 nodes forming one side of the recursion.
        let (m, alloc) = setup(8, 1);
        let mut msgs = Vec::new();
        for base in [0u32, 4] {
            for i in 0..4u32 {
                for j in (i + 1)..4 {
                    msgs.push((base + i, base + j, 10.0));
                }
            }
        }
        msgs.push((0, 4, 0.1)); // faint inter-cluster link
        let tg = TaskGraph::from_messages(8, msgs, None);
        let mapping = tmap_mapping(&tg, &m, &alloc, 1);
        validate_mapping(&tg, &alloc, &mapping).unwrap();
        // Check the top split separated the cliques: tasks 0-3 share a
        // side iff no task of 4-7 is on a node of that side's set.
        use std::collections::HashSet;
        let a: HashSet<u32> = (0..4).map(|t| mapping[t as usize]).collect();
        let b: HashSet<u32> = (4..8).map(|t| mapping[t as usize]).collect();
        assert!(a.is_disjoint(&b), "cliques interleaved: {a:?} vs {b:?}");
    }

    #[test]
    fn multi_task_nodes_respect_capacity() {
        let (m, alloc) = setup(4, 2);
        let tg = TaskGraph::from_messages(8, (0..8u32).map(|i| (i, (i + 1) % 8, 1.0)), None);
        for f in [tmap_mapping, smap_mapping] {
            let mapping = f(&tg, &m, &alloc, 2);
            validate_mapping(&tg, &alloc, &mapping).unwrap();
        }
    }

    #[test]
    fn geometric_split_separates_along_widest_dimension() {
        let m = MachineConfig::small(&[8, 2], 1, 1).build();
        let alloc = Allocation::generate(&m, &AllocSpec::contiguous(16));
        let slots: Vec<u32> = (0..16).collect();
        let (s1, s2) = geometric_split(&m, &alloc, &slots);
        assert_eq!(s1.len() + s2.len(), 16);
        // The x-extents of the two halves should barely overlap.
        let max_x1 = s1
            .iter()
            .map(|&s| {
                m.torus()
                    .unwrap()
                    .coord(m.router_of(alloc.node(s as usize)), 0)
            })
            .max()
            .unwrap();
        let min_x2 = s2
            .iter()
            .map(|&s| {
                m.torus()
                    .unwrap()
                    .coord(m.router_of(alloc.node(s as usize)), 0)
            })
            .min()
            .unwrap();
        assert!(
            max_x1 <= min_x2 + 1,
            "x ranges overlap: {max_x1} vs {min_x2}"
        );
    }
}
