//! Recursive bisection to `k` parts with per-part target weights.
//!
//! The mapping pipeline needs target weights because "the target part
//! weights are the number of available processors on each node"
//! (Section III-A) — which may be non-uniform. Targets are split between
//! the two recursion branches proportionally, and each branch works on
//! the induced subgraph.

use umpa_graph::Graph;

use crate::bisect::multilevel_bisect;

/// Multilevel partitioner settings. [`recursive_bisection`] takes them
/// whole and runs each split's [`multilevel_bisect`] on a copy whose
/// seed is derived from `seed` and the split's place in the recursion.
#[derive(Clone, Copy, Debug)]
pub struct MlConfig {
    /// Allowed relative overload per part (of either side, in one
    /// bisection).
    pub epsilon: f64,
    /// Greedy-graph-growing restarts at the coarsest level.
    pub init_trials: u32,
    /// FM passes per uncoarsening level.
    pub fm_passes: u32,
    /// Coarsest-graph size.
    pub coarsen_to: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MlConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.05,
            init_trials: 4,
            fm_passes: 4,
            coarsen_to: 96,
            seed: 1,
        }
    }
}

/// Partitions `g` into `targets.len()` parts; `part[v]` indexes
/// `targets`. Parts correspond to contiguous target ranges, so part `i`
/// aims at weight `targets[i]`.
pub fn recursive_bisection(g: &Graph, targets: &[f64], cfg: &MlConfig) -> Vec<u32> {
    let k = targets.len();
    assert!(k >= 1, "need at least one part");
    let mut part = vec![0u32; g.num_vertices()];
    if k == 1 {
        return part;
    }
    let vertices: Vec<u32> = (0..g.num_vertices() as u32).collect();
    split(g, &vertices, targets, 0, cfg, 1, &mut part);
    part
}

/// Recursively splits `vertices` (a subset of `g`) across
/// `targets[first_part..first_part + targets.len()]`.
fn split(
    g: &Graph,
    vertices: &[u32],
    targets: &[f64],
    first_part: u32,
    cfg: &MlConfig,
    node_id: u64,
    part: &mut [u32],
) {
    let k = targets.len();
    if k == 1 {
        for &v in vertices {
            part[v as usize] = first_part;
        }
        return;
    }
    // Degenerate branch: no more vertices than parts (deep recursion on
    // heavily imbalanced graphs). Hand each vertex its own part.
    if vertices.len() <= k {
        for (i, &v) in vertices.iter().enumerate() {
            part[v as usize] = first_part + (i.min(k - 1)) as u32;
        }
        return;
    }
    let k_left = k / 2;
    let target_left: f64 = targets[..k_left].iter().sum();
    let sub = g.induced_subgraph(vertices);
    // Scale the left target to this subgraph's actual weight: upstream
    // imbalance must not compound downstream.
    let frac = target_left / targets.iter().sum::<f64>();
    let local_target_left = sub.total_vertex_weight() * frac;
    let split_cfg = MlConfig {
        seed: cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(node_id),
        ..*cfg
    };
    let side = multilevel_bisect(&sub, local_target_left, &split_cfg);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, &v) in vertices.iter().enumerate() {
        if side[i] == 0 {
            left.push(v);
        } else {
            right.push(v);
        }
    }
    // A degenerate empty side (tiny subgraphs) would lose parts; steal
    // one vertex to keep every part nonempty when possible.
    if left.is_empty() && !right.is_empty() {
        left.push(right.pop().unwrap());
    } else if right.is_empty() && !left.is_empty() {
        right.push(left.pop().unwrap());
    }
    split(
        g,
        &left,
        &targets[..k_left],
        first_part,
        cfg,
        node_id * 2,
        part,
    );
    split(
        g,
        &right,
        &targets[k_left..],
        first_part + k_left as u32,
        cfg,
        node_id * 2 + 1,
        part,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, imbalance, part_weights, uniform_targets};
    use umpa_graph::GraphBuilder;

    fn grid(nx: usize, ny: usize) -> Graph {
        let mut b = GraphBuilder::new(nx * ny);
        let idx = |x: usize, y: usize| (y * nx + x) as u32;
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    b.add_edge(idx(x, y), idx(x + 1, y), 1.0);
                }
                if y + 1 < ny {
                    b.add_edge(idx(x, y), idx(x, y + 1), 1.0);
                }
            }
        }
        b.build_symmetric()
    }

    #[test]
    fn four_way_grid_partition_is_balanced() {
        let g = grid(16, 16);
        let targets = uniform_targets(&g, 4);
        let part = recursive_bisection(&g, &targets, &MlConfig::default());
        assert_eq!(*part.iter().max().unwrap(), 3);
        let imb = imbalance(&g, &part, &targets);
        assert!(imb <= 0.12, "imbalance {imb}");
        let cut = edge_cut(&g, &part);
        assert!(cut <= 2.5 * 32.0, "cut {cut} too far from optimal ~32");
    }

    #[test]
    fn respects_nonuniform_targets() {
        let g = grid(12, 12); // weight 144
        let targets = vec![72.0, 36.0, 36.0];
        let part = recursive_bisection(&g, &targets, &MlConfig::default());
        let w = part_weights(&g, &part, 3);
        assert!((w[0] - 72.0).abs() <= 10.0, "w0={}", w[0]);
        assert!((w[1] - 36.0).abs() <= 8.0, "w1={}", w[1]);
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = grid(4, 4);
        let part = recursive_bisection(&g, &[16.0], &MlConfig::default());
        assert!(part.iter().all(|&p| p == 0));
    }

    #[test]
    fn many_parts_all_nonempty() {
        let g = grid(16, 16);
        let targets = uniform_targets(&g, 16);
        let part = recursive_bisection(&g, &targets, &MlConfig::default());
        let w = part_weights(&g, &part, 16);
        assert!(w.iter().all(|&x| x > 0.0), "empty part: {w:?}");
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        let mut b = GraphBuilder::new(8);
        for i in 0..7u32 {
            b.add_edge(i, i + 1, 1.0);
        }
        // One heavy vertex.
        b.vertex_weights(vec![7.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let g = b.build_symmetric();
        let targets = vec![7.0, 7.0];
        let part = recursive_bisection(&g, &targets, &MlConfig::default());
        let w = part_weights(&g, &part, 2);
        assert!(
            (w[0] - 7.0).abs() <= 1.5 && (w[1] - 7.0).abs() <= 1.5,
            "{w:?}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid(10, 10);
        let t = uniform_targets(&g, 8);
        let cfg = MlConfig {
            seed: 42,
            ..MlConfig::default()
        };
        assert_eq!(
            recursive_bisection(&g, &t, &cfg),
            recursive_bisection(&g, &t, &cfg)
        );
    }
}
