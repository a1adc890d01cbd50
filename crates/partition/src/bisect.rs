//! Graph bisection: greedy graph growing + Fiduccia–Mattheyses
//! refinement, wrapped in a multilevel V-cycle.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use umpa_ds::IndexedMaxHeap;
use umpa_graph::Graph;

use crate::coarsen::coarsen_until;
use crate::recursive::MlConfig;

/// Side weights of a bisection.
fn side_weights(g: &Graph, side: &[u8]) -> (f64, f64) {
    let mut wl = 0.0;
    let mut wr = 0.0;
    for (v, &s) in side.iter().enumerate() {
        if s == 0 {
            wl += g.vertex_weight(v as u32);
        } else {
            wr += g.vertex_weight(v as u32);
        }
    }
    (wl, wr)
}

/// Cut weight of a bisection (undirected edges counted once).
pub fn bisection_cut(g: &Graph, side: &[u8]) -> f64 {
    let mut cut = 0.0;
    for (u, v, w) in g.all_edges() {
        if side[u as usize] != side[v as usize] {
            cut += w;
        }
    }
    cut / 2.0
}

/// Greedy graph growing: grows side 0 from a seed vertex by maximum
/// connectivity until it reaches `target_left` weight.
fn grow_from(g: &Graph, seed_vertex: u32, target_left: f64) -> Vec<u8> {
    let n = g.num_vertices();
    let mut side = vec![1u8; n];
    let mut conn = IndexedMaxHeap::new(n);
    let mut weight = 0.0;
    let mut grown = 0usize;
    let mut cursor = seed_vertex;
    loop {
        // Bring `cursor` into side 0.
        side[cursor as usize] = 0;
        weight += g.vertex_weight(cursor);
        grown += 1;
        conn.remove(cursor);
        if weight >= target_left || grown == n {
            break;
        }
        for (u, w) in g.edges(cursor) {
            if side[u as usize] == 1 {
                conn.add_to_key(u, w);
            }
        }
        cursor = match conn.pop() {
            Some((u, _)) => u,
            None => {
                // Disconnected: jump to the heaviest-degree unreached vertex.
                match (0..n as u32)
                    .filter(|&u| side[u as usize] == 1)
                    .max_by(|&a, &b| {
                        g.weighted_degree(a)
                            .partial_cmp(&g.weighted_degree(b))
                            .unwrap()
                            .then(b.cmp(&a))
                    }) {
                    Some(u) => u,
                    None => break,
                }
            }
        };
    }
    side
}

/// Initial bisection: best-of-`trials` greedy growths from random seeds.
pub fn initial_bisection(g: &Graph, target_left: f64, trials: u32, seed: u64) -> Vec<u8> {
    let n = g.num_vertices();
    assert!(n >= 2, "cannot bisect fewer than two vertices");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut best: Option<(f64, Vec<u8>)> = None;
    for _ in 0..trials.max(1) {
        let s = rng.gen_range(0..n as u32);
        let side = grow_from(g, s, target_left);
        let cut = bisection_cut(g, &side);
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, side));
        }
    }
    best.unwrap().1
}

/// One FM refinement run (up to `max_passes` passes) on a bisection.
///
/// Moves are accepted while either side stays within `(1+epsilon)` of
/// its target; each pass moves greedily (allowing negative gains),
/// records the best feasible prefix and rolls back the rest — the
/// classic hill-climbing that lets FM escape local minima. Returns the
/// final cut.
pub fn fm_refine(
    g: &Graph,
    side: &mut [u8],
    target_left: f64,
    target_right: f64,
    epsilon: f64,
    max_passes: u32,
) -> f64 {
    let n = g.num_vertices();
    let limit_l = target_left * (1.0 + epsilon);
    let limit_r = target_right * (1.0 + epsilon);
    // States are ranked by (overload, cut), lexicographically: a balanced
    // partition always beats an unbalanced one, so FM can start from an
    // infeasible projection and walk it feasible even at a cut cost.
    let overload = |wl: f64, wr: f64| (wl - limit_l).max(0.0) + (wr - limit_r).max(0.0);
    let mut cut = bisection_cut(g, side);
    for _ in 0..max_passes {
        let (mut wl, mut wr) = side_weights(g, side);
        // Gains: external − internal edge weight.
        let mut gain = vec![0.0f64; n];
        for (u, v, w) in g.all_edges() {
            if side[u as usize] != side[v as usize] {
                gain[u as usize] += w;
            } else {
                gain[u as usize] -= w;
            }
        }
        let mut heaps = [IndexedMaxHeap::new(n), IndexedMaxHeap::new(n)];
        for v in 0..n as u32 {
            heaps[side[v as usize] as usize].push(v, gain[v as usize]);
        }
        let mut locked = vec![false; n];
        let mut moves: Vec<u32> = Vec::new();
        let mut best_prefix = 0usize;
        let mut running = cut;
        let mut best = (overload(wl, wr), cut);
        loop {
            // Candidate from each side. A receiving side may exceed its
            // limit only while the sending side is itself overloaded
            // (rebalancing an infeasible projection).
            let pick = |h: &IndexedMaxHeap, from: u8, wl: f64, wr: f64| -> Option<(u32, f64)> {
                let (v, gkey) = h.peek()?;
                let vw = g.vertex_weight(v);
                let ok = if from == 0 {
                    wr + vw <= limit_r || wl > limit_l
                } else {
                    wl + vw <= limit_l || wr > limit_r
                };
                ok.then_some((v, gkey))
            };
            let c0 = pick(&heaps[0], 0, wl, wr);
            let c1 = pick(&heaps[1], 1, wl, wr);
            let (v, from) = match (c0, c1) {
                (None, None) => break,
                (Some((v, _)), None) => (v, 0u8),
                (None, Some((v, _))) => (v, 1u8),
                (Some((v0, g0)), Some((v1, g1))) => {
                    // Higher gain; ties → relieve the more loaded side.
                    if g0 > g1 || (g0 == g1 && wl / target_left >= wr / target_right) {
                        (v0, 0)
                    } else {
                        (v1, 1)
                    }
                }
            };
            let to = 1 - from;
            heaps[from as usize].remove(v);
            locked[v as usize] = true;
            running -= gain[v as usize];
            let vw = g.vertex_weight(v);
            if from == 0 {
                wl -= vw;
                wr += vw;
            } else {
                wr -= vw;
                wl += vw;
            }
            side[v as usize] = to;
            moves.push(v);
            // Update neighbor gains.
            for (u, w) in g.edges(v) {
                if locked[u as usize] {
                    continue;
                }
                let delta = if side[u as usize] == to {
                    -2.0 * w
                } else {
                    2.0 * w
                };
                gain[u as usize] += delta;
                let h = &mut heaps[side[u as usize] as usize];
                if h.contains(u) {
                    h.change_key(u, gain[u as usize]);
                }
            }
            let state = (overload(wl, wr), running);
            if state.0 < best.0 - 1e-12 || (state.0 <= best.0 + 1e-12 && state.1 < best.1 - 1e-12) {
                best = state;
                best_prefix = moves.len();
            }
        }
        // Roll back moves after the best prefix.
        for &v in moves.iter().skip(best_prefix) {
            side[v as usize] = 1 - side[v as usize];
        }
        if best_prefix == 0 {
            break;
        }
        cut = best.1;
    }
    cut
}

/// Multilevel bisection: coarsen, grow, refine while uncoarsening.
///
/// `target_left` is the desired total vertex weight of side 0; `cfg`
/// bounds the overload of either side and seeds the coarsening and the
/// growing trials.
pub fn multilevel_bisect(g: &Graph, target_left: f64, cfg: &MlConfig) -> Vec<u8> {
    let total = g.total_vertex_weight();
    let target_right = total - target_left;
    let levels = coarsen_until(g, cfg.coarsen_to, cfg.seed);
    let coarsest = levels.last().map(|l| &l.graph).unwrap_or(g);
    let mut side = initial_bisection(coarsest, target_left, cfg.init_trials, cfg.seed);
    fm_refine(
        coarsest,
        &mut side,
        target_left,
        target_right,
        cfg.epsilon,
        cfg.fm_passes,
    );
    // Project back through the levels, refining at each.
    for i in (0..levels.len()).rev() {
        let finer = if i == 0 { g } else { &levels[i - 1].graph };
        let map = &levels[i].map;
        let mut fine_side = vec![0u8; finer.num_vertices()];
        for v in 0..finer.num_vertices() {
            fine_side[v] = side[map[v] as usize];
        }
        side = fine_side;
        fm_refine(
            finer,
            &mut side,
            target_left,
            target_right,
            cfg.epsilon,
            cfg.fm_passes,
        );
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn grow_reaches_target_weight() {
        let g = grid(8, 8);
        let side = grow_from(&g, 0, 32.0);
        let (wl, wr) = side_weights(&g, &side);
        assert_eq!(wl, 32.0);
        assert_eq!(wr, 32.0);
    }

    #[test]
    fn fm_improves_a_bad_bisection() {
        let g = grid(8, 8);
        // Interleaved columns: terrible cut.
        let mut side: Vec<u8> = (0..64).map(|i| ((i % 8) % 2) as u8).collect();
        let before = bisection_cut(&g, &side);
        let after = fm_refine(&g, &mut side, 32.0, 32.0, 0.05, 8);
        assert!(after < before, "FM failed: {before} -> {after}");
        assert!((bisection_cut(&g, &side) - after).abs() < 1e-9);
        let (wl, wr) = side_weights(&g, &side);
        assert!(wl <= 32.0 * 1.05 && wr <= 32.0 * 1.05);
    }

    #[test]
    fn fm_never_worsens() {
        let g = grid(6, 6);
        for seed in 0..5u64 {
            let mut side = initial_bisection(&g, 18.0, 1, seed);
            let before = bisection_cut(&g, &side);
            let after = fm_refine(&g, &mut side, 18.0, 18.0, 0.05, 4);
            assert!(after <= before + 1e-9);
        }
    }

    #[test]
    fn multilevel_finds_near_optimal_grid_cut() {
        // An 16x8 grid split in half has an optimal cut of 8.
        let g = grid(16, 8);
        let cfg = MlConfig {
            seed: 3,
            ..MlConfig::default()
        };
        let side = multilevel_bisect(&g, 64.0, &cfg);
        let cut = bisection_cut(&g, &side);
        let (wl, wr) = side_weights(&g, &side);
        assert!(wl <= 64.0 * 1.05 && wr <= 64.0 * 1.05, "wl={wl} wr={wr}");
        assert!(cut <= 12.0, "cut too high: {cut}");
    }

    #[test]
    fn asymmetric_targets_respected() {
        let g = grid(10, 10);
        let cfg = MlConfig::default();
        let side = multilevel_bisect(&g, 25.0, &cfg);
        let (wl, _) = side_weights(&g, &side);
        assert!(
            (20.0..=31.0).contains(&wl),
            "side-0 weight {wl} far from target 25"
        );
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two 4x4 grids, no edges between them.
        let a = grid(4, 4);
        let mut b = GraphBuilder::new(32);
        for (u, v, w) in a.all_edges() {
            b.add_edge(u, v, w);
            b.add_edge(u + 16, v + 16, w);
        }
        let g = b.build_directed();
        let side = multilevel_bisect(&g, 16.0, &MlConfig::default());
        let (wl, wr) = side_weights(&g, &side);
        assert!((wl - 16.0).abs() <= 2.0, "wl={wl} wr={wr}");
    }
}
