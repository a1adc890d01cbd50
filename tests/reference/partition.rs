//! The phase-1 partitioner as it stands before its buffer-reuse
//! rewrite, preserved as the differential-testing reference for
//! `umpa_partition`.
//!
//! This is a verbatim copy of `recursive_bisection` and `split`,
//! `multilevel_bisect` and what it calls (the greedy-growing initial
//! bisection and FM refinement), `coarsen_until`, `coarsen_step_with`
//! and `heavy_edge_matching`, and `fix_balance`, with every name
//! suffixed `_reference`. Each split allocates its induced subgraph,
//! coarsening levels and FM state afresh. A rewrite that reuses buffers
//! must stay **bit-identical** to this one — same part vector, same
//! moved count — which `tests/partition_differential.rs` asserts.
//!
//! It lives in the test tree: only the differential test includes it.
//! It calls only public `umpa_graph` and `umpa_ds` items and the rand
//! shims; `MlConfig` is the partitioner's public settings type.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use umpa::ds::IndexedMaxHeap;
use umpa::graph::{Graph, GraphBuilder};
use umpa::partition::MlConfig;

// ---------------------------------------------------------------------------
// recursive.rs
// ---------------------------------------------------------------------------

fn bisect_cfg_reference(cfg: &MlConfig, depth_seed: u64) -> BisectConfigReference {
    BisectConfigReference {
        epsilon: cfg.epsilon,
        init_trials: cfg.init_trials,
        fm_passes: cfg.fm_passes,
        coarsen_to: cfg.coarsen_to,
        seed: cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(depth_seed),
    }
}

/// Partitions `g` into `targets.len()` parts; `part[v]` indexes
/// `targets`. Parts correspond to contiguous target ranges, so part `i`
/// aims at weight `targets[i]`.
pub fn recursive_bisection_reference(g: &Graph, targets: &[f64], cfg: &MlConfig) -> Vec<u32> {
    let k = targets.len();
    assert!(k >= 1, "need at least one part");
    let mut part = vec![0u32; g.num_vertices()];
    if k == 1 {
        return part;
    }
    let vertices: Vec<u32> = (0..g.num_vertices() as u32).collect();
    split_reference(g, &vertices, targets, 0, cfg, 1, &mut part);
    part
}

/// Recursively splits `vertices` (a subset of `g`) across
/// `targets[first_part..first_part + targets.len()]`.
fn split_reference(
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
    let side =
        multilevel_bisect_reference(&sub, local_target_left, &bisect_cfg_reference(cfg, node_id));
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
    split_reference(
        g,
        &left,
        &targets[..k_left],
        first_part,
        cfg,
        node_id * 2,
        part,
    );
    split_reference(
        g,
        &right,
        &targets[k_left..],
        first_part + k_left as u32,
        cfg,
        node_id * 2 + 1,
        part,
    );
}

// ---------------------------------------------------------------------------
// bisect.rs
// ---------------------------------------------------------------------------

/// Parameters of a (multilevel) bisection.
#[derive(Clone, Copy, Debug)]
struct BisectConfigReference {
    /// Allowed relative overload of either side, e.g. `0.05`.
    epsilon: f64,
    /// Greedy-graph-growing restarts at the coarsest level.
    init_trials: u32,
    /// Maximum FM passes per level.
    fm_passes: u32,
    /// Coarsen until this many vertices remain.
    coarsen_to: usize,
    /// RNG seed.
    seed: u64,
}

/// Side weights of a bisection.
fn side_weights_reference(g: &Graph, side: &[u8]) -> (f64, f64) {
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
fn bisection_cut_reference(g: &Graph, side: &[u8]) -> f64 {
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
fn grow_from_reference(g: &Graph, seed_vertex: u32, target_left: f64) -> Vec<u8> {
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
fn initial_bisection_reference(g: &Graph, target_left: f64, trials: u32, seed: u64) -> Vec<u8> {
    let n = g.num_vertices();
    assert!(n >= 2, "cannot bisect fewer than two vertices");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut best: Option<(f64, Vec<u8>)> = None;
    for _ in 0..trials.max(1) {
        let s = rng.gen_range(0..n as u32);
        let side = grow_from_reference(g, s, target_left);
        let cut = bisection_cut_reference(g, &side);
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
fn fm_refine_reference(
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
    let mut cut = bisection_cut_reference(g, side);
    for _ in 0..max_passes {
        let (mut wl, mut wr) = side_weights_reference(g, side);
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
/// `target_left` is the desired total vertex weight of side 0.
fn multilevel_bisect_reference(
    g: &Graph,
    target_left: f64,
    cfg: &BisectConfigReference,
) -> Vec<u8> {
    let total = g.total_vertex_weight();
    let target_right = total - target_left;
    let levels = coarsen_until_reference(g, cfg.coarsen_to, cfg.seed);
    let coarsest = levels.last().map(|l| &l.graph).unwrap_or(g);
    let mut side = initial_bisection_reference(coarsest, target_left, cfg.init_trials, cfg.seed);
    fm_refine_reference(
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
        fm_refine_reference(
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

// ---------------------------------------------------------------------------
// coarsen.rs
// ---------------------------------------------------------------------------

/// One coarsening step: the coarse graph and the fine→coarse map.
struct CoarseLevelReference {
    /// The coarse graph.
    graph: Graph,
    /// `map[fine_vertex]` = coarse vertex id.
    map: Vec<u32>,
}

/// Heavy-edge matching over `g` into caller-owned buffers: visit
/// vertices in a seeded-shuffle order; match each unmatched vertex
/// with its heaviest unmatched neighbor **admitted by `admit(v, u)`**
/// (ties toward lighter vertex weight — keeps coarse weights even —
/// then smaller id); assign coarse ids in fine-id order. Returns the
/// coarse vertex count; `map[v]` is `v`'s coarse id.
fn heavy_edge_matching_reference(
    g: &Graph,
    seed: u64,
    admit: impl Fn(u32, u32) -> bool,
    order: &mut Vec<u32>,
    mate: &mut Vec<u32>,
    map: &mut Vec<u32>,
) -> usize {
    const UNMATCHED: u32 = u32::MAX;
    let n = g.num_vertices();
    order.clear();
    order.extend(0..n as u32);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    mate.clear();
    mate.resize(n, UNMATCHED);
    for &v in order.iter() {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u32, f64)> = None;
        for (u, w) in g.edges(v) {
            if u == v || mate[u as usize] != UNMATCHED || !admit(v, u) {
                continue;
            }
            let better = match best {
                None => true,
                Some((bu, bw)) => {
                    w > bw || (w == bw && (g.vertex_weight(u), u) < (g.vertex_weight(bu), bu))
                }
            };
            if better {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
            None => mate[v as usize] = v, // matched with itself
        }
    }
    // Assign coarse ids in fine-id order (deterministic regardless of
    // the visit order above).
    map.clear();
    map.resize(n, u32::MAX);
    let mut next = 0u32;
    for v in 0..n as u32 {
        if map[v as usize] != u32::MAX {
            continue;
        }
        let m = mate[v as usize];
        map[v as usize] = next;
        if m != v && m != UNMATCHED {
            map[m as usize] = next;
        }
        next += 1;
    }
    next as usize
}

/// Reusable workspace for a coarsening loop: the CSR builder plus the
/// matching buffers, amortized across levels. The per-level
/// fine→coarse `map` is *not* here — each [`CoarseLevelReference`] owns
/// its map.
#[derive(Default)]
struct CoarsenScratchReference {
    builder: GraphBuilder,
    order: Vec<u32>,
    mate: Vec<u32>,
}

/// One heavy-edge coarsening step reusing a caller-owned
/// [`CoarsenScratchReference`]; `None` if matching cannot shrink the
/// graph by at least 10 %.
fn coarsen_step_with_reference(
    g: &Graph,
    seed: u64,
    scratch: &mut CoarsenScratchReference,
) -> Option<CoarseLevelReference> {
    let n = g.num_vertices();
    let CoarsenScratchReference {
        builder,
        order,
        mate,
    } = scratch;
    let mut map = Vec::new();
    let coarse_n = heavy_edge_matching_reference(g, seed, |_, _| true, order, mate, &mut map);
    if coarse_n as f64 > 0.9 * n as f64 {
        return None;
    }
    // Coarse vertex weights and edges.
    let mut vwgt = vec![0.0; coarse_n];
    for v in 0..n {
        vwgt[map[v] as usize] += g.vertex_weight(v as u32);
    }
    builder.reset(coarse_n);
    for (u, v, w) in g.all_edges() {
        let (cu, cv) = (map[u as usize], map[v as usize]);
        if cu != cv {
            builder.add_edge(cu, cv, w);
        }
    }
    builder.vertex_weights(vwgt);
    // The fine graph is symmetric; merging duplicates directionally
    // keeps it symmetric, so a directed build suffices.
    let mut graph = Graph::empty(0);
    builder.build_directed_into(&mut graph);
    Some(CoarseLevelReference { graph, map })
}

/// Coarsens until `target_size` vertices or a stall; returns the levels
/// from finest to coarsest (empty if `g` is already small enough).
fn coarsen_until_reference(g: &Graph, target_size: usize, seed: u64) -> Vec<CoarseLevelReference> {
    let mut levels: Vec<CoarseLevelReference> = Vec::new();
    let mut scratch = CoarsenScratchReference::default();
    let mut round = 0u64;
    loop {
        let current = levels.last().map(|l| &l.graph).unwrap_or(g);
        if current.num_vertices() <= target_size {
            break;
        }
        match coarsen_step_with_reference(current, seed.wrapping_add(round), &mut scratch) {
            Some(level) => levels.push(level),
            None => break,
        }
        round += 1;
    }
    levels
}

// ---------------------------------------------------------------------------
// balance.rs
// ---------------------------------------------------------------------------

/// Per-part vertex-weight sums.
fn part_weights_reference(g: &Graph, part: &[u32], k: usize) -> Vec<f64> {
    let mut w = vec![0.0; k];
    for v in 0..g.num_vertices() {
        w[part[v] as usize] += g.vertex_weight(v as u32);
    }
    w
}

/// Moves vertices out of parts exceeding `targets[p] * (1 + epsilon)`
/// until every part fits (or no helpful move remains). A single
/// FM-style iteration: each vertex moves at most once, best-gain first.
///
/// Returns the number of vertices moved.
pub fn fix_balance_reference(g: &Graph, part: &mut [u32], targets: &[f64], epsilon: f64) -> usize {
    let n = g.num_vertices();
    let k = targets.len();
    let mut weights = part_weights_reference(g, part, k);
    let limit: Vec<f64> = targets.iter().map(|t| t * (1.0 + epsilon)).collect();
    let overloaded = |weights: &[f64], p: usize| weights[p] > limit[p] + 1e-12;
    if !(0..k).any(|p| overloaded(&weights, p)) {
        return 0;
    }
    // Priority: vertices in overloaded parts, keyed by the edge-cut gain
    // of their best alternative part (computed lazily at pop time; the
    // heap key is an upper bound refreshed on pop — a standard lazy
    // re-evaluation scheme that keeps one pass near-linear).
    let mut heap = IndexedMaxHeap::new(n);
    for v in 0..n as u32 {
        if overloaded(&weights, part[v as usize] as usize) {
            // Initial optimistic key: total incident weight (max possible gain).
            heap.push(v, g.weighted_degree(v));
        }
    }
    let mut moved = 0usize;
    let mut conn: Vec<f64> = vec![0.0; k];
    let mut touched: Vec<u32> = Vec::new();
    while let Some((v, key)) = heap.pop() {
        let from = part[v as usize] as usize;
        if !overloaded(&weights, from) {
            continue; // its part got fixed meanwhile
        }
        // Connectivity of v to each part.
        touched.clear();
        for (u, w) in g.edges(v) {
            let p = part[u as usize];
            if conn[p as usize] == 0.0 {
                touched.push(p);
            }
            conn[p as usize] += w;
        }
        let vw = g.vertex_weight(v);
        // Best receiving part: must have room; maximize gain = conn(to) −
        // conn(from). Consider connected parts first, then any part
        // with room.
        let mut best: Option<(f64, usize)> = None;
        let consider = |best: &mut Option<(f64, usize)>,
                        to: usize,
                        conn_to: f64,
                        conn_from: f64,
                        weights: &[f64]| {
            if to == from || weights[to] + vw > limit[to] {
                return;
            }
            let gain = conn_to - conn_from;
            if best.is_none() || gain > best.unwrap().0 {
                *best = Some((gain, to));
            }
        };
        let conn_from = conn[from];
        for &p in &touched {
            consider(&mut best, p as usize, conn[p as usize], conn_from, &weights);
        }
        if best.is_none() {
            for to in 0..k {
                consider(&mut best, to, 0.0, conn_from, &weights);
            }
        }
        // Lazy key refresh: if the true gain is lower than the heap key
        // and other candidates remain, push back with the true key.
        if let Some((gain, to)) = best {
            if gain < key - 1e-12 {
                if let Some(&(_, next_key)) = heap.peek().as_ref() {
                    if gain < next_key {
                        heap.push(v, gain);
                        for &p in &touched {
                            conn[p as usize] = 0.0;
                        }
                        continue;
                    }
                }
            }
            part[v as usize] = to as u32;
            weights[from] -= vw;
            weights[to] += vw;
            moved += 1;
            // Keys are upper bounds on gain; a neighbor's true gain can
            // rise by up to 2·w(u,v) now that v left its part, so bump
            // to keep the bound valid.
            for (u, w) in g.edges(v) {
                if let Some(cur) = heap.key_of(u) {
                    heap.change_key(u, cur + 2.0 * w);
                }
            }
        }
        for &p in &touched {
            conn[p as usize] = 0.0;
        }
        if !(0..k).any(|p| overloaded(&weights, p)) {
            break;
        }
    }
    moved
}
