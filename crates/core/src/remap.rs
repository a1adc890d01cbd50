//! Fault-tolerant incremental remapping.
//!
//! Production systems lose nodes, links degrade, and schedulers grow or
//! shrink allocations mid-run. Re-running the whole mapping pipeline on
//! every such event throws away an almost entirely valid placement; the
//! engine here instead *repairs* an existing mapping locally:
//!
//! 1. the [`ChurnEvent`]s are applied to the machine/allocation (a
//!    failed node leaves the allocation, a dead link forces the
//!    topology's failure-masked rebuild — see `umpa_topology::churn`);
//! 2. tasks whose node left the allocation are collected as the
//!    *displaced set* (entries already unplaced from an earlier
//!    [`RemapOutcome::Infeasible`] are picked up too, so repair after
//!    a `NodesAdded` event converges);
//! 3. each displaced task is re-placed greedily — Algorithm 1's
//!    `GETBESTNODE` seeded at the routers of its still-mapped
//!    neighbors, early-exiting BFS over the (failure-masked) router
//!    graph, minimum weighted-hop increase wins — heaviest tasks
//!    first so they still fit;
//! 4. a budget-bounded WH refinement pass polishes only the
//!    *frontier*: the displaced tasks plus their `frontier_hops`-ring in
//!    the task graph ([`wh_refine_frontier_scratch`]).
//!
//! Repair cost therefore scales with the damage neighborhood, not the
//! job size, and the warm path through a [`MapperScratch`] is
//! allocation-free for node churn and soft link degradation (hard link
//! failures rebuild the distance oracle and route cache — inherently
//! allocating, by design; see DESIGN.md §14).
//!
//! When the surviving allocation cannot hold every task, the engine
//! returns [`RemapOutcome::Infeasible`] with the unplaced tasks instead
//! of panicking; the mapping keeps `u32::MAX` for those entries so a
//! later repair (after capacity returns) can finish the job.

use umpa_graph::{Bfs, TaskGraph};
use umpa_topology::{Allocation, Machine};

pub use umpa_topology::ChurnEvent;

use crate::gain::HopDist;
use crate::greedy::weighted_hops;
use crate::mapping::{fits, CAPACITY_EPS};
use crate::scratch::MapperScratch;
use crate::wh_refine::{wh_refine_frontier_scratch, WhRefineConfig};

/// Configuration of the incremental repair.
#[derive(Clone, Debug)]
pub struct RemapConfig {
    /// Task-graph rings around the displaced set included in the
    /// refinement frontier (0 = displaced tasks only).
    pub frontier_hops: u32,
    /// Frontier WH refinement; `max_passes` is the repair budget.
    /// `None` skips the WH polish.
    pub wh: Option<WhRefineConfig>,
}

impl Default for RemapConfig {
    fn default() -> Self {
        Self {
            frontier_hops: 1,
            wh: Some(WhRefineConfig {
                max_passes: 2,
                ..WhRefineConfig::default()
            }),
        }
    }
}

impl RemapConfig {
    /// Repair-only configuration: re-place displaced tasks, skip the
    /// refinement polish (the cheapest repair).
    pub fn placement_only() -> Self {
        Self {
            frontier_hops: 0,
            wh: None,
        }
    }
}

/// What one repair did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RemapStats {
    /// Tasks that had to be re-placed (displaced by the events, plus
    /// any entries left unplaced by an earlier infeasible repair).
    pub displaced: usize,
    /// Tasks handed to the frontier refinement.
    pub frontier: usize,
    /// Weighted hops of the mapping *entering* the repair, measured
    /// after the events were applied and over the placed tasks only
    /// (edges with a displaced endpoint contribute nothing — they had
    /// no placement to measure). Together with [`wh_after`] this makes
    /// per-repair quality drift observable without re-deriving metrics.
    ///
    /// [`wh_after`]: RemapStats::wh_after
    pub wh_before: f64,
    /// Weighted hops of the repaired mapping.
    pub wh_after: f64,
}

impl RemapStats {
    /// Per-repair WH delta (`wh_after − wh_before`). Positive when the
    /// repair degraded the mapping (the usual case: displaced edges
    /// re-enter the sum and re-placement is local, not global);
    /// negative when the frontier polish more than paid for the
    /// damage. The drift supervisor accumulates these.
    pub fn wh_delta(&self) -> f64 {
        self.wh_after - self.wh_before
    }
}

/// Cumulative drift of a live mapping across a stream of repairs.
///
/// Frontier-local repair guarantees per-repair quality, not stream
/// quality: every repair pays a small WH premium over a from-scratch
/// re-map, and under *sustained* churn those premiums compound. This
/// accumulator makes the compounding visible — feed it every
/// [`RemapStats`] and a supervisor (e.g. `umpa-service`'s churn-drift
/// supervisor) can decide when the live mapping has drifted far enough
/// from from-scratch quality to warrant a re-map or polish.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RemapDrift {
    /// Repairs accumulated.
    pub repairs: u64,
    /// Cumulative displaced-task count across all repairs.
    pub displaced_total: u64,
    /// Sum of per-repair WH deltas (`Σ wh_delta()`): the net WH the
    /// stream of local repairs added on top of the pre-churn mapping.
    pub wh_delta_total: f64,
    /// WH of the live mapping after the most recent repair.
    pub wh_last: f64,
}

impl RemapDrift {
    /// Folds one repair into the running totals.
    pub fn note(&mut self, stats: &RemapStats) {
        self.repairs += 1;
        self.displaced_total += stats.displaced as u64;
        self.wh_delta_total += stats.wh_delta();
        self.wh_last = stats.wh_after;
    }
}

/// Result of [`remap_incremental`].
#[derive(Clone, Debug, PartialEq)]
pub enum RemapOutcome {
    /// Every task is placed; the mapping validates feasible.
    Repaired(RemapStats),
    /// The surviving allocation cannot hold every task. The listed
    /// tasks stay `u32::MAX` in the mapping (everything else remains
    /// feasibly placed); repair again once capacity returns.
    Infeasible {
        /// Tasks left unplaced, in repair order (heaviest first).
        unplaced: Vec<u32>,
    },
}

impl RemapOutcome {
    /// Whether the mapping was fully repaired.
    pub fn is_repaired(&self) -> bool {
        matches!(self, RemapOutcome::Repaired(_))
    }

    /// Repair statistics (`None` when infeasible).
    pub fn stats(&self) -> Option<&RemapStats> {
        match self {
            RemapOutcome::Repaired(s) => Some(s),
            RemapOutcome::Infeasible { .. } => None,
        }
    }
}

/// Reusable buffers of the repair engine; lives in
/// [`MapperScratch::remap`]. Warm repairs are allocation-free for node
/// churn and soft link degradation.
#[derive(Default)]
pub struct RemapScratch {
    displaced: Vec<u32>,
    order: Vec<u32>,
    unplaced: Vec<u32>,
    frontier: Vec<u32>,
    free: Vec<f64>,
    sources: Vec<u32>,
    bfs_tasks: Bfs,
    bfs_routers: Bfs,
}

impl RemapScratch {
    /// Creates an empty scratch; buffers are sized on first repair.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Applies a batch of churn events to the machine/allocation *without*
/// repairing any mapping — the replay entry point shared by the service
/// when no resident job exists and by crash-recovery journal replay
/// (`umpa-service`), so both walk the exact event-application path
/// [`remap_incremental`] walks and land on bit-identical machine state.
/// Returns the total number of allocation slots the batch changed.
pub fn apply_events(machine: &mut Machine, alloc: &mut Allocation, events: &[ChurnEvent]) -> usize {
    let mut changed = 0usize;
    for ev in events {
        changed += ev.apply(machine, alloc);
    }
    changed
}

/// Applies `events` to the machine/allocation and repairs `mapping` in
/// place. See the module docs for the algorithm; returns what happened.
///
/// `mapping` must have one entry per task; entries may be `u32::MAX`
/// (unplaced, e.g. from an earlier infeasible repair). On
/// [`RemapOutcome::Repaired`] the mapping validates feasible; on
/// [`RemapOutcome::Infeasible`] the placed remainder is feasible and
/// the unplaced entries stay `u32::MAX`.
pub fn remap_incremental(
    tg: &TaskGraph,
    machine: &mut Machine,
    alloc: &mut Allocation,
    mapping: &mut [u32],
    events: &[ChurnEvent],
    cfg: &RemapConfig,
    scratch: &mut MapperScratch,
) -> RemapOutcome {
    // tidy-allow: panic-freedom (API precondition checked on entry, before any event is applied or state touched; the never-panic contract covers the repair itself)
    assert_eq!(mapping.len(), tg.num_tasks(), "mapping/task-count mismatch");
    apply_events(machine, alloc, events);
    let machine = &*machine;
    let MapperScratch { remap, wh, .. } = scratch;
    let n = tg.num_tasks();

    // Displaced set: churned off the allocation, plus anything already
    // unplaced. Short-circuit order matters — `contains` on u32::MAX
    // would be out of range.
    remap.displaced.clear();
    for (t, node) in mapping.iter_mut().enumerate() {
        if *node == u32::MAX || !alloc.contains(*node) {
            *node = u32::MAX;
            remap.displaced.push(t as u32);
        }
    }

    // Pre-repair quality over the placed remainder (drift observability
    // — see RemapStats::wh_before). One read-only O(E) sweep; edges
    // with a displaced endpoint have no placement to measure.
    let dist = HopDist::new(machine);
    let wh_before = weighted_hops(tg, machine, mapping);

    // Free capacity of the surviving placement. Surviving slots kept
    // their processor counts, so survivors still fit.
    remap.free.clear();
    remap
        .free
        .extend((0..alloc.num_nodes()).map(|s| f64::from(alloc.procs(s))));
    for (t, &node) in mapping.iter().enumerate() {
        if node != u32::MAX {
            // tidy-allow: panic-freedom (unreachable: the displaced loop above just reset every entry not in the allocation to u32::MAX)
            let slot = alloc.slot_of(node).expect("surviving entry is allocated");
            remap.free[slot as usize] -= tg.task_weight(t as u32);
        }
    }

    // Aggregate capacity pre-check: a typed outcome instead of a panic
    // deep inside placement. (Fragmentation can still defeat
    // placement below; that path collects its own unplaced list.)
    let need: f64 = remap.displaced.iter().map(|&t| tg.task_weight(t)).sum();
    let have: f64 = remap.free.iter().map(|f| f.max(0.0)).sum();
    if need > have + CAPACITY_EPS {
        return RemapOutcome::Infeasible {
            // tidy-allow: hot-path-alloc (cold infeasible exit; the outcome must own its unplaced list because the scratch is reused)
            unplaced: remap.displaced.clone(),
        };
    }

    // Deterministic repair order: heaviest first (so they still fit),
    // ids break ties.
    remap.order.clear();
    remap.order.extend_from_slice(&remap.displaced);
    remap.order.sort_unstable_by(|&a, &b| {
        // total_cmp: same order as partial_cmp for the finite weights
        // the graph builder admits, and structurally panic-free.
        tg.task_weight(b)
            .total_cmp(&tg.task_weight(a))
            .then(a.cmp(&b))
    });

    // Greedy local re-placement seeded around the damage.
    remap.unplaced.clear();
    remap.bfs_routers.ensure(machine.num_routers());
    for i in 0..remap.order.len() {
        let t = remap.order[i];
        match place_one(
            tg,
            machine,
            alloc,
            &dist,
            mapping,
            &remap.free,
            &mut remap.bfs_routers,
            &mut remap.sources,
            t,
        ) {
            Some(node) => {
                // tidy-allow: panic-freedom (unreachable: place_one only returns nodes drawn from the allocation's slot list)
                let slot = alloc.slot_of(node).expect("placement is allocated");
                remap.free[slot as usize] -= tg.task_weight(t);
                mapping[t as usize] = node;
            }
            None => remap.unplaced.push(t),
        }
    }
    if !remap.unplaced.is_empty() {
        return RemapOutcome::Infeasible {
            // tidy-allow: hot-path-alloc (cold infeasible exit; the outcome must own its unplaced list because the scratch is reused)
            unplaced: remap.unplaced.clone(),
        };
    }

    // Refinement frontier: the displaced tasks plus `frontier_hops`
    // rings of their task-graph neighborhood (BFS levels).
    remap.frontier.clear();
    if !remap.displaced.is_empty() {
        remap.bfs_tasks.ensure(n);
        remap.bfs_tasks.start(remap.displaced.iter().copied());
        while let Some(ev) = remap.bfs_tasks.next(tg.symmetric()) {
            if ev.level > cfg.frontier_hops {
                break;
            }
            remap.frontier.push(ev.vertex);
        }
    }

    // Budgeted polish confined to the frontier.
    let wh_after = match &cfg.wh {
        Some(wh_cfg) if !remap.frontier.is_empty() => {
            wh_refine_frontier_scratch(tg, machine, alloc, mapping, &remap.frontier, wh_cfg, wh)
        }
        _ => weighted_hops(tg, machine, mapping),
    };
    // Allocation-free feasibility invariants (validate_mapping builds a
    // load vector, which would break the warm zero-alloc contract in
    // debug builds): everything placed on the allocation, no slot
    // driven below zero free capacity.
    debug_assert!(mapping.iter().all(|&node| alloc.contains(node)));
    debug_assert!(remap.free.iter().all(|&f| f >= -CAPACITY_EPS));
    RemapOutcome::Repaired(RemapStats {
        displaced: remap.displaced.len(),
        frontier: remap.frontier.len(),
        wh_before,
        wh_after,
    })
}

/// `GETBESTNODE` for one displaced task: early-exiting BFS over the
/// (failure-masked) router graph from the routers of its still-mapped
/// neighbors; among the first feasible level, minimum WH increase
/// wins. Falls back to a linear slot scan when the task has no mapped
/// neighbor or failures disconnected its BFS component from every
/// feasible node. Returns `None` only when nothing fits anywhere.
#[allow(clippy::too_many_arguments)]
fn place_one(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    dist: &HopDist<'_>,
    mapping: &[u32],
    free: &[f64],
    bfs: &mut Bfs,
    sources: &mut Vec<u32>,
    t: u32,
) -> Option<u32> {
    let w = tg.task_weight(t);
    sources.clear();
    for &nb in tg.symmetric().neighbors(t) {
        let m = mapping[nb as usize];
        if m != u32::MAX {
            sources.push(machine.router_of(m));
        }
    }
    let wh_inc = |node: u32| -> f64 {
        tg.symmetric()
            .edges(t)
            .filter(|&(nb, _)| mapping[nb as usize] != u32::MAX)
            .map(|(nb, c)| f64::from(dist.node_hops(node, mapping[nb as usize])) * c)
            .sum()
    };
    let mut best: Option<(f64, u32)> = None;
    // When the allocation is small relative to the router graph, an
    // exhaustive scan over the allocated nodes (exact minimum WH
    // increase over *every* feasible node) is both cheaper and at
    // least as good as a BFS that may sweep a mostly-unallocated
    // machine before its first feasible hit. The BFS wins on dense
    // allocations, where it early-exits within a level or two.
    let deg = tg.symmetric().neighbors(t).len();
    let scan_cost = alloc.num_nodes().saturating_mul(deg + 1);
    let use_bfs = !sources.is_empty() && scan_cost >= machine.router_graph().num_vertices() / 2;
    if use_bfs {
        bfs.start(sources.iter().copied());
        let mut hit_level: Option<u32> = None;
        while let Some(ev) = bfs.next(machine.router_graph()) {
            if let Some(l) = hit_level {
                if ev.level > l {
                    break;
                }
            }
            for node in machine.nodes_of_router(ev.vertex) {
                let Some(slot) = alloc.slot_of(node) else {
                    continue;
                };
                if !fits(free[slot as usize], w) {
                    continue;
                }
                hit_level = Some(ev.level);
                let inc = wh_inc(node);
                if best.as_ref().is_none_or(|&(b, _)| inc < b) {
                    best = Some((inc, node));
                }
            }
        }
    }
    if best.is_none() {
        // No mapped neighbor (spread onto the emptiest slot) or the BFS
        // component has no feasible node (minimize the WH increase over
        // the whole allocation).
        let has_nb = !sources.is_empty();
        for (s, &f) in free.iter().enumerate().take(alloc.num_nodes()) {
            if !fits(f, w) {
                continue;
            }
            let node = alloc.node(s);
            let score = if has_nb { wh_inc(node) } else { -f };
            if best.as_ref().is_none_or(|&(b, _)| score < b) {
                best = Some((score, node));
            }
        }
    }
    best.map(|(_, n)| n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_map_into, GreedyConfig, GreedyScratch};
    use crate::mapping::validate_mapping;
    use umpa_topology::{AllocSpec, MachineConfig};

    fn setup(nodes: usize, tasks: usize) -> (Machine, Allocation, TaskGraph, Vec<u32>) {
        let machine = MachineConfig::small(&[4, 4], 1, 2).build();
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(nodes, 7));
        let tg = TaskGraph::from_messages(
            tasks,
            (0..tasks as u32).map(|i| (i, (i + 1) % tasks as u32, 1.0 + f64::from(i % 3))),
            None,
        );
        let mut mapping = Vec::new();
        greedy_map_into(
            &tg,
            &machine,
            &alloc,
            &GreedyConfig::default(),
            &mut GreedyScratch::new(),
            &mut mapping,
        );
        (machine, alloc, tg, mapping)
    }

    #[test]
    fn node_failure_is_repaired_feasibly() {
        let (mut machine, mut alloc, tg, mut mapping) = setup(8, 12);
        let victim = mapping[0];
        let mut scratch = MapperScratch::new();
        let out = remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &[ChurnEvent::NodeFailed { node: victim }],
            &RemapConfig::default(),
            &mut scratch,
        );
        let stats = out.stats().expect("repairable");
        assert!(stats.displaced >= 1);
        assert!(stats.frontier >= stats.displaced);
        validate_mapping(&tg, &alloc, &mapping).unwrap();
        assert!(!alloc.contains(victim));
        assert!(mapping.iter().all(|&n| n != victim));
    }

    #[test]
    fn exact_fit_losing_a_node_is_infeasible_then_recovers() {
        let (mut machine, mut alloc, tg, mut mapping) = setup(6, 12); // 12 tasks / 12 procs
        let victim = alloc.node(0);
        let mut scratch = MapperScratch::new();
        let out = remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &[ChurnEvent::NodeFailed { node: victim }],
            &RemapConfig::default(),
            &mut scratch,
        );
        let RemapOutcome::Infeasible { unplaced } = out else {
            panic!("exact fit minus one node must be infeasible");
        };
        assert!(!unplaced.is_empty());
        for &t in &unplaced {
            assert_eq!(mapping[t as usize], u32::MAX);
        }
        // Capacity returns: the next repair finishes the job.
        let out = remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &[ChurnEvent::NodesAdded {
                nodes: vec![victim],
            }],
            &RemapConfig::default(),
            &mut scratch,
        );
        assert!(out.is_repaired());
        validate_mapping(&tg, &alloc, &mapping).unwrap();
    }

    #[test]
    fn failing_every_node_reports_all_tasks_unplaced() {
        let (mut machine, mut alloc, tg, mut mapping) = setup(6, 6);
        let nodes: Vec<u32> = alloc.nodes().to_vec();
        let mut scratch = MapperScratch::new();
        let out = remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &[ChurnEvent::NodesRemoved { nodes }],
            &RemapConfig::default(),
            &mut scratch,
        );
        let RemapOutcome::Infeasible { unplaced } = out else {
            panic!("empty allocation cannot hold tasks");
        };
        assert_eq!(unplaced.len(), tg.num_tasks());
        assert_eq!(alloc.num_nodes(), 0);
        assert!(mapping.iter().all(|&n| n == u32::MAX));
    }

    #[test]
    fn empty_event_list_on_intact_mapping_is_a_noop_repair() {
        let (mut machine, mut alloc, tg, mut mapping) = setup(8, 12);
        let before = mapping.clone();
        let mut scratch = MapperScratch::new();
        let out = remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &[],
            &RemapConfig::default(),
            &mut scratch,
        );
        let stats = out.stats().expect("nothing to repair");
        assert_eq!(stats.displaced, 0);
        assert_eq!(stats.frontier, 0);
        assert_eq!(mapping, before);
    }

    #[test]
    fn stale_failure_of_unallocated_node_is_a_noop() {
        let (mut machine, mut alloc, tg, mut mapping) = setup(8, 12);
        let outside = (0..machine.num_nodes() as u32)
            .find(|&n| !alloc.contains(n))
            .unwrap();
        let before = mapping.clone();
        let mut scratch = MapperScratch::new();
        let out = remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &[ChurnEvent::NodeFailed { node: outside }],
            &RemapConfig::default(),
            &mut scratch,
        );
        assert_eq!(out.stats().unwrap().displaced, 0);
        assert_eq!(mapping, before);
    }

    #[test]
    fn drift_stats_expose_per_repair_wh_delta() {
        let (mut machine, mut alloc, tg, mut mapping) = setup(8, 12);
        let mut scratch = MapperScratch::new();
        let mut drift = RemapDrift::default();
        let mut expected_delta = 0.0;
        let mut expected_displaced = 0u64;
        for i in 0..3 {
            let victim = mapping[i];
            let out = remap_incremental(
                &tg,
                &mut machine,
                &mut alloc,
                &mut mapping,
                &[ChurnEvent::NodeFailed { node: victim }],
                &RemapConfig::default(),
                &mut scratch,
            );
            let stats = out.stats().expect("repairable");
            // wh_before is the placed-pairs WH, wh_after the full WH of
            // the repaired mapping; the delta is their difference.
            assert!(stats.wh_before >= 0.0);
            assert!((stats.wh_delta() - (stats.wh_after - stats.wh_before)).abs() < 1e-12);
            expected_delta += stats.wh_delta();
            expected_displaced += stats.displaced as u64;
            drift.note(stats);
            // Return capacity so the next failure stays repairable.
            let back = [ChurnEvent::NodesAdded {
                nodes: vec![victim],
            }];
            let out = remap_incremental(
                &tg,
                &mut machine,
                &mut alloc,
                &mut mapping,
                &back,
                &RemapConfig::default(),
                &mut scratch,
            );
            expected_delta += out.stats().unwrap().wh_delta();
            drift.note(out.stats().unwrap());
        }
        assert_eq!(drift.repairs, 6);
        assert_eq!(drift.displaced_total, expected_displaced);
        assert!((drift.wh_delta_total - expected_delta).abs() < 1e-9);
        assert!(drift.displaced_total > 0);
        assert_eq!(
            drift.wh_last,
            crate::greedy::weighted_hops(&tg, &machine, &mapping)
        );
    }

    #[test]
    fn intact_repair_has_zero_wh_delta() {
        let (mut machine, mut alloc, tg, mut mapping) = setup(8, 12);
        let mut scratch = MapperScratch::new();
        let out = remap_incremental(
            &tg,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &[],
            &RemapConfig::default(),
            &mut scratch,
        );
        let stats = out.stats().unwrap();
        // Nothing displaced: before and after measure the same mapping.
        assert_eq!(stats.wh_before, stats.wh_after);
        assert_eq!(stats.wh_delta(), 0.0);
    }

    #[test]
    fn repair_is_deterministic() {
        let (machine, alloc, tg, mapping) = setup(8, 12);
        let victims = [mapping[0], mapping[5]];
        let run = || {
            let (mut m, mut a, mut map) = (machine.clone(), alloc.clone(), mapping.clone());
            let mut scratch = MapperScratch::new();
            let events: Vec<ChurnEvent> = victims
                .iter()
                .map(|&v| ChurnEvent::NodeFailed { node: v })
                .collect();
            remap_incremental(
                &tg,
                &mut m,
                &mut a,
                &mut map,
                &events,
                &RemapConfig::default(),
                &mut scratch,
            );
            map
        };
        assert_eq!(run(), run());
    }
}
