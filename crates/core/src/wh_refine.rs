//! Algorithm 2: WH Refinement (the paper's `UWH` variant).
//!
//! Kernighan–Lin-style task swaps on an existing mapping:
//!
//! * a max-heap `whHeap` orders tasks by the WH they individually incur
//!   (`TASKWHOPS`);
//! * for the popped task `t_wh`, swap partners are sought in **BFS
//!   order** over the machine graph starting from the nodes of
//!   `Γ[nghbor(t_wh)]` — the closer a node is to `t_wh`'s neighbors, the
//!   likelier the swap helps;
//! * the scan early-exits after `Δ` evaluated candidates (paper value
//!   8), the first improving swap is applied immediately, and the heap
//!   keys of both tasks' neighborhoods are refreshed;
//! * a pass ends when the heap empties; the next pass runs only if the
//!   previous one improved WH by more than 0.5 % (paper's threshold).
//!
//! All per-run buffers (heap, BFS workspace, slot residency) live in a
//! reusable [`WhScratch`]; a warm scratch makes repeated refinements
//! allocation-free (DESIGN.md §8). Slot residency uses the flat
//! [`SlotBuckets`] registry — O(1) task moves instead of `Vec::retain`.
//!
//! Gain evaluation is **incremental and mutation-free** (DESIGN.md
//! §11): swap gains come from `HopDist::swap_gain` — distance-oracle
//! rows (or the analytic fallback) over the two tasks' neighbor lists,
//! with the t1–t2 edge handled by an explicit correction term — instead
//! of virtually relocating tasks and recomputing their full WH.

use umpa_ds::{IndexedMaxHeap, SlotBuckets};
use umpa_graph::{Bfs, TaskGraph};
use umpa_topology::{Allocation, Machine};

use crate::eps::{DRIFT_EPS, GAIN_EPS};
use crate::gain::HopDist;
use crate::greedy::weighted_hops;
use crate::mapping::fits;

/// Configuration of the WH refinement.
#[derive(Clone, Copy, Debug)]
pub struct WhRefineConfig {
    /// Max evaluated swap candidates per popped task (`Δ`).
    pub delta: usize,
    /// Minimum relative WH improvement for another pass (paper: 0.5 %).
    pub min_rel_improvement: f64,
    /// Hard cap on passes.
    pub max_passes: u32,
}

impl Default for WhRefineConfig {
    fn default() -> Self {
        Self {
            delta: 8,
            min_rel_improvement: 0.005,
            max_passes: 64,
        }
    }
}

/// Reusable buffers for one refinement run.
#[derive(Default)]
pub struct WhScratch {
    buckets: SlotBuckets,
    free: Vec<f64>,
    heap: IndexedMaxHeap,
    bfs: Bfs,
    sources: Vec<u32>,
}

impl WhScratch {
    /// Creates an empty scratch; buffers are sized on first run.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Refines `mapping` in place to lower WH; returns the final WH.
/// Allocation-free once `scratch` is warm.
pub fn wh_refine_scratch(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    mapping: &mut [u32],
    cfg: &WhRefineConfig,
    scratch: &mut WhScratch,
) -> f64 {
    refine(tg, machine, alloc, mapping, None, cfg, scratch)
}

/// Frontier-restricted form of [`wh_refine_scratch`] for incremental
/// remap: only the tasks in `frontier` (each listed once) are
/// reconsidered for swaps/moves — swap partners may still be any task
/// the BFS candidate scan reaches — and passes stop at
/// `cfg.max_passes` as usual, so repair cost scales with the damage
/// neighborhood, not the job. Returns the final **global** WH.
pub fn wh_refine_frontier_scratch(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    mapping: &mut [u32],
    frontier: &[u32],
    cfg: &WhRefineConfig,
    scratch: &mut WhScratch,
) -> f64 {
    refine(tg, machine, alloc, mapping, Some(frontier), cfg, scratch)
}

/// The pass loop both entry points share: passes pivot on `frontier`
/// (every task when `None`) and repeat while the last one improved WH
/// by more than `cfg.min_rel_improvement`, up to `cfg.max_passes`.
fn refine(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    mapping: &mut [u32],
    frontier: Option<&[u32]>,
    cfg: &WhRefineConfig,
    scratch: &mut WhScratch,
) -> f64 {
    assert_eq!(mapping.len(), tg.num_tasks());
    let mut r = Refiner::new(tg, machine, alloc, mapping, scratch);
    let mut wh = weighted_hops(tg, machine, r.mapping);
    for _ in 0..cfg.max_passes {
        let improved = r.run_pass(cfg.delta, frontier);
        let new_wh = wh - improved;
        debug_assert!(
            (new_wh - weighted_hops(tg, machine, r.mapping)).abs() < DRIFT_EPS * (1.0 + new_wh),
            "incremental WH drifted"
        );
        if wh <= 0.0 || (wh - new_wh) / wh <= cfg.min_rel_improvement {
            wh = new_wh;
            break;
        }
        wh = new_wh;
    }
    wh
}

struct Refiner<'a> {
    tg: &'a TaskGraph,
    machine: &'a Machine,
    alloc: &'a Allocation,
    /// Oracle-or-analytic distances and the incremental gain kernel.
    dist: HopDist<'a>,
    mapping: &'a mut [u32],
    /// Tasks hosted by each allocation slot (flat registry).
    buckets: &'a mut SlotBuckets,
    /// Free capacity per slot.
    free: &'a mut Vec<f64>,
    heap: &'a mut IndexedMaxHeap,
    bfs: &'a mut Bfs,
    sources: &'a mut Vec<u32>,
}

impl<'a> Refiner<'a> {
    fn new(
        tg: &'a TaskGraph,
        machine: &'a Machine,
        alloc: &'a Allocation,
        mapping: &'a mut [u32],
        scratch: &'a mut WhScratch,
    ) -> Self {
        let WhScratch {
            buckets,
            free,
            heap,
            bfs,
            sources,
        } = scratch;
        buckets.reset(alloc.num_nodes(), tg.num_tasks());
        free.clear();
        free.extend((0..alloc.num_nodes()).map(|s| f64::from(alloc.procs(s))));
        for (t, &node) in mapping.iter().enumerate() {
            let slot = alloc.slot_of(node).expect("mapping must be feasible") as usize;
            buckets.insert(slot, t as u32);
            free[slot] -= tg.task_weight(t as u32);
        }
        heap.reset(tg.num_tasks());
        bfs.ensure(machine.num_routers());
        Self {
            tg,
            machine,
            alloc,
            dist: HopDist::new(machine),
            mapping,
            buckets,
            free,
            heap,
            bfs,
            sources,
        }
    }

    /// `TASKWHOPS`: WH incurred by `t` under the current mapping.
    #[inline]
    fn task_wh(&self, t: u32) -> f64 {
        self.dist.task_wh(self.tg, self.mapping, t)
    }

    /// WH gain (positive = improvement) of swapping `t1` with
    /// `(node2, t2)`; `t2 = None` means moving `t1` onto the free
    /// capacity of `node2`'s slot. Incremental — no mapping writes.
    #[inline]
    fn swap_gain(&self, t1: u32, t2: Option<u32>, node2: u32) -> f64 {
        self.dist.swap_gain(self.tg, self.mapping, t1, t2, node2)
    }

    /// Commits a swap/move found by the candidate scan.
    fn commit(&mut self, t1: u32, t2: Option<u32>, node2: u32) {
        let node1 = self.mapping[t1 as usize];
        let slot1 = self.alloc.slot_of(node1).unwrap() as usize;
        let slot2 = self.alloc.slot_of(node2).unwrap() as usize;
        let w1 = self.tg.task_weight(t1);
        self.mapping[t1 as usize] = node2;
        self.buckets.relocate(slot1, slot2, t1);
        self.free[slot1] += w1;
        self.free[slot2] -= w1;
        if let Some(t) = t2 {
            let w2 = self.tg.task_weight(t);
            self.mapping[t as usize] = node1;
            self.buckets.relocate(slot2, slot1, t);
            self.free[slot2] += w2;
            self.free[slot1] -= w2;
        }
    }

    /// Refreshes `task`'s heap key if still enqueued.
    fn refresh(&mut self, task: u32) {
        if self.heap.contains(task) {
            let key = self.task_wh(task);
            self.heap.change_key(task, key);
        }
    }

    /// One refinement pass; returns the total WH improvement achieved.
    /// The heap is seeded with `frontier` (each task listed once), or
    /// with every task in id order when there is none: the
    /// incremental-remap restriction bounds the tasks whose placement
    /// is reconsidered, while swap *partners* are still found anywhere
    /// the BFS reaches. Tasks pop by incurred WH and take the first
    /// improving swap.
    fn run_pass(&mut self, delta: usize, frontier: Option<&[u32]>) -> f64 {
        let n = self.tg.num_tasks();
        self.heap.reset(n);
        let mut seed = |t: u32| {
            let key = self.task_wh(t);
            self.heap.push(t, key);
        };
        match frontier {
            Some(tasks) => tasks.iter().copied().for_each(&mut seed),
            None => (0..n as u32).for_each(&mut seed),
        }
        let mut pass_gain = 0.0;
        while let Some((twh, key)) = self.heap.pop() {
            if key <= 0.0 {
                // Remaining tasks incur no WH; nothing to gain.
                break;
            }
            if let Some((gain, t2, node2)) = self.find_swap(twh, delta) {
                pass_gain += gain;
                self.commit(twh, t2, node2);
                // Refresh heap keys of both neighborhoods (+ partner).
                if let Some(t) = t2 {
                    self.refresh(t);
                    for i in 0..self.tg.symmetric().neighbors(t).len() {
                        let u = self.tg.symmetric().neighbors(t)[i];
                        self.refresh(u);
                    }
                }
                for i in 0..self.tg.symmetric().neighbors(twh).len() {
                    let u = self.tg.symmetric().neighbors(twh)[i];
                    self.refresh(u);
                }
            }
        }
        pass_gain
    }

    /// BFS-ordered candidate scan for `twh`; returns the first improving
    /// `(gain, partner, node)` within `delta` evaluations.
    fn find_swap(&mut self, twh: u32, delta: usize) -> Option<(f64, Option<u32>, u32)> {
        let node1 = self.mapping[twh as usize];
        let w1 = self.tg.task_weight(twh);
        // Loop-invariant: twh stays on node1 for the whole scan.
        let slot1 = self.alloc.slot_of(node1).unwrap() as usize;
        self.sources.clear();
        for &nb in self.tg.symmetric().neighbors(twh) {
            self.sources
                .push(self.machine.router_of(self.mapping[nb as usize]));
        }
        if self.sources.is_empty() {
            return None; // no neighbors → its WH is 0 anyway
        }
        self.bfs.start(self.sources.iter().copied());
        let mut evaluated = 0usize;
        loop {
            let ev = self.bfs.next(self.machine.router_graph())?;
            for node2 in self.machine.nodes_of_router(ev.vertex) {
                if node2 == node1 {
                    continue;
                }
                let Some(slot2) = self.alloc.slot_of(node2) else {
                    continue;
                };
                let slot2 = slot2 as usize;
                // Swap candidates: every task on the node, plus a pure
                // move when the free capacity admits t_wh. Nothing in
                // this scan mutates the registry (gains are
                // mutation-free), so residents are iterated in place —
                // no scratch copy.
                for t2 in self.buckets.iter(slot2) {
                    // Capacity check for the exchange.
                    let w2 = self.tg.task_weight(t2);
                    if !fits(self.free[slot2] + w2, w1) || !fits(self.free[slot1] + w1, w2) {
                        continue;
                    }
                    let gain = self.swap_gain(twh, Some(t2), node2);
                    evaluated += 1;
                    if gain > GAIN_EPS {
                        return Some((gain, Some(t2), node2));
                    }
                    if evaluated >= delta {
                        return None;
                    }
                }
                if fits(self.free[slot2], w1) {
                    let gain = self.swap_gain(twh, None, node2);
                    evaluated += 1;
                    if gain > GAIN_EPS {
                        return Some((gain, None, node2));
                    }
                    if evaluated >= delta {
                        return None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_map_into, GreedyConfig, GreedyScratch};
    use crate::mapping::validate_mapping;
    use umpa_topology::{AllocSpec, MachineConfig};

    fn ring_tg(n: u32) -> TaskGraph {
        TaskGraph::from_messages(n as usize, (0..n).map(|i| (i, (i + 1) % n, 2.0)), None)
    }

    /// The default greedy mapping, the refinement's usual start.
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

    /// Algorithm 2 on a fresh scratch.
    fn refine_fresh(
        tg: &TaskGraph,
        machine: &Machine,
        alloc: &Allocation,
        mapping: &mut [u32],
        cfg: &WhRefineConfig,
    ) -> f64 {
        wh_refine_scratch(tg, machine, alloc, mapping, cfg, &mut WhScratch::new())
    }

    #[test]
    fn refinement_repairs_a_shuffled_mapping() {
        let m = MachineConfig::small(&[8], 1, 1).build();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::contiguous(8));
        let tg = ring_tg(8);
        // Pessimal-ish: stride-3 placement of the ring.
        let mut mapping: Vec<u32> = (0..8usize).map(|t| alloc.node(t * 3 % 8)).collect();
        let before = weighted_hops(&tg, &m, &mapping);
        let after = refine_fresh(&tg, &m, &alloc, &mut mapping, &WhRefineConfig::default());
        assert!(after < before, "no improvement: {before} -> {after}");
        validate_mapping(&tg, &alloc, &mapping).unwrap();
        assert!((weighted_hops(&tg, &m, &mapping) - after).abs() < 1e-9);
    }

    #[test]
    fn never_worsens_wh() {
        let m = MachineConfig::small(&[4, 4], 1, 1).build();
        for seed in 0..4u64 {
            let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(8, seed));
            let tg = ring_tg(8);
            let mut mapping = greedy(&tg, &m, &alloc);
            let before = weighted_hops(&tg, &m, &mapping);
            let after = refine_fresh(&tg, &m, &alloc, &mut mapping, &WhRefineConfig::default());
            assert!(after <= before + 1e-9, "seed {seed}: {before} -> {after}");
            validate_mapping(&tg, &alloc, &mapping).unwrap();
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let m = MachineConfig::small(&[4, 4], 1, 1).build();
        let tg = ring_tg(8);
        let mut scratch = WhScratch::new();
        for seed in 0..6u64 {
            let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(8, seed));
            let base = greedy(&tg, &m, &alloc);
            let mut warm = base.clone();
            let mut fresh = base.clone();
            let wh_warm = wh_refine_scratch(
                &tg,
                &m,
                &alloc,
                &mut warm,
                &WhRefineConfig::default(),
                &mut scratch,
            );
            let wh_fresh = refine_fresh(&tg, &m, &alloc, &mut fresh, &WhRefineConfig::default());
            assert_eq!(warm, fresh, "seed {seed}: warm scratch diverged");
            assert_eq!(wh_warm, wh_fresh);
        }
    }

    #[test]
    fn optimal_mapping_is_a_fixed_point() {
        let m = MachineConfig::small(&[8], 1, 1).build();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::contiguous(8));
        let tg = ring_tg(8);
        // The identity ring placement on a ring machine is optimal (all
        // neighbors at distance 1, WH = 8 pairs * 2.0 * 2 dirs... WH
        // counts directed messages: 8 * 2.0 = 16).
        let mut mapping: Vec<u32> = (0..8usize).map(|t| alloc.node(t)).collect();
        let wh0 = weighted_hops(&tg, &m, &mapping);
        let wh1 = refine_fresh(&tg, &m, &alloc, &mut mapping, &WhRefineConfig::default());
        assert_eq!(wh0, wh1);
    }

    #[test]
    fn delta_one_is_weaker_or_equal_to_delta_eight() {
        let m = MachineConfig::small(&[4, 4], 1, 1).build();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(10, 2));
        let tg = TaskGraph::from_messages(
            10,
            (0..10u32).flat_map(|i| [(i, (i + 1) % 10, 1.0), (i, (i + 3) % 10, 0.5)]),
            None,
        );
        let base = greedy(&tg, &m, &alloc);
        let mut m1 = base.clone();
        let mut m8 = base.clone();
        let wh1 = refine_fresh(
            &tg,
            &m,
            &alloc,
            &mut m1,
            &WhRefineConfig {
                delta: 1,
                ..Default::default()
            },
        );
        let wh8 = refine_fresh(&tg, &m, &alloc, &mut m8, &WhRefineConfig::default());
        assert!(wh8 <= wh1 + 1e-9, "Δ=8 ({wh8}) should beat Δ=1 ({wh1})");
    }

    #[test]
    fn moves_onto_free_capacity_when_beneficial() {
        let m = MachineConfig::small(&[8], 1, 2).build();
        // 3 nodes, 2 procs each; 4 tasks: pair (0,1) and pair (2,3).
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::contiguous(3));
        let tg = TaskGraph::from_messages(4, [(0, 1, 5.0), (2, 3, 5.0)], None);
        // Bad start: 0 and 1 split across far nodes.
        let mut mapping = vec![alloc.node(0), alloc.node(2), alloc.node(1), alloc.node(1)];
        let after = refine_fresh(&tg, &m, &alloc, &mut mapping, &WhRefineConfig::default());
        // 0 and 1 should end co-located (or adjacent at worst).
        assert!(after <= 5.0, "WH after refine = {after}");
        validate_mapping(&tg, &alloc, &mapping).unwrap();
    }
}
