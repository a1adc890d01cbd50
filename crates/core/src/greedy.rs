//! Algorithm 1: Greedy Mapping (the paper's `UG` variant).
//!
//! Greedy graph growing over the task graph, placing each task on the
//! allocated node that minimizes its weighted-hop increase:
//!
//! 1. the task with **maximum send+receive volume** (`t_MSRV`) is mapped
//!    first;
//! 2. while fewer than `NBFS` far seeds have been placed, the next task
//!    is the one *farthest from the mapped set* (multi-source BFS on
//!    `Gt`, ties broken toward higher communication volume) and it goes
//!    to a far free node (multi-source BFS on `Gm` from the non-empty
//!    nodes, farthest feasible level);
//! 3. afterwards the next task is popped from the `conn` max-heap — the
//!    unmapped task with the largest total connectivity to mapped
//!    tasks, maintained incrementally per placement — and `GETBESTNODE`
//!    places it: a BFS over the router graph from the nodes of its
//!    mapped neighbors stops at the **first level containing a feasible
//!    node** (the early-exit), and among that level's candidates the
//!    one with minimum WH increase wins.
//!
//! Per the paper, the algorithm is run for `NBFS ∈ {0, 1}` and the
//! mapping with the lower WH is returned. `NBFS` here counts far seeds
//! placed *in addition to* `t_MSRV` (see DESIGN.md — the paper's
//! pseudocode makes 0 and 1 coincide if `t_MSRV` counts as mapped).
//!
//! Candidate scoring runs on the shared batch gain kernel of
//! `crate::gain` (DESIGN.md §17): one pass over the pivot's edges
//! gathers its mapped neighbors (the kernel's panel), its unmapped
//! neighbors (the `conn` updates the following placement commit
//! replays) and the BFS seed routers; a compact slot×slot distance
//! panel built once per call answers every hop lookup from a few
//! cache-resident KB instead of the full oracle table; and per-task /
//! per-slot router tables remove every hot-loop division. Since the
//! winning candidate level is level 0 for most placements once the
//! mapping has grown, the BFS itself is skipped whenever a seed router
//! is feasible. Every shortcut is decision-identical to the frozen
//! reference engine in `tests/reference/greedy.rs` —
//! `tests/greedy_differential.rs` asserts bit-identical mappings and WH
//! across backends, oracle on/off, and warm/cold scratch.
//!
//! All per-run buffers live in a reusable [`GreedyScratch`]; a warm
//! scratch makes repeated runs allocation-free (DESIGN.md §8). The
//! `NBFS` candidates run one after the other on that scratch.

use umpa_ds::{EpochMarker, IndexedMaxHeap};
use umpa_graph::{Bfs, TaskGraph};
use umpa_topology::{Allocation, Machine};

use crate::gain::{fill_place_costs, HopDist};
use crate::mapping::fits;

/// Configuration of the greedy mapper.
#[derive(Clone, Debug)]
pub struct GreedyConfig {
    /// The `NBFS` values to try; the lowest-WH mapping wins.
    pub nbfs_candidates: Vec<u32>,
    /// Heterogeneity pre-pass (Section III-A: "when the number of
    /// processors in the nodes are not uniform, we map the groups of
    /// tasks with different weights at the beginning … since their
    /// nodes are almost decided due to their uniqueness"): tasks
    /// heavier than this fraction of the largest node capacity are
    /// placed first, in descending weight order, so they still fit.
    pub heavy_first_fraction: f64,
}

// tidy-cold-region: config construction happens once per run, before the mapping loop
impl Default for GreedyConfig {
    fn default() -> Self {
        Self {
            nbfs_candidates: vec![0, 1],
            heavy_first_fraction: 0.5,
        }
    }
}
// tidy-end-cold-region

/// Counters from the most recent [`greedy_map_into`] call, accumulated across its `NBFS` candidate
/// runs: how much candidate scoring the batch gain kernel did, and how
/// much of its distance traffic the compact slot panel absorbed.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyRunStats {
    /// Candidate placements scored by the batch gain kernel.
    pub probes: u64,
    /// Distance lookups answered from cache-resident panel rows
    /// (candidate scoring plus the final WH evaluation). Zero when the
    /// allocation exceeds the panel size cap and the per-lookup
    /// fallback ran instead.
    pub row_hits: u64,
}

/// Reusable buffers for one greedy run — BFS workspaces, the `conn`
/// heap, capacity vectors, the gain-kernel panels and the
/// candidate/best mapping buffers. All sized lazily on first use and
/// reused (allocation-free once warm).
#[derive(Default)]
pub struct GreedyScratch {
    /// Working mapping of the current candidate run.
    mapping: Vec<u32>,
    /// Best mapping across candidate runs.
    best: Vec<u32>,
    free: Vec<f64>,
    nonempty_slots: Vec<u32>,
    slot_nonempty: Vec<bool>,
    conn: IndexedMaxHeap,
    bfs_tasks: Bfs,
    bfs_routers: Bfs,
    sources: Vec<u32>,
    heavy: Vec<u32>,
    /// Slot of each mapped task (`u32::MAX` = unmapped); doubles as
    /// the mapped test in the hot loops.
    task_slot: Vec<u32>,
    /// Router of each mapped task — one table store per placement
    /// commit instead of one division per neighbor visit.
    task_router: Vec<u32>,
    /// Router of each allocated slot, built once per call.
    slot_router: Vec<u32>,
    /// Compact slot×slot hop panel ([`HopDist::build_slot_panel`]).
    panel: Vec<u16>,
    /// Panel stride (= slot count); 0 = per-lookup fallback mode.
    panel_stride: usize,
    /// Mapped-neighbor positions (slots in panel mode, routers in
    /// fallback mode) and weights, gathered once per placement.
    nb_keys: Vec<u32>,
    nb_ws: Vec<f64>,
    /// Unmapped neighbors of the pivot, gathered in the same pass; the
    /// placement commit feeds them to the `conn` heap without a second
    /// edge scan.
    unm_ids: Vec<u32>,
    unm_ws: Vec<f64>,
    /// Candidate positions/nodes/slots/costs of the current placement.
    cand_keys: Vec<u32>,
    cand_nodes: Vec<u32>,
    cand_slots: Vec<u32>,
    cand_costs: Vec<f64>,
    /// Per-call router marks (source dedup, feasible-router counting).
    router_mark: EpochMarker,
    /// Feasible-router marks for the BFS fallback: infeasible pops
    /// cost one epoch check instead of a node scan.
    feas_mark: EpochMarker,
    stats: GreedyRunStats,
}

impl GreedyScratch {
    /// Creates an empty scratch; buffers are sized on first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Kernel counters from the most recent mapping call.
    pub fn stats(&self) -> GreedyRunStats {
        self.stats
    }
}

/// Weighted hops of a mapping. Distances come from the machine's
/// [`DistanceOracle`](umpa_topology::DistanceOracle) table when built
/// and from the analytic backend otherwise (via `HopDist`, which
/// hoists the oracle check out of the per-message loop); the sums are
/// bit-identical because hop counts are exact integers either way.
pub fn weighted_hops(tg: &TaskGraph, machine: &Machine, mapping: &[u32]) -> f64 {
    let dist = HopDist::new(machine);
    tg.messages()
        .map(|(s, t, c)| f64::from(dist.node_hops(mapping[s as usize], mapping[t as usize])) * c)
        .sum()
}

/// Runs Algorithm 1 for every `NBFS` in the config, writes the mapping
/// with the lowest WH into `out` (ties toward the earlier candidate)
/// and returns its WH. Allocation-free once `scratch` and `out` are
/// warm.
pub fn greedy_map_into(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    cfg: &GreedyConfig,
    scratch: &mut GreedyScratch,
    out: &mut Vec<u32>,
) -> f64 {
    // tidy-allow: panic-freedom (API precondition on entry: an empty candidate list has no defined result)
    assert!(!cfg.nbfs_candidates.is_empty());
    prepare(machine, alloc, scratch);
    let mut best_wh = f64::INFINITY;
    for &nbfs in &cfg.nbfs_candidates {
        let wh = run_greedy(tg, machine, alloc, nbfs, cfg.heavy_first_fraction, scratch);
        if wh < best_wh {
            best_wh = wh;
            std::mem::swap(&mut scratch.best, &mut scratch.mapping);
        }
    }
    out.clear();
    out.extend_from_slice(&scratch.best);
    best_wh
}

/// Per-call setup shared by every entry point: reset the kernel
/// counters, (re)build the compact slot panel and the slot→router
/// table for this allocation. `run_greedy` assumes these match `alloc`.
fn prepare(machine: &Machine, alloc: &Allocation, scratch: &mut GreedyScratch) {
    scratch.stats = GreedyRunStats::default();
    scratch.panel_stride = HopDist::new(machine).build_slot_panel(alloc, &mut scratch.panel);
    scratch.slot_router.clear();
    scratch
        .slot_router
        .extend((0..alloc.num_nodes()).map(|s| machine.router_of(alloc.node(s))));
}

/// One full greedy run; leaves the mapping in `scratch.mapping` and
/// returns its WH.
fn run_greedy(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    nbfs: u32,
    heavy_first_fraction: f64,
    scratch: &mut GreedyScratch,
) -> f64 {
    let n = tg.num_tasks();
    let mut state = State::new(tg, machine, alloc, scratch);
    if n == 0 {
        return 0.0;
    }
    let total_weight: f64 = (0..n as u32).map(|t| tg.task_weight(t)).sum();
    // tidy-allow: panic-freedom (API precondition checked on entry, before any placement: an undersized allocation cannot host a valid mapping)
    assert!(
        fits(f64::from(alloc.total_procs()), total_weight),
        "allocation too small: task weight {total_weight} > {} procs",
        alloc.total_procs()
    );
    // Heterogeneity pre-pass (Section III-A): with non-uniform node
    // capacities, heavy tasks fit fewer and fewer nodes as the mapping
    // fills up, so they are placed first in descending weight order.
    let caps = alloc.procs_all();
    let non_uniform = caps.windows(2).any(|w| w[0] != w[1]);
    if non_uniform {
        // tidy-allow: panic-freedom (unreachable: the weight invariant above guarantees at least one slot)
        let max_cap = f64::from(*caps.iter().max().unwrap());
        let threshold = heavy_first_fraction * max_cap;
        state.heavy.clear();
        state
            .heavy
            .extend((0..n as u32).filter(|&t| tg.task_weight(t) > threshold));
        // Unstable sort: in-place (keeps the warm-scratch path
        // allocation-free); the id tiebreak makes the order total, so
        // the result is identical to a stable sort.
        state.heavy.sort_unstable_by(|&a, &b| {
            tg.task_weight(b)
                .total_cmp(&tg.task_weight(a))
                .then(a.cmp(&b))
        });
        for i in 0..state.heavy.len() {
            let t = state.heavy[i];
            let (node, slot) = state.best_node_for(t);
            state.place_prepared(t, node, slot);
        }
    }
    // Map t_MSRV to an "arbitrary" node: the first allocated slot of
    // maximum capacity that still fits it (deterministic — `Reverse`
    // makes the earlier slot win capacity ties).
    // tidy-allow: panic-freedom (unreachable: the n == 0 early return above guarantees a nonempty graph)
    let t0 = tg.task_with_max_srv().expect("nonempty graph");
    if !state.is_mapped(t0) {
        let w0 = tg.task_weight(t0);
        let first_slot = (0..alloc.num_nodes())
            .filter(|&s| fits(state.free[s], w0))
            .max_by_key(|&s| (alloc.procs(s), std::cmp::Reverse(s)))
            // tidy-allow: panic-freedom (unreachable: the entry weight check proved total capacity covers all tasks)
            .expect("allocation has room for t0 by the weight invariant");
        state.place_fresh(t0, alloc.node(first_slot), first_slot as u32);
    }
    let mut seeds_placed = 0u32;
    while state.mapped_count < n {
        let tbest = if seeds_placed < nbfs {
            seeds_placed += 1;
            state.farthest_unmapped_task()
        } else {
            state.most_connected_task()
        };
        let (node, slot) = state.best_node_for(tbest);
        state.place_prepared(tbest, node, slot);
    }
    state.final_wh()
}

/// Working state of one greedy run, borrowing all buffers from a
/// [`GreedyScratch`].
struct State<'a> {
    tg: &'a TaskGraph,
    machine: &'a Machine,
    alloc: &'a Allocation,
    dist: HopDist<'a>,
    mapping: &'a mut Vec<u32>,
    task_slot: &'a mut Vec<u32>,
    task_router: &'a mut Vec<u32>,
    slot_router: &'a [u32],
    free: &'a mut Vec<f64>,
    nonempty_slots: &'a mut Vec<u32>,
    slot_nonempty: &'a mut Vec<bool>,
    conn: &'a mut IndexedMaxHeap,
    bfs_tasks: &'a mut Bfs,
    bfs_routers: &'a mut Bfs,
    sources: &'a mut Vec<u32>,
    heavy: &'a mut Vec<u32>,
    nb_keys: &'a mut Vec<u32>,
    nb_ws: &'a mut Vec<f64>,
    unm_ids: &'a mut Vec<u32>,
    unm_ws: &'a mut Vec<f64>,
    cand_keys: &'a mut Vec<u32>,
    cand_nodes: &'a mut Vec<u32>,
    cand_slots: &'a mut Vec<u32>,
    cand_costs: &'a mut Vec<f64>,
    router_mark: &'a mut EpochMarker,
    feas_mark: &'a mut EpochMarker,
    panel: &'a [u16],
    panel_stride: usize,
    stats: &'a mut GreedyRunStats,
    mapped_count: usize,
}

impl<'a> State<'a> {
    fn new(
        tg: &'a TaskGraph,
        machine: &'a Machine,
        alloc: &'a Allocation,
        scratch: &'a mut GreedyScratch,
    ) -> Self {
        let GreedyScratch {
            mapping,
            best: _,
            free,
            nonempty_slots,
            slot_nonempty,
            conn,
            bfs_tasks,
            bfs_routers,
            sources,
            heavy,
            task_slot,
            task_router,
            slot_router,
            panel,
            panel_stride,
            nb_keys,
            nb_ws,
            unm_ids,
            unm_ws,
            cand_keys,
            cand_nodes,
            cand_slots,
            cand_costs,
            router_mark,
            feas_mark,
            stats,
        } = scratch;
        let n_tasks = tg.num_tasks();
        let n_slots = alloc.num_nodes();
        mapping.clear();
        mapping.resize(n_tasks, u32::MAX);
        task_slot.clear();
        task_slot.resize(n_tasks, u32::MAX);
        task_router.clear();
        task_router.resize(n_tasks, u32::MAX);
        free.clear();
        free.extend((0..n_slots).map(|s| f64::from(alloc.procs(s))));
        nonempty_slots.clear();
        nonempty_slots.reserve(n_slots);
        slot_nonempty.clear();
        slot_nonempty.resize(n_slots, false);
        conn.reset(n_tasks);
        bfs_tasks.ensure(n_tasks);
        bfs_routers.ensure(machine.num_routers());
        router_mark.ensure_len(machine.num_routers());
        feas_mark.ensure_len(machine.num_routers());
        sources.clear();
        sources.reserve(n_tasks.max(machine.num_routers()));
        Self {
            tg,
            machine,
            alloc,
            dist: HopDist::new(machine),
            mapping,
            task_slot,
            task_router,
            slot_router,
            free,
            nonempty_slots,
            slot_nonempty,
            conn,
            bfs_tasks,
            bfs_routers,
            sources,
            heavy,
            nb_keys,
            nb_ws,
            unm_ids,
            unm_ws,
            cand_keys,
            cand_nodes,
            cand_slots,
            cand_costs,
            router_mark,
            feas_mark,
            panel: &panel[..],
            panel_stride: *panel_stride,
            stats,
            mapped_count: 0,
        }
    }

    #[inline]
    fn is_mapped(&self, t: u32) -> bool {
        self.mapping[t as usize] != u32::MAX
    }

    /// The commit common to both placement forms: the mapping and the
    /// position tables, capacity, and the non-empty list.
    #[inline]
    fn commit(&mut self, t: u32, node: u32, slot: u32) {
        debug_assert!(!self.is_mapped(t));
        debug_assert_eq!(self.alloc.slot_of(node), Some(slot));
        debug_assert!(fits(self.free[slot as usize], self.tg.task_weight(t)));
        self.mapping[t as usize] = node;
        self.task_slot[t as usize] = slot;
        self.task_router[t as usize] = self.slot_router[slot as usize];
        self.free[slot as usize] -= self.tg.task_weight(t);
        if !self.slot_nonempty[slot as usize] {
            self.slot_nonempty[slot as usize] = true;
            self.nonempty_slots.push(slot);
        }
        self.mapped_count += 1;
    }

    /// Commits `t` to `node` right after [`Self::best_node_for`] picked
    /// it: the `conn` heap updates (the paper's `conn.update` loop)
    /// replay the unmapped-neighbor list the candidate gather already
    /// collected — same tasks, same order, no second edge scan.
    fn place_prepared(&mut self, t: u32, node: u32, slot: u32) {
        self.commit(t, node, slot);
        self.conn.remove(t);
        for i in 0..self.unm_ids.len() {
            self.conn.add_to_key(self.unm_ids[i], self.unm_ws[i]);
        }
    }

    /// Commits `t` to `node` without a preceding candidate gather (the
    /// `t_MSRV` seed): scans the edges for the heap updates.
    fn place_fresh(&mut self, t: u32, node: u32, slot: u32) {
        self.commit(t, node, slot);
        self.conn.remove(t);
        for (n, c) in self.tg.symmetric().edges(t) {
            if !self.is_mapped(n) {
                self.conn.add_to_key(n, c);
            }
        }
    }

    /// The unmapped task with maximum connectivity to the mapped set;
    /// falls back to the max-SRV unmapped task when the heap is empty
    /// (disconnected task graphs).
    fn most_connected_task(&mut self) -> u32 {
        if let Some((t, _)) = self.conn.pop() {
            return t;
        }
        self.max_srv_unmapped()
            // tidy-allow: panic-freedom (unreachable: the caller loops while mapped_count < n, so an unmapped task exists)
            .expect("loop invariant: an unmapped task exists")
    }

    fn max_srv_unmapped(&self) -> Option<u32> {
        (0..self.tg.num_tasks() as u32)
            .filter(|&t| !self.is_mapped(t))
            .max_by(|&a, &b| self.tg.srv(a).total_cmp(&self.tg.srv(b)).then(b.cmp(&a)))
    }

    /// Farthest unmapped task from the mapped set via multi-source BFS
    /// on `Gt` (mapped tasks at level 0); ties favor higher SRV. Tasks
    /// in unreached components are "infinitely far": the max-SRV one of
    /// those wins outright (the paper's disconnected rule).
    fn farthest_unmapped_task(&mut self) -> u32 {
        self.sources.clear();
        for t in 0..self.tg.num_tasks() as u32 {
            if self.mapping[t as usize] != u32::MAX {
                self.sources.push(t);
            }
        }
        self.bfs_tasks.start(self.sources.iter().copied());
        let mut best: Option<(u32, u32)> = None; // (level, task)
        while let Some(ev) = self.bfs_tasks.next(self.tg.symmetric()) {
            if self.is_mapped(ev.vertex) {
                continue;
            }
            let better = match best {
                None => true,
                Some((lvl, t)) => {
                    ev.level > lvl
                        || (ev.level == lvl
                            && self
                                .tg
                                .srv(ev.vertex)
                                .total_cmp(&self.tg.srv(t))
                                .then(t.cmp(&ev.vertex))
                                .is_gt())
                }
            };
            if better {
                best = Some((ev.level, ev.vertex));
            }
        }
        // Unreached (disconnected) tasks take precedence.
        let unreached = (0..self.tg.num_tasks() as u32)
            .filter(|&t| !self.is_mapped(t) && !self.bfs_tasks.was_visited(t))
            .max_by(|&a, &b| self.tg.srv(a).total_cmp(&self.tg.srv(b)).then(b.cmp(&a)));
        unreached
            .or(best.map(|(_, t)| t))
            // tidy-allow: panic-freedom (unreachable: every unmapped task is either BFS-reached or in the unreached scan)
            .expect("an unmapped task must exist")
    }

    /// `GETBESTNODE` of Algorithm 1, on the batch gain kernel. Returns
    /// the chosen `(node, slot)`.
    fn best_node_for(&mut self, t: u32) -> (u32, u32) {
        let w = self.tg.task_weight(t);
        // One pass over the pivot's edges gathers the BFS seed routers
        // and the unmapped neighbors the commit will feed to the
        // `conn` heap. The kernel's neighbor keys/weights are gathered
        // lazily in [`Self::pick_best_candidate`]: with a mostly-full
        // allocation the typical placement has exactly one candidate,
        // whose cost is never needed.
        self.sources.clear();
        self.unm_ids.clear();
        self.unm_ws.clear();
        for (n, c) in self.tg.symmetric().edges(t) {
            if self.task_slot[n as usize] == u32::MAX {
                // A self-loop is skipped in both lists: the reference
                // sees `t` unmapped at gather time and mapped by heap
                // update time.
                if n != t {
                    self.unm_ids.push(n);
                    self.unm_ws.push(c);
                }
                continue;
            }
            self.sources.push(self.task_router[n as usize]);
        }
        if self.sources.is_empty() {
            return self.farthest_free_node(w);
        }
        // Level-0 fast path: the BFS would pop the deduped sources
        // first, in insertion order, and stop at level 0 if any hosts a
        // feasible node — the common case once the mapping has grown.
        // Scan them directly and skip the traversal machinery.
        self.cand_keys.clear();
        self.cand_nodes.clear();
        self.cand_slots.clear();
        self.router_mark.reset();
        for i in 0..self.sources.len() {
            let r = self.sources[i];
            if self.router_mark.mark(r as usize) {
                continue; // duplicate source; BFS keeps the first too
            }
            self.push_candidate(r, w);
        }
        if self.cand_keys.is_empty() {
            // Full early-exiting BFS. Level-0 pops rescan the (known
            // infeasible) sources; once the hit level is found, the
            // capped stepper stops expanding — its children would sit
            // past the hit level and never be consumed. Feasible
            // routers are pre-marked from the (small) slot list, so an
            // infeasible pop costs one epoch check instead of a node
            // scan — the traversal crosses many empty routers when the
            // far-seeded front grows away from the main one.
            self.feas_mark.reset();
            for s in 0..self.alloc.num_nodes() {
                if fits(self.free[s], w) {
                    self.feas_mark.mark(self.slot_router[s] as usize);
                }
            }
            self.bfs_routers.start(self.sources.iter().copied());
            let mut hit_level: Option<u32> = None;
            loop {
                let ev = match hit_level {
                    None => self.bfs_routers.next(self.machine.router_graph()),
                    Some(l) => self.bfs_routers.next_capped(self.machine.router_graph(), l),
                };
                let Some(ev) = ev else { break };
                if let Some(l) = hit_level {
                    if ev.level > l {
                        break;
                    }
                }
                if self.feas_mark.is_marked(ev.vertex as usize) {
                    self.push_candidate(ev.vertex, w);
                    hit_level = Some(ev.level);
                }
            }
        }
        self.pick_best_candidate(t)
    }

    /// Appends router `r`'s candidate (its first feasible node) to the
    /// batch, if it has one. One candidate per router is exact: every
    /// node of a router has the bitwise-same placement cost (distance
    /// depends only on the router), and the strict-`<` selection keeps
    /// the first of equals — so the later feasible nodes the reference
    /// engine also evaluates can never win.
    #[inline]
    fn push_candidate(&mut self, r: u32, w: f64) {
        for node in self.machine.nodes_of_router(r) {
            let Some(slot) = self.alloc.slot_of(node) else {
                continue;
            };
            if !fits(self.free[slot as usize], w) {
                continue;
            }
            self.cand_keys
                .push(if self.panel_stride > 0 { slot } else { r });
            self.cand_nodes.push(node);
            self.cand_slots.push(slot);
            return;
        }
    }

    /// Scores the gathered candidate batch with the shared kernel and
    /// returns the minimum-cost `(node, slot)` (first of equals,
    /// matching the reference's strict-`<` scan in BFS order). A
    /// single-candidate batch short-circuits: its cost cannot affect
    /// the argmin, so the neighbor panel is never even gathered.
    fn pick_best_candidate(&mut self, t: u32) -> (u32, u32) {
        debug_assert!(!self.cand_keys.is_empty());
        self.stats.probes += self.cand_keys.len() as u64;
        if self.cand_keys.len() == 1 {
            return (self.cand_nodes[0], self.cand_slots[0]);
        }
        // Lazily gather the kernel's neighbor panel: position (slot in
        // panel mode, router in fallback mode) and weight per mapped
        // neighbor of `t`, in adjacency order — the order the cost
        // terms accumulate in.
        let panel_mode = self.panel_stride > 0;
        self.nb_keys.clear();
        self.nb_ws.clear();
        for (n, c) in self.tg.symmetric().edges(t) {
            let slot = self.task_slot[n as usize];
            if slot == u32::MAX {
                continue;
            }
            self.nb_keys.push(if panel_mode {
                slot
            } else {
                self.task_router[n as usize]
            });
            self.nb_ws.push(c);
        }
        if panel_mode {
            fill_place_costs(
                self.panel,
                self.panel_stride,
                self.nb_keys,
                self.nb_ws,
                self.cand_keys,
                self.cand_costs,
            );
            self.stats.row_hits += (self.cand_keys.len() * self.nb_keys.len()) as u64;
        } else {
            self.dist.fill_place_costs_hops(
                self.nb_keys,
                self.nb_ws,
                self.cand_keys,
                self.cand_costs,
            );
        }
        let mut best = 0;
        for i in 1..self.cand_costs.len() {
            if self.cand_costs[i] < self.cand_costs[best] {
                best = i;
            }
        }
        (self.cand_nodes[best], self.cand_slots[best])
    }

    /// For tasks with no mapped neighbor: one of the farthest free
    /// allocated nodes from the non-empty set (multi-source BFS on the
    /// router graph). The first feasible node of the deepest feasible
    /// level is returned.
    fn farthest_free_node(&mut self, w: f64) -> (u32, u32) {
        if self.nonempty_slots.is_empty() {
            // No placement context at all: first feasible slot.
            let slot = (0..self.alloc.num_nodes())
                .find(|&s| fits(self.free[s], w))
                // tidy-allow: panic-freedom (unreachable: the entry weight check proved a feasible slot remains for every pivot)
                .expect("allocation has free capacity");
            return (self.alloc.node(slot), slot as u32);
        }
        // Mark the routers that still host a feasible slot, so the BFS
        // below tests feasibility with one load instead of a node scan
        // — and can stop once every feasible router has been seen:
        // later events are all infeasible and the deepest-first winner
        // is already fixed.
        self.router_mark.reset();
        let mut remaining = 0u32;
        for s in 0..self.alloc.num_nodes() {
            if fits(self.free[s], w) && !self.router_mark.mark(self.slot_router[s] as usize) {
                remaining += 1;
            }
        }
        self.sources.clear();
        for i in 0..self.nonempty_slots.len() {
            let s = self.nonempty_slots[i];
            self.sources.push(self.slot_router[s as usize]);
        }
        self.bfs_routers.start(self.sources.iter().copied());
        let mut best: Option<(u32, u32, u32)> = None; // (level, node, slot)
        while let Some(ev) = self.bfs_routers.next(self.machine.router_graph()) {
            if !self.router_mark.is_marked(ev.vertex as usize) {
                continue;
            }
            // Keep only the first candidate of the deepest level: its
            // first feasible node (later nodes never replace it).
            if best.is_none_or(|(lvl, _, _)| ev.level > lvl) {
                let (node, slot) = self
                    .machine
                    .nodes_of_router(ev.vertex)
                    .find_map(|n| {
                        let slot = self.alloc.slot_of(n)?;
                        fits(self.free[slot as usize], w).then_some((n, slot))
                    })
                    // tidy-allow: panic-freedom (unreachable: the pre-mark pass only marks routers holding a feasible slot)
                    .expect("marked router has a feasible slot");
                best = Some((ev.level, node, slot));
            }
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        best.map(|(_, n, s)| (n, s))
            // tidy-allow: panic-freedom (unreachable: the entry weight check proved a feasible slot remains for every pivot)
            .expect("allocation has free capacity by the weight invariant")
    }

    /// WH of the finished mapping — panel rows when available. The
    /// manual loop walks the directed CSR in the exact order
    /// `TaskGraph::messages` yields (vertices ascending, edges in CSR
    /// order) with the sender's panel row hoisted; same terms, same
    /// order, same exact integer distances as the per-lookup
    /// [`weighted_hops`], hence bit-identical.
    fn final_wh(&mut self) -> f64 {
        if self.panel_stride == 0 {
            return weighted_hops(self.tg, self.machine, self.mapping);
        }
        let stride = self.panel_stride;
        let mut wh = 0.0;
        for s in 0..self.tg.num_tasks() as u32 {
            let row = &self.panel[self.task_slot[s as usize] as usize * stride..][..stride];
            for (t, c) in self.tg.out_edges(s) {
                wh += f64::from(row[self.task_slot[t as usize] as usize]) * c;
            }
        }
        self.stats.row_hits += self.tg.num_messages() as u64;
        wh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate_mapping;
    use umpa_topology::{AllocSpec, MachineConfig};

    fn machine() -> Machine {
        MachineConfig::small(&[4, 4], 1, 1).build()
    }

    /// Algorithm 1 over `cfg`'s candidates on a fresh scratch.
    fn greedy_fresh(
        tg: &TaskGraph,
        machine: &Machine,
        alloc: &Allocation,
        cfg: &GreedyConfig,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        greedy_map_into(tg, machine, alloc, cfg, &mut GreedyScratch::new(), &mut out);
        out
    }

    /// Runs Algorithm 1 with a fixed number of far seeds (default
    /// heterogeneity pre-pass threshold).
    fn greedy_map_with(
        tg: &TaskGraph,
        machine: &Machine,
        alloc: &Allocation,
        nbfs: u32,
    ) -> Vec<u32> {
        let mut scratch = GreedyScratch::new();
        prepare(machine, alloc, &mut scratch);
        run_greedy(tg, machine, alloc, nbfs, 0.5, &mut scratch);
        std::mem::take(&mut scratch.mapping)
    }

    /// A 4-task chain with one heavy hub.
    fn chain() -> TaskGraph {
        TaskGraph::from_messages(4, [(0, 1, 10.0), (1, 2, 10.0), (2, 3, 10.0)], None)
    }

    #[test]
    fn produces_a_valid_one_to_one_mapping() {
        let m = machine();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(4, 1));
        let tg = chain();
        let mapping = greedy_fresh(&tg, &m, &alloc, &GreedyConfig::default());
        validate_mapping(&tg, &alloc, &mapping).unwrap();
        // One task per node (capacity 1): all nodes distinct.
        let mut nodes = mapping.clone();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn chain_neighbors_land_adjacent_on_contiguous_alloc() {
        let m = machine();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::contiguous(4));
        let tg = chain();
        let mapping = greedy_fresh(&tg, &m, &alloc, &GreedyConfig::default());
        // A chain on a contiguous 4-node strip: optimal WH has every
        // neighbor pair at distance 1 => WH = 30.
        let wh = weighted_hops(&tg, &m, &mapping);
        assert!(wh <= 40.0, "greedy WH {wh} too far from optimal 30");
    }

    #[test]
    fn beats_a_reversed_random_placement_on_average() {
        let m = machine();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(8, 3));
        // Ring of 8 tasks.
        let tg = TaskGraph::from_messages(
            8,
            (0..8u32).map(|i| (i, (i + 1) % 8, 1.0 + f64::from(i % 3))),
            None,
        );
        let greedy = greedy_fresh(&tg, &m, &alloc, &GreedyConfig::default());
        // Adversarial placement: tasks in allocation order but shifted
        // by half the ring (pairs far apart).
        let adversarial: Vec<u32> = (0..8usize).map(|t| alloc.node((t * 5) % 8)).collect();
        let g_wh = weighted_hops(&tg, &m, &greedy);
        let a_wh = weighted_hops(&tg, &m, &adversarial);
        assert!(g_wh <= a_wh, "greedy {g_wh} vs adversarial {a_wh}");
    }

    #[test]
    fn respects_multi_task_capacity() {
        let m = MachineConfig::small(&[4, 4], 1, 4).build();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::contiguous(2));
        let tg = TaskGraph::from_messages(8, (0..7u32).map(|i| (i, i + 1, 1.0)), None);
        let mapping = greedy_fresh(&tg, &m, &alloc, &GreedyConfig::default());
        validate_mapping(&tg, &alloc, &mapping).unwrap();
    }

    #[test]
    fn disconnected_components_all_get_mapped() {
        let m = machine();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::contiguous(6));
        // Two disjoint triangles.
        let tg = TaskGraph::from_messages(
            6,
            [
                (0, 1, 2.0),
                (1, 2, 2.0),
                (2, 0, 2.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 3, 1.0),
            ],
            None,
        );
        for nbfs in [0, 1, 2] {
            let mapping = greedy_map_with(&tg, &m, &alloc, nbfs);
            validate_mapping(&tg, &alloc, &mapping).unwrap();
        }
    }

    #[test]
    fn far_seed_spreads_disconnected_components() {
        let m = MachineConfig::small(&[8], 1, 1).build();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::contiguous(8));
        // Two disjoint pairs; with a far seed the second pair should not
        // crowd the first.
        let tg = TaskGraph::from_messages(4, [(0, 1, 5.0), (2, 3, 5.0)], None);
        let mapping = greedy_map_with(&tg, &m, &alloc, 1);
        validate_mapping(&tg, &alloc, &mapping).unwrap();
        // Pairs themselves should be adjacent (free capacity abounds).
        assert!(m.hops(mapping[0], mapping[1]) <= 1);
        assert!(m.hops(mapping[2], mapping[3]) <= 1);
    }

    #[test]
    fn isolated_tasks_are_still_placed() {
        let m = machine();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::contiguous(3));
        let tg = TaskGraph::from_messages(3, [(0, 1, 1.0)], None); // task 2 isolated
        let mapping = greedy_fresh(&tg, &m, &alloc, &GreedyConfig::default());
        validate_mapping(&tg, &alloc, &mapping).unwrap();
        assert_ne!(mapping[2], u32::MAX);
    }

    #[test]
    fn nbfs_variants_agree_on_validity_and_pick_lower_wh() {
        let m = machine();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(6, 5));
        let tg = TaskGraph::from_messages(
            6,
            [
                (0, 1, 3.0),
                (1, 2, 1.0),
                (3, 4, 3.0),
                (4, 5, 1.0),
                (0, 3, 0.5),
            ],
            None,
        );
        let w0 = weighted_hops(&tg, &m, &greedy_map_with(&tg, &m, &alloc, 0));
        let w1 = weighted_hops(&tg, &m, &greedy_map_with(&tg, &m, &alloc, 1));
        let combined = weighted_hops(
            &tg,
            &m,
            &greedy_fresh(&tg, &m, &alloc, &GreedyConfig::default()),
        );
        assert!((combined - w0.min(w1)).abs() < 1e-9);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let m = machine();
        let tg = TaskGraph::from_messages(
            8,
            (0..8u32).flat_map(|i| [(i, (i + 1) % 8, 2.0), (i, (i + 4) % 8, 1.0)]),
            None,
        );
        let cfg = GreedyConfig::default();
        let mut scratch = GreedyScratch::new();
        let mut out = Vec::new();
        // Different allocations back to back through one warm scratch.
        for seed in 0..6u64 {
            let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(8, seed));
            greedy_map_into(&tg, &m, &alloc, &cfg, &mut scratch, &mut out);
            let fresh = greedy_fresh(&tg, &m, &alloc, &cfg);
            assert_eq!(out, fresh, "seed {seed}: warm scratch diverged");
        }
    }

    #[test]
    fn heterogeneous_capacities_place_heavy_tasks_first() {
        // Nodes with capacities [4, 2, 2]; tasks with weights
        // [4, 2, 2]. Without the pre-pass, placing a weight-2 task on
        // the capacity-4 node first would strand the weight-4 task.
        let m = MachineConfig::small(&[8], 1, 4).build();
        let mut alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::contiguous(3));
        alloc.set_procs(vec![4, 2, 2]);
        let tg = TaskGraph::from_messages(
            3,
            [(0, 1, 1.0), (1, 2, 5.0), (2, 0, 1.0)],
            Some(vec![4.0, 2.0, 2.0]),
        );
        for nbfs in [0, 1] {
            let mapping = greedy_map_with(&tg, &m, &alloc, nbfs);
            validate_mapping(&tg, &alloc, &mapping).unwrap();
            // The weight-4 task must sit on the capacity-4 node.
            assert_eq!(mapping[0], alloc.node(0), "nbfs={nbfs}");
        }
    }

    #[test]
    fn uniform_capacities_skip_the_pre_pass() {
        // With uniform capacities the pre-pass must not fire (it would
        // degrade the greedy order): results equal the documented path.
        let m = machine();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(4, 1));
        let tg = chain();
        let a = greedy_map_with(&tg, &m, &alloc, 0);
        let cfg = GreedyConfig {
            nbfs_candidates: vec![0],
            heavy_first_fraction: 0.0, // would catch everything if it fired
        };
        let b = greedy_fresh(&tg, &m, &alloc, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn t0_lands_on_the_earliest_slot_when_capacities_tie() {
        // Regression for the documented "prefer the earlier slot on
        // ties" rule: on an all-equal-capacity allocation t_MSRV must
        // land on slot 0, for any slot count and seed.
        let m = machine();
        let tg = chain();
        let t0 = tg.task_with_max_srv().unwrap();
        for seed in 0..5u64 {
            let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(6, seed));
            let mapping = greedy_map_with(&tg, &m, &alloc, 0);
            assert_eq!(mapping[t0 as usize], alloc.node(0), "seed {seed}");
        }
    }

    #[test]
    fn kernel_stats_are_populated_and_panel_backed_on_small_allocs() {
        let m = machine();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(8, 3));
        let tg = TaskGraph::from_messages(
            8,
            (0..8u32).map(|i| (i, (i + 1) % 8, 1.0 + f64::from(i % 3))),
            None,
        );
        let mut scratch = GreedyScratch::new();
        let mut out = Vec::new();
        greedy_map_into(
            &tg,
            &m,
            &alloc,
            &GreedyConfig::default(),
            &mut scratch,
            &mut out,
        );
        let stats = scratch.stats();
        assert!(stats.probes > 0, "no candidates scored");
        assert!(stats.row_hits > 0, "panel should serve a small allocation");
    }

    #[test]
    #[should_panic(expected = "allocation too small")]
    fn oversubscription_panics() {
        let m = machine();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::contiguous(2));
        let tg = chain();
        greedy_fresh(&tg, &m, &alloc, &GreedyConfig::default());
    }
}
