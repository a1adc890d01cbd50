//! The **pre-rewrite** greedy mapping engine, preserved as the
//! differential-testing reference for the rewritten hot path in
//! `umpa_core::greedy`.
//!
//! This is the gain-kernel PR's frozen copy of Algorithm 1 as it stood
//! before: every candidate node re-scans the pivot task's neighbor list
//! through `Machine::hops` (an `OnceLock` check and two router
//! divisions per distance), the router BFS expands every popped vertex
//! even after the feasible level is known, and the final WH is summed
//! through per-message oracle-table lookups. The rewritten engine must
//! stay **bit-identical** to this one — same seed choices, same BFS
//! candidate order, same tie-breaks, same mapping and same returned WH
//! bits — which `tests/greedy_differential.rs` asserts across the
//! backend × oracle × scratch matrix.
//!
//! It lives in the test tree: only the differential test includes it.

use umpa::core::greedy::GreedyConfig;
use umpa::core::mapping::fits;
use umpa::ds::IndexedMaxHeap;
use umpa::graph::{Bfs, TaskGraph};
use umpa::topology::{Allocation, Machine};

use crate::hop_dist::HopDist;

/// Reusable buffers of the reference engine (the pre-rewrite
/// `GreedyScratch`, verbatim).
#[derive(Default)]
pub struct GreedyReferenceScratch {
    mapping: Vec<u32>,
    best: Vec<u32>,
    free: Vec<f64>,
    nonempty_slots: Vec<u32>,
    slot_nonempty: Vec<bool>,
    conn: IndexedMaxHeap,
    bfs_tasks: Bfs,
    bfs_routers: Bfs,
    sources: Vec<u32>,
    heavy: Vec<u32>,
}

impl GreedyReferenceScratch {
    /// Creates an empty scratch; buffers are sized on first run.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The pre-rewrite `weighted_hops`, kept private to the freeze so the
/// reference is self-contained even if the live helper evolves.
fn weighted_hops_reference(tg: &TaskGraph, machine: &Machine, mapping: &[u32]) -> f64 {
    let dist = HopDist::new(machine);
    tg.messages()
        .map(|(s, t, c)| f64::from(dist.node_hops(mapping[s as usize], mapping[t as usize])) * c)
        .sum()
}

/// The pre-rewrite `greedy_map_into`, verbatim: runs Algorithm 1 for
/// every `NBFS` candidate sequentially, writes the winning mapping into
/// `out` and returns its WH.
pub fn greedy_map_into_reference(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    cfg: &GreedyConfig,
    scratch: &mut GreedyReferenceScratch,
    out: &mut Vec<u32>,
) -> f64 {
    assert!(!cfg.nbfs_candidates.is_empty());
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

/// One full reference run; leaves the mapping in `scratch.mapping` and
/// returns its WH.
fn run_greedy(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    nbfs: u32,
    heavy_first_fraction: f64,
    scratch: &mut GreedyReferenceScratch,
) -> f64 {
    let n = tg.num_tasks();
    let mut state = State::new(tg, machine, alloc, scratch);
    if n == 0 {
        return 0.0;
    }
    let total_weight: f64 = (0..n as u32).map(|t| tg.task_weight(t)).sum();
    assert!(
        fits(f64::from(alloc.total_procs()), total_weight),
        "allocation too small: task weight {total_weight} > {} procs",
        alloc.total_procs()
    );
    let caps = alloc.procs_all();
    let non_uniform = caps.windows(2).any(|w| w[0] != w[1]);
    if non_uniform {
        let max_cap = f64::from(*caps.iter().max().unwrap());
        let threshold = heavy_first_fraction * max_cap;
        state.heavy.clear();
        state
            .heavy
            .extend((0..n as u32).filter(|&t| tg.task_weight(t) > threshold));
        state.heavy.sort_unstable_by(|&a, &b| {
            tg.task_weight(b)
                .partial_cmp(&tg.task_weight(a))
                .unwrap()
                .then(a.cmp(&b))
        });
        for i in 0..state.heavy.len() {
            let t = state.heavy[i];
            let node = state.best_node_for(t);
            state.place(t, node);
        }
    }
    let t0 = tg.task_with_max_srv().expect("nonempty graph");
    if !state.is_mapped(t0) {
        let w0 = tg.task_weight(t0);
        let first_slot = (0..alloc.num_nodes())
            .filter(|&s| fits(state.free[s], w0))
            .max_by(|&a, &b| alloc.procs(a).cmp(&alloc.procs(b)).then(b.cmp(&a)))
            .expect("allocation has room for t0 by the weight invariant");
        state.place(t0, alloc.node(first_slot));
    }
    let mut seeds_placed = 0u32;
    while state.mapped_count < n {
        let tbest = if seeds_placed < nbfs {
            seeds_placed += 1;
            state.farthest_unmapped_task()
        } else {
            state.most_connected_task()
        };
        let node = state.best_node_for(tbest);
        state.place(tbest, node);
    }
    weighted_hops_reference(tg, machine, state.mapping)
}

/// Working state of one reference run.
struct State<'a> {
    tg: &'a TaskGraph,
    machine: &'a Machine,
    alloc: &'a Allocation,
    mapping: &'a mut Vec<u32>,
    free: &'a mut Vec<f64>,
    nonempty_slots: &'a mut Vec<u32>,
    slot_nonempty: &'a mut Vec<bool>,
    conn: &'a mut IndexedMaxHeap,
    bfs_tasks: &'a mut Bfs,
    bfs_routers: &'a mut Bfs,
    sources: &'a mut Vec<u32>,
    heavy: &'a mut Vec<u32>,
    mapped_count: usize,
}

impl<'a> State<'a> {
    fn new(
        tg: &'a TaskGraph,
        machine: &'a Machine,
        alloc: &'a Allocation,
        scratch: &'a mut GreedyReferenceScratch,
    ) -> Self {
        let GreedyReferenceScratch {
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
        } = scratch;
        let n_tasks = tg.num_tasks();
        let n_slots = alloc.num_nodes();
        mapping.clear();
        mapping.resize(n_tasks, u32::MAX);
        free.clear();
        free.extend((0..n_slots).map(|s| f64::from(alloc.procs(s))));
        nonempty_slots.clear();
        nonempty_slots.reserve(n_slots);
        slot_nonempty.clear();
        slot_nonempty.resize(n_slots, false);
        conn.reset(n_tasks);
        bfs_tasks.ensure(n_tasks);
        bfs_routers.ensure(machine.num_routers());
        sources.clear();
        sources.reserve(n_tasks.max(machine.num_routers()));
        Self {
            tg,
            machine,
            alloc,
            mapping,
            free,
            nonempty_slots,
            slot_nonempty,
            conn,
            bfs_tasks,
            bfs_routers,
            sources,
            heavy,
            mapped_count: 0,
        }
    }

    #[inline]
    fn is_mapped(&self, t: u32) -> bool {
        self.mapping[t as usize] != u32::MAX
    }

    fn place(&mut self, t: u32, node: u32) {
        debug_assert!(!self.is_mapped(t));
        let slot = self.alloc.slot_of(node).expect("node not allocated") as usize;
        debug_assert!(fits(self.free[slot], self.tg.task_weight(t)));
        self.mapping[t as usize] = node;
        self.free[slot] -= self.tg.task_weight(t);
        if !self.slot_nonempty[slot] {
            self.slot_nonempty[slot] = true;
            self.nonempty_slots.push(slot as u32);
        }
        self.conn.remove(t);
        for (n, c) in self.tg.symmetric().edges(t) {
            if !self.is_mapped(n) {
                self.conn.add_to_key(n, c);
            }
        }
        self.mapped_count += 1;
    }

    fn most_connected_task(&mut self) -> u32 {
        if let Some((t, _)) = self.conn.pop() {
            return t;
        }
        self.max_srv_unmapped()
            .expect("loop invariant: an unmapped task exists")
    }

    fn max_srv_unmapped(&self) -> Option<u32> {
        (0..self.tg.num_tasks() as u32)
            .filter(|&t| !self.is_mapped(t))
            .max_by(|&a, &b| {
                self.tg
                    .srv(a)
                    .partial_cmp(&self.tg.srv(b))
                    .unwrap()
                    .then(b.cmp(&a))
            })
    }

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
                            && (self.tg.srv(ev.vertex), std::cmp::Reverse(ev.vertex))
                                > (self.tg.srv(t), std::cmp::Reverse(t)))
                }
            };
            if better {
                best = Some((ev.level, ev.vertex));
            }
        }
        let unreached = (0..self.tg.num_tasks() as u32)
            .filter(|&t| !self.is_mapped(t) && !self.bfs_tasks.was_visited(t))
            .max_by(|&a, &b| {
                self.tg
                    .srv(a)
                    .partial_cmp(&self.tg.srv(b))
                    .unwrap()
                    .then(b.cmp(&a))
            });
        unreached
            .or(best.map(|(_, t)| t))
            .expect("an unmapped task must exist")
    }

    fn wh_increase(&self, t: u32, node: u32) -> f64 {
        self.tg
            .symmetric()
            .edges(t)
            .filter(|&(n, _)| self.is_mapped(n))
            .map(|(n, c)| f64::from(self.machine.hops(node, self.mapping[n as usize])) * c)
            .sum()
    }

    fn best_node_for(&mut self, t: u32) -> u32 {
        let w = self.tg.task_weight(t);
        let has_mapped_neighbor = self
            .tg
            .symmetric()
            .neighbors(t)
            .iter()
            .any(|&n| self.is_mapped(n));
        if !has_mapped_neighbor {
            return self.farthest_free_node(w);
        }
        self.sources.clear();
        for &n in self.tg.symmetric().neighbors(t) {
            if self.mapping[n as usize] != u32::MAX {
                self.sources
                    .push(self.machine.router_of(self.mapping[n as usize]));
            }
        }
        self.bfs_routers.start(self.sources.iter().copied());
        let mut best: Option<(f64, u32)> = None;
        let mut hit_level: Option<u32> = None;
        while let Some(ev) = self.bfs_routers.next(self.machine.router_graph()) {
            if let Some(l) = hit_level {
                if ev.level > l {
                    break;
                }
            }
            for node in self.machine.nodes_of_router(ev.vertex) {
                let Some(slot) = self.alloc.slot_of(node) else {
                    continue;
                };
                if !fits(self.free[slot as usize], w) {
                    continue;
                }
                hit_level = Some(ev.level);
                let inc = self.wh_increase(t, node);
                if best.as_ref().is_none_or(|&(b, _)| inc < b) {
                    best = Some((inc, node));
                }
            }
        }
        best.map(|(_, n)| n)
            .expect("allocation has free capacity by the weight invariant")
    }

    fn farthest_free_node(&mut self, w: f64) -> u32 {
        if self.nonempty_slots.is_empty() {
            let slot = (0..self.alloc.num_nodes())
                .find(|&s| fits(self.free[s], w))
                .expect("allocation has free capacity");
            return self.alloc.node(slot);
        }
        self.sources.clear();
        for i in 0..self.nonempty_slots.len() {
            let s = self.nonempty_slots[i];
            self.sources
                .push(self.machine.router_of(self.alloc.node(s as usize)));
        }
        self.bfs_routers.start(self.sources.iter().copied());
        let mut best: Option<(u32, u32)> = None; // (level, node)
        while let Some(ev) = self.bfs_routers.next(self.machine.router_graph()) {
            for node in self.machine.nodes_of_router(ev.vertex) {
                let Some(slot) = self.alloc.slot_of(node) else {
                    continue;
                };
                if !fits(self.free[slot as usize], w) {
                    continue;
                }
                if best.is_none_or(|(lvl, _)| ev.level > lvl) {
                    best = Some((ev.level, node));
                }
            }
        }
        best.map(|(_, n)| n)
            .expect("allocation has free capacity by the weight invariant")
    }
}
