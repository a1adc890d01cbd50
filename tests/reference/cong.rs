//! The **pre-rewrite** congestion-refinement engine, preserved as the
//! differential-testing reference for the rewritten hot path in
//! `umpa_core::cong_refine`.
//!
//! This is the route-caching PR's frozen copy of the engine as it stood
//! before: every probe re-routes the affected edges twice (old and new
//! placement), deduplicates edges and link deltas with `O(k²)` linear
//! scans, and evaluates the virtual swap by re-keying the congestion
//! heap and rolling it back. The rewritten engine must stay
//! **bit-identical** to this one — same probe order, same accept rule,
//! same final mapping and `(MC, AC)` — which
//! `tests/cong_differential.rs` asserts across the backend × preset
//! matrix, with the route cache on and off.
//!
//! It lives in the test tree: only the differential test includes it.
//! The `commTasks` registry ([`LinkTaskSets`]) is shared with the live
//! engine — its semantics are identical in both and it was not part of
//! the rewrite.

use umpa::core::cong_refine::{CongRefineConfig, CongestionKind};
use umpa::core::eps::CONG_EPS;
use umpa::core::mapping::fits;
use umpa::ds::{IndexedMaxHeap, SlotBuckets};
use umpa::graph::{Bfs, TaskGraph};
use umpa::topology::{Allocation, Machine};

use crate::hop_dist::HopDist;

/// The pre-rewrite `commTasks` registry, verbatim: a per-link task-id
/// **multiset** (one occurrence per incident edge routed over the
/// link) with deferred normalization. The live engine now stores edge
/// ids instead; this copy stays frozen with the rest of the reference.
#[derive(Default)]
struct LinkTaskSets {
    items: Vec<Vec<u32>>,
    removed: Vec<Vec<u32>>,
    dirty: Vec<bool>,
}

impl LinkTaskSets {
    fn reset(&mut self, n: usize) {
        for s in &mut self.items {
            s.clear();
        }
        for s in &mut self.removed {
            s.clear();
        }
        self.dirty.clear();
        self.dirty.resize(self.items.len().max(n), false);
        if n > self.items.len() {
            self.items.resize_with(n, Vec::new);
            self.removed.resize_with(n, Vec::new);
        }
    }

    fn insert(&mut self, link: usize, t: u32) {
        self.items[link].push(t);
        self.dirty[link] = true;
    }

    fn remove(&mut self, link: usize, t: u32) {
        self.removed[link].push(t);
        self.dirty[link] = true;
        if self.removed[link].len() >= 16 && 2 * self.removed[link].len() >= self.items[link].len()
        {
            self.normalize(link);
        }
    }

    fn normalize(&mut self, link: usize) {
        if !self.dirty[link] {
            return;
        }
        let v = &mut self.items[link];
        let r = &mut self.removed[link];
        v.sort_unstable();
        r.sort_unstable();
        let mut w = 0usize;
        let mut j = 0usize;
        for i in 0..v.len() {
            let x = v[i];
            while j < r.len() && r[j] < x {
                j += 1;
            }
            if j < r.len() && r[j] == x {
                j += 1;
                continue;
            }
            v[w] = x;
            w += 1;
        }
        v.truncate(w);
        r.clear();
        self.dirty[link] = false;
    }

    fn collect_members_into(&mut self, link: usize, out: &mut Vec<u32>) {
        self.normalize(link);
        out.clear();
        let mut last = u32::MAX;
        for &t in &self.items[link] {
            if t != last {
                out.push(t);
                last = t;
            }
        }
    }
}

/// Runs the pre-rewrite congestion refinement (fresh internal buffers;
/// the reference is a test oracle, not a serving path). Returns the
/// final `(max, avg)` congestion like
/// `umpa_core::cong_refine::congestion_refine_scratch`.
pub fn congestion_refine_reference(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    mapping: &mut [u32],
    cfg: &CongRefineConfig,
) -> (f64, f64) {
    let mut scratch = RefScratch::default();
    let mut state = RefState::new(tg, machine, alloc, mapping, cfg.kind, &mut scratch);
    let mut moves = 0u32;
    'outer: while moves < cfg.max_moves {
        let Some((emc, top_key)) = state.heap.peek() else {
            break;
        };
        if top_key <= 0.0 {
            break; // no congestion at all
        }
        state
            .comm_tasks
            .collect_members_into(emc as usize, state.tasks);
        for i in 0..state.tasks.len() {
            let tmc = state.tasks[i];
            if state.try_improve_task(tmc, cfg.delta) {
                moves += 1;
                continue 'outer;
            }
        }
        break; // no improvement for the most congested link → stop
    }
    (state.current_max(), state.current_avg())
}

/// The pre-rewrite `CongScratch`, private to the reference.
#[derive(Default)]
struct RefScratch {
    heap: IndexedMaxHeap,
    traffic: Vec<f64>,
    inv_cost: Vec<f64>,
    comm_tasks: LinkTaskSets,
    buckets: SlotBuckets,
    free: Vec<f64>,
    bfs: Bfs,
    links: Vec<u32>,
    edges: Vec<(u32, u32, f64)>,
    deltas: Vec<(u32, f64)>,
    tasks: Vec<u32>,
    cand: Vec<(f64, u32)>,
    sources: Vec<u32>,
}

/// The pre-rewrite `CongState`, verbatim.
struct RefState<'a> {
    tg: &'a TaskGraph,
    machine: &'a Machine,
    alloc: &'a Allocation,
    dist: HopDist<'a>,
    mapping: &'a mut [u32],
    kind: CongestionKind,
    heap: &'a mut IndexedMaxHeap,
    traffic: &'a mut Vec<f64>,
    inv_cost: &'a mut Vec<f64>,
    comm_tasks: &'a mut LinkTaskSets,
    sum_key: f64,
    used_links: usize,
    buckets: &'a mut SlotBuckets,
    free: &'a mut Vec<f64>,
    bfs: &'a mut Bfs,
    links: &'a mut Vec<u32>,
    edges: &'a mut Vec<(u32, u32, f64)>,
    deltas: &'a mut Vec<(u32, f64)>,
    tasks: &'a mut Vec<u32>,
    cand: &'a mut Vec<(f64, u32)>,
    sources: &'a mut Vec<u32>,
}

impl<'a> RefState<'a> {
    fn new(
        tg: &'a TaskGraph,
        machine: &'a Machine,
        alloc: &'a Allocation,
        mapping: &'a mut [u32],
        kind: CongestionKind,
        scratch: &'a mut RefScratch,
    ) -> Self {
        let RefScratch {
            heap,
            traffic,
            inv_cost,
            comm_tasks,
            buckets,
            free,
            bfs,
            links,
            edges,
            deltas,
            tasks,
            cand,
            sources,
        } = scratch;
        let nl = machine.num_links();
        inv_cost.clear();
        inv_cost.extend((0..nl as u32).map(|l| match kind {
            CongestionKind::Volume => 1.0 / machine.link_bandwidth(l),
            CongestionKind::Messages => 1.0,
        }));
        buckets.reset(alloc.num_nodes(), tg.num_tasks());
        free.clear();
        free.extend((0..alloc.num_nodes()).map(|s| f64::from(alloc.procs(s))));
        for (t, &node) in mapping.iter().enumerate() {
            let slot = alloc.slot_of(node).expect("mapping must be feasible") as usize;
            buckets.insert(slot, t as u32);
            free[slot] -= tg.task_weight(t as u32);
        }
        traffic.clear();
        traffic.resize(nl, 0.0);
        comm_tasks.reset(nl);
        heap.reset(nl);
        bfs.ensure(machine.num_routers());
        let mut s = Self {
            tg,
            machine,
            alloc,
            dist: HopDist::new(machine),
            mapping,
            kind,
            heap,
            traffic,
            inv_cost,
            comm_tasks,
            sum_key: 0.0,
            used_links: 0,
            buckets,
            free,
            bfs,
            links,
            edges,
            deltas,
            tasks,
            cand,
            sources,
        };
        // Initial routing of every message (INITCONG).
        for (src, dst, c) in s.tg.messages() {
            let weight = s.edge_weight(c);
            let (a, b) = (s.mapping[src as usize], s.mapping[dst as usize]);
            s.links.clear();
            s.machine.route_links(a, b, s.links);
            for i in 0..s.links.len() {
                let l = s.links[i] as usize;
                if s.traffic[l] == 0.0 {
                    s.used_links += 1;
                }
                s.traffic[l] += weight;
                s.sum_key += weight * s.inv_cost[l];
                s.comm_tasks.insert(l, src);
                s.comm_tasks.insert(l, dst);
            }
        }
        for l in 0..nl as u32 {
            s.heap
                .push(l, s.traffic[l as usize] * s.inv_cost[l as usize]);
        }
        s
    }

    #[inline]
    fn edge_weight(&self, c: f64) -> f64 {
        match self.kind {
            CongestionKind::Volume => c,
            CongestionKind::Messages => c,
        }
    }

    fn current_max(&self) -> f64 {
        self.heap.peek().map_or(0.0, |(_, k)| k)
    }

    fn current_avg(&self) -> f64 {
        if self.used_links == 0 {
            0.0
        } else {
            self.sum_key / self.used_links as f64
        }
    }

    fn collect_affected_edges(&mut self, t1: u32, t2: Option<u32>) {
        self.edges.clear();
        fn push(out: &mut Vec<(u32, u32, f64)>, s: u32, d: u32, c: f64) {
            if !out.iter().any(|&(a, b, _)| a == s && b == d) {
                out.push((s, d, c));
            }
        }
        for t in std::iter::once(t1).chain(t2) {
            for (d, c) in self.tg.out_edges(t) {
                push(self.edges, t, d, c);
            }
            for (sr, c) in self.tg.in_edges(t) {
                push(self.edges, sr, t, c);
            }
        }
    }

    fn collect_deltas(&mut self, t1: u32, t2: Option<u32>, node2: u32) {
        let node1 = self.mapping[t1 as usize];
        self.deltas.clear();
        fn add(deltas: &mut Vec<(u32, f64)>, link: u32, d: f64) {
            match deltas.iter_mut().find(|e| e.0 == link) {
                Some(e) => e.1 += d,
                None => deltas.push((link, d)),
            }
        }
        // Old routes (current mapping) …
        for i in 0..self.edges.len() {
            let (s, d, c) = self.edges[i];
            let w = self.edge_weight(c);
            let (a, b) = (self.mapping[s as usize], self.mapping[d as usize]);
            self.links.clear();
            self.machine.route_links(a, b, self.links);
            for j in 0..self.links.len() {
                add(self.deltas, self.links[j], -w);
            }
        }
        // … and new routes under the virtual relocation.
        for i in 0..self.edges.len() {
            let (s, d, c) = self.edges[i];
            let w = self.edge_weight(c);
            let node_of = |t: u32| -> u32 {
                if t == t1 {
                    node2
                } else if Some(t) == t2 {
                    node1
                } else {
                    self.mapping[t as usize]
                }
            };
            let (a, b) = (node_of(s), node_of(d));
            self.links.clear();
            self.machine.route_links(a, b, self.links);
            for j in 0..self.links.len() {
                add(self.deltas, self.links[j], w);
            }
        }
        self.deltas.retain(|&(_, d)| d != 0.0);
    }

    fn apply_deltas(&mut self, negate: bool) -> (f64, f64) {
        let sign = if negate { -1.0 } else { 1.0 };
        for i in 0..self.deltas.len() {
            let (l, raw) = self.deltas[i];
            let d = sign * raw;
            let li = l as usize;
            let before = self.traffic[li];
            let after = before + d;
            if before == 0.0 && after > 0.0 {
                self.used_links += 1;
            } else if before > 0.0 && after <= CONG_EPS {
                self.used_links -= 1;
            }
            self.traffic[li] = if after.abs() < CONG_EPS { 0.0 } else { after };
            self.sum_key += d * self.inv_cost[li];
            self.heap
                .change_key(l, self.traffic[li] * self.inv_cost[li]);
        }
        (self.current_max(), self.current_avg())
    }

    fn update_comm_tasks(&mut self, remove: bool) {
        for i in 0..self.edges.len() {
            let (s, d, _) = self.edges[i];
            let (a, b) = (self.mapping[s as usize], self.mapping[d as usize]);
            self.links.clear();
            self.machine.route_links(a, b, self.links);
            for j in 0..self.links.len() {
                let l = self.links[j] as usize;
                if remove {
                    self.comm_tasks.remove(l, s);
                    self.comm_tasks.remove(l, d);
                } else {
                    self.comm_tasks.insert(l, s);
                    self.comm_tasks.insert(l, d);
                }
            }
        }
    }

    fn probe(
        &mut self,
        tmc: u32,
        t2: Option<u32>,
        node1: u32,
        node2: u32,
        mc: f64,
        ac: f64,
    ) -> bool {
        self.collect_affected_edges(tmc, t2);
        self.collect_deltas(tmc, t2, node2);
        let (new_mc, new_ac) = self.apply_deltas(false);
        let improves =
            new_mc < mc - CONG_EPS || (new_mc <= mc + CONG_EPS && new_ac < ac - CONG_EPS);
        if improves {
            // Commit: fix commTasks (old routes removed with the
            // *pre-move* mapping), then move tasks.
            self.apply_deltas(true);
            self.update_comm_tasks(true);
            self.apply_deltas(false);
            self.relocate(tmc, t2, node1, node2);
            self.update_comm_tasks(false);
            return true;
        }
        // Roll back the virtual swap.
        self.apply_deltas(true);
        false
    }

    fn try_improve_task(&mut self, tmc: u32, delta: usize) -> bool {
        let node1 = self.mapping[tmc as usize];
        let w1 = self.tg.task_weight(tmc);
        let slot1 = self.alloc.slot_of(node1).unwrap() as usize;
        self.sources.clear();
        for &nb in self.tg.symmetric().neighbors(tmc) {
            self.sources
                .push(self.machine.router_of(self.mapping[nb as usize]));
        }
        if self.sources.is_empty() {
            return false;
        }
        let (mc, ac) = (self.current_max(), self.current_avg());
        self.bfs.start(self.sources.iter().copied());
        let mut evaluated = 0usize;
        while let Some(ev) = self.bfs.next(self.machine.router_graph()) {
            for node2 in self.machine.nodes_of_router(ev.vertex) {
                if node2 == node1 {
                    continue;
                }
                let Some(slot2) = self.alloc.slot_of(node2) else {
                    continue;
                };
                let slot2 = slot2 as usize;
                self.cand.clear();
                for t in self.buckets.iter(slot2) {
                    let w2 = self.tg.task_weight(t);
                    if !fits(self.free[slot2] + w2, w1) || !fits(self.free[slot1] + w1, w2) {
                        continue;
                    }
                    let damage = -self
                        .dist
                        .swap_gain(self.tg, self.mapping, tmc, Some(t), node2);
                    self.cand.push((damage, t));
                }
                self.cand
                    .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for i in 0..self.cand.len() {
                    let t = self.cand[i].1;
                    if self.probe(tmc, Some(t), node1, node2, mc, ac) {
                        return true;
                    }
                    evaluated += 1;
                    if evaluated >= delta {
                        return false;
                    }
                }
                if fits(self.free[slot2], w1) {
                    if self.probe(tmc, None, node1, node2, mc, ac) {
                        return true;
                    }
                    evaluated += 1;
                    if evaluated >= delta {
                        return false;
                    }
                }
            }
        }
        false
    }

    fn relocate(&mut self, t1: u32, t2: Option<u32>, node1: u32, node2: u32) {
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
}
