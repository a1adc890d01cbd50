//! Algorithm 3: Maximum-congestion refinement (`UMC` / `UMMC`).
//!
//! Exact congestion refinement for statically-routed networks:
//!
//! * `congHeap` holds every link keyed by its congestion — volume/bw
//!   for the `MC` variant, message count for `MMC`;
//! * `commTasks[e]` registers the message edges whose routes traverse
//!   link `e` (the paper keeps the incident *tasks* in a red-black
//!   `std::set`; storing edge ids and expanding to distinct ascending
//!   task ids on read is equivalent and halves the update traffic);
//! * each round peeks the most congested link `e_mc` and, for each of
//!   its tasks, probes swap partners in BFS order from the task's
//!   neighbors' nodes (minimal WH damage); a swap is accepted when it
//!   lowers MC, or keeps MC and lowers AC; after `Δ` fruitless probes
//!   the task is abandoned, and when the most congested link yields no
//!   accepted swap at all the algorithm stops (the paper's termination
//!   rule).
//!
//! **The rewritten hot path** (DESIGN.md §13) makes a probe as cheap as
//! a WH-refinement candidate — recompute nothing a lookup can serve:
//!
//! 1. **Route caching.** Every routed endpoint is an allocated node, so
//!    routes are served from the machine's [`RouteCache`] link-id
//!    slices when enabled, and a per-edge *EdgeRoutes* slab inside
//!    `CongState` stores each task-graph edge's **current** route. The
//!    invariant: EdgeRoutes always reflects the *committed* mapping, so
//!    "old route" removal in delta collection and `commTasks`
//!    maintenance is a slice read. Each edge enters the slab once at init and once per
//!    *committed* move; probes themselves never route — their "new
//!    routes" are borrowed cache slices, iterated in place.
//! 2. **Epoch-marked dense dedup.** Per-link delta deduplication is
//!    `O(1)` per touched link via an epoch-stamped scatter array
//!    (`epoch << 32 | deltas-index` per link — one random access per
//!    hop), and affected-edge dedup needs no marks at all: an edge
//!    appears in both endpoints' incidence lists iff it connects `t1`
//!    and `t2`, an endpoint check. Both replace the old `O(k²)`
//!    `iter().any` / `find` scans; first-occurrence order is
//!    preserved, so probe order is bit-identical to the pre-rewrite
//!    engine.
//! 3. **Read-only probes.** A rejected probe mutates nothing: the
//!    candidate `(MC, AC)` is computed from the delta list plus a
//!    non-mutating [`IndexedMaxHeap::max_excluding`] descent over the
//!    untouched links, instead of two full heap re-key passes
//!    (apply + roll back). Only a *commit* writes heap, traffic, sums,
//!    `commTasks` and EdgeRoutes.
//!
//! Setup is amortized too: the congestion heap bulk-loads only the
//! links that carry traffic ([`IndexedMaxHeap::rebuild_sparse`], Floyd
//! heapify over the used set — absent links are implicit
//! zero-congestion entries the peek accounts for), the volume cost
//! vector borrows the machine's memoized
//! [`inv_bandwidths`](Machine::inv_bandwidths) slice, and `commTasks`,
//! like the per-link traffic array, resets in O(links touched last
//! run), not O(all links). The first run on an allocation builds every
//! allocated router's route rows up front, so a later run reads warm
//! slices whichever routers its probes reach.
//!
//! Mappings are **bit-identical** to the pre-rewrite engine (same probe
//! order, same accept rule, same float accumulation order) — asserted
//! against the frozen copy in `tests/reference/cong.rs` by
//! `tests/cong_differential.rs` across the backend × preset matrix,
//! route cache on and off.
//!
//! All per-run buffers live in a reusable [`CongScratch`]; a warm
//! scratch makes repeated refinements allocation-free apart from
//! `commTasks` growth beyond its high-water mark (DESIGN.md §8). Run
//! counters (probes, moves, route-cache hit rate) are exposed through
//! [`CongScratch::stats`].

use umpa_ds::{EpochMarker, IndexedMaxHeap, SlotBuckets};
use umpa_graph::{Bfs, TaskGraph};
use umpa_topology::{Allocation, Machine, RouteCache, Topology};

use crate::eps::CONG_EPS;
use crate::gain::HopDist;
use crate::mapping::fits;

/// Which congestion is being minimized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongestionKind {
    /// Volume congestion: Σ volume / bandwidth (the `MC` metric).
    Volume,
    /// Message congestion: message count per link (the `MMC` metric).
    Messages,
}

/// Configuration of the congestion refinement.
#[derive(Clone, Copy, Debug)]
pub struct CongRefineConfig {
    /// Max evaluated swaps per task of the congested link (`Δ`).
    pub delta: usize,
    /// Hard cap on accepted swaps (each strictly improves (MC, AC), so
    /// this only guards pathological float drift).
    pub max_moves: u32,
    /// Which congestion to minimize.
    pub kind: CongestionKind,
}

impl CongRefineConfig {
    /// Paper defaults for the `MC` (volume) variant.
    pub fn volume() -> Self {
        Self {
            delta: 8,
            max_moves: 10_000,
            kind: CongestionKind::Volume,
        }
    }

    /// Paper defaults for the `MMC` (message) variant.
    pub fn messages() -> Self {
        Self {
            delta: 8,
            max_moves: 10_000,
            kind: CongestionKind::Messages,
        }
    }
}

/// The per-message weight entering the congestion accumulators: a
/// documented **passthrough**. Both [`CongestionKind`]s use the edge
/// weight as-is by design — MMC's "count messages, not words" semantics
/// live in the task graph the caller hands in
/// ([`TaskGraph::group_quotient`] with `count_weighted` builds coarse
/// edges whose weight *is* the bundled message count), not in a
/// per-kind transform here. The kind still selects the per-link cost
/// normalization (`inv_cost`: 1/bandwidth for volume, 1 for messages).
#[inline]
fn message_weight(c: f64) -> f64 {
    c
}

/// Per-link registry of the message edges routed across each link: an
/// **amortized-O(1) insert/remove set with deferred sorting** per link.
///
/// `insert` is a plain tail push and `remove` records the edge in a
/// pending-removal list; [`collect_members_into`]
/// (Self::collect_members_into) normalizes a link lazily — sort both
/// lists (in place, allocation-free), cancel each removal against its
/// occurrence, compact — and is only called for the one most congested
/// link per outer round, where the surviving edges expand into
/// **distinct task ids in ascending order**, matching the `BTreeSet`
/// the paper's `commTasks` is modeled on. Storing edge ids instead of
/// task ids halves the update traffic (one entry per crossing edge,
/// not two) and removes multiplicity bookkeeping: a task stays listed
/// exactly while ≥ 1 of its edges crosses the link.
///
/// `reset` is O(links touched since the previous reset) — a
/// generation-stamped touched-list — so a warm engine pays nothing for
/// the untouched majority of a large machine's link space, and a warm
/// instance never touches the allocator (DESIGN.md §8, §13).
#[derive(Default)]
pub(crate) struct LinkTaskSets {
    /// Per-link member edge ids; sorted ascending when not dirty.
    items: Vec<Vec<u32>>,
    /// Per-link pending removals, unordered.
    removed: Vec<Vec<u32>>,
    /// Whether the link needs normalization before iteration.
    dirty: Vec<bool>,
    /// Generation stamp per link; `gen[l] == cur` ⇔ `l` is in
    /// `touched`.
    gen: Vec<u32>,
    cur: u32,
    /// Links with any activity since the last reset.
    touched: Vec<u32>,
}

impl LinkTaskSets {
    /// Clears every set and guarantees `n` of them, reusing inner
    /// vector capacities. O(touched since last reset), not O(n).
    pub(crate) fn reset(&mut self, n: usize) {
        for i in 0..self.touched.len() {
            let l = self.touched[i] as usize;
            self.items[l].clear();
            self.removed[l].clear();
            self.dirty[l] = false;
        }
        self.touched.clear();
        self.cur = match self.cur.checked_add(1) {
            Some(c) => c,
            None => {
                self.gen.iter_mut().for_each(|g| *g = 0);
                1
            }
        };
        if n > self.items.len() {
            self.items.resize_with(n, Vec::new);
            self.removed.resize_with(n, Vec::new);
            self.dirty.resize(n, false);
            self.gen.resize(n, 0);
        }
    }

    /// Records `link` in the touched list (once per reset cycle).
    #[inline]
    fn touch(&mut self, link: usize) {
        if self.gen[link] != self.cur {
            self.gen[link] = self.cur;
            self.touched.push(link as u32);
        }
    }

    /// Registers edge `e` on `link`. O(1).
    pub(crate) fn insert(&mut self, link: usize, e: u32) {
        self.touch(link);
        self.items[link].push(e);
        self.dirty[link] = true;
    }

    /// Cancels edge `e` on `link` (deferred, amortized O(1)): the
    /// cancellation is recorded, and the link is compacted once pending
    /// removals reach half its member list — so storage stays
    /// proportional to live membership even for links that never become
    /// the most congested, while each normalization's sort is paid for
    /// by the pushes that triggered it.
    pub(crate) fn remove(&mut self, link: usize, e: u32) {
        self.touch(link);
        self.removed[link].push(e);
        self.dirty[link] = true;
        if self.removed[link].len() >= 16 && 2 * self.removed[link].len() >= self.items[link].len()
        {
            self.normalize(link);
        }
    }

    /// Applies pending removals and restores ascending order.
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
                j += 1; // removal with no matching occurrence: skip
            }
            if j < r.len() && r[j] == x {
                j += 1; // cancel this occurrence
                continue;
            }
            v[w] = x;
            w += 1;
        }
        v.truncate(w);
        r.clear();
        self.dirty[link] = false;
    }

    /// Writes the distinct tasks incident to `link`'s live edges into
    /// `out` (cleared first) in ascending task-id order, expanding edge
    /// ids through the edge table. Deduplicates with an epoch marker
    /// *before* sorting, so the sort runs over the distinct tasks
    /// rather than two entries per edge (hot links on converging
    /// topologies carry many edges per task). Allocation-free once
    /// `out` is warm.
    pub(crate) fn collect_members_into(
        &mut self,
        link: usize,
        edges: &[EdgeRec],
        mark: &mut EpochMarker,
        out: &mut Vec<u32>,
    ) {
        self.normalize(link);
        out.clear();
        mark.reset();
        for &e in &self.items[link] {
            let rec = edges[e as usize];
            if !mark.mark(rec.src as usize) {
                out.push(rec.src);
            }
            if !mark.mark(rec.dst as usize) {
                out.push(rec.dst);
            }
        }
        out.sort_unstable();
    }
}

/// One directed message edge (endpoint tasks + weight), indexed by
/// edge id. The probe loops avoid touching this random-access table —
/// they read the sequential per-incidence [`IncMeta`] instead — so it
/// serves the rare consumers: commit re-routing and top-link member
/// expansion.
#[derive(Clone, Copy, Default)]
pub(crate) struct EdgeRec {
    /// Sender task.
    pub(crate) src: u32,
    /// Receiver task.
    pub(crate) dst: u32,
    /// Message volume (or count, for count-weighted graphs).
    w: f64,
}

/// Per-link hot state: the epoch-stamped scatter slot and the link's
/// traffic share one 16-byte record, so the peek's traffic read lands
/// on the cacheline [`CongState::add_delta`] just touched.
#[derive(Clone, Copy, Default)]
struct LinkSlot {
    /// Fused scatter stamp: `epoch << 32 | deltas-index`.
    stamp: u64,
    /// Current traffic (volume or message count) on the link.
    traffic: f64,
}

/// Per-incidence-slot edge metadata, parallel to `inc_edge`: the OTHER
/// endpoint of the edge and its weight. A task's probe loops walk its
/// incidence range **sequentially** through this table instead of
/// chasing edge ids into the edge table — the difference between one
/// streamed cacheline and a cache miss per edge.
#[derive(Clone, Copy, Default)]
struct IncMeta {
    /// The endpoint that is not the incidence owner.
    partner: u32,
    /// Message volume (or count).
    w: f64,
}

/// Counters of one congestion-refinement run, read back through
/// [`CongScratch::stats`] after
/// [`congestion_refine_scratch`] returns. Feeds the perf tracker's
/// `cong_probes` / `cong_route_hit_rate` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CongRunStats {
    /// Virtual-swap probes evaluated (accepted + rejected).
    pub probes: u64,
    /// Probes that committed (accepted moves).
    pub moves: u64,
    /// Router-crossing route computations requested (same-router pairs
    /// route to the empty slice and are not counted).
    pub route_queries: u64,
    /// Route queries served from the machine's [`RouteCache`] as slice
    /// reads; the
    /// remainder fell back to the analytic emitters.
    pub route_cache_hits: u64,
}

impl CongRunStats {
    /// Fraction of route queries served from the route cache (0 when
    /// no query ran).
    pub fn route_cache_hit_rate(&self) -> f64 {
        if self.route_queries == 0 {
            0.0
        } else {
            self.route_cache_hits as f64 / self.route_queries as f64
        }
    }
}

/// Reusable buffers for one congestion-refinement run.
#[derive(Default)]
pub struct CongScratch {
    heap: IndexedMaxHeap,
    /// All-ones cost vector for the message kind (the volume kind
    /// borrows the machine's memoized `inv_bandwidths`).
    ones: Vec<f64>,
    comm_tasks: LinkTaskSets,
    buckets: SlotBuckets,
    free: Vec<f64>,
    bfs: Bfs,
    tasks: Vec<u32>,
    /// Swap candidates of one node, as (WH damage, task).
    cand: Vec<(f64, u32)>,
    sources: Vec<u32>,
    // --- rewritten hot-path buffers (DESIGN.md §13) -----------------
    /// Directed message edges, indexed by edge id (`messages()` order).
    edges: Vec<EdgeRec>,
    /// Task → incident edge ids, CSR (out ids first, then in ids).
    inc_off: Vec<u32>,
    inc_edge: Vec<u32>,
    /// Partner/weight per incidence slot, parallel to `inc_edge`.
    inc_meta: Vec<IncMeta>,
    cursor_out: Vec<u32>,
    cursor_in: Vec<u32>,
    /// Links that received traffic this run, first-touch order — the
    /// sparse id set `congHeap` is built over (absent links are
    /// implicit zero-congestion entries).
    used_list: Vec<u32>,
    /// Committed route span (offset, length) of each edge in `er_pool`:
    /// the EdgeRoutes slab index, kept apart from `EdgeRec` so the
    /// old-route walk touches 8 random bytes per edge, not 24.
    er_span: Vec<(u32, u32)>,
    er_pool: Vec<u32>,
    er_scratch: Vec<u32>,
    /// Router of each task's current node (`task_router[t]` =
    /// `router_of(mapping[t])`), maintained by `relocate` so the hot
    /// loops never pay the `node / nodes_per_router` division.
    task_router: Vec<u32>,
    /// Affected edge ids of the current probe, first-occurrence order.
    aff: Vec<u32>,
    /// Accumulated old-route removal deltas of the pivot task's edges —
    /// identical across all probes of one `try_improve_task`, built on
    /// the first and replayed (memcpy + restamp) on the rest.
    t1_old: Vec<(u32, f64)>,
    /// Analytic-fallback route emission buffer (the cache path borrows
    /// slices instead).
    route_buf: Vec<u32>,
    /// Per-link traffic deltas of the current probe, first-touch order.
    deltas: Vec<(u32, f64)>,
    /// Per-link stamp + traffic records. One random access dedups a
    /// hop, finds its accumulator and serves the peek's traffic read;
    /// links stamped with the current epoch are exactly the probe's
    /// touched-set (the `max_excluding` exclusion predicate). Traffic
    /// is re-zeroed lazily through the previous run's `used_list`.
    link_state: Vec<LinkSlot>,
    link_epoch: u32,
    /// Marks the pivot task's neighbors so the candidate scan knows
    /// when the hoisted swap-gain base applies.
    nb_mark: EpochMarker,
    stats: CongRunStats,
}

impl CongScratch {
    /// Creates an empty scratch; buffers are sized on first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters of the most recent run through this scratch.
    pub fn stats(&self) -> CongRunStats {
        self.stats
    }
}

/// Refines `mapping` in place; returns the final `(max, avg)`
/// congestion in the chosen kind's units. Allocation-free once
/// `scratch` is warm (including the machine's route-cache rows, which
/// build on the first run per allocation).
///
/// For [`CongestionKind::Messages`] pass a task graph whose edge
/// weights are message counts (see `TaskGraph::group_quotient` with
/// `count_weighted`), so that coarse edges carry the number of fine
/// messages they bundle.
pub fn congestion_refine_scratch(
    tg: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    mapping: &mut [u32],
    cfg: &CongRefineConfig,
    scratch: &mut CongScratch,
) -> (f64, f64) {
    let mut state = CongState::new(tg, machine, alloc, mapping, cfg.kind, scratch);
    let mut moves = 0u32;
    'outer: while moves < cfg.max_moves {
        let Some((emc, top_key)) = state.heap.peek() else {
            break;
        };
        if top_key <= 0.0 {
            break; // no congestion at all
        }
        // Snapshot (try_improve_task edits the registry mid-scan); this
        // is the one read that triggers the deferred normalization.
        state.comm_tasks.collect_members_into(
            emc as usize,
            state.edges,
            state.nb_mark,
            state.tasks,
        );
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

/// Static-route access for one run: the machine's [`RouteCache`] when
/// enabled (slice reads, rows built on first touch), the analytic
/// emitters otherwise. Both produce identical link-id sequences.
struct RouteSource<'a> {
    cache: Option<&'a RouteCache>,
    topo: &'a Topology,
}

impl<'a> RouteSource<'a> {
    /// The static route between terminal *routers* `ra` and `rb`
    /// (empty when equal) as a borrowed slice, counting into `stats` —
    /// **zero-copy** on the cache path (the probe's dominant case); the
    /// analytic fallback emits into `buf` and returns it. Callers supply
    /// routers from the maintained `task_router` array — no per-query
    /// division.
    #[inline]
    fn route_slice<'s>(
        &'s self,
        ra: u32,
        rb: u32,
        buf: &'s mut Vec<u32>,
        stats: &mut CongRunStats,
    ) -> &'s [u32]
    where
        'a: 's,
    {
        if ra == rb {
            return &[];
        }
        stats.route_queries += 1;
        match self.cache {
            Some(c) => {
                stats.route_cache_hits += 1;
                c.route(self.topo, ra, rb)
            }
            None => {
                buf.clear();
                self.topo.route_links(ra, rb, buf);
                buf
            }
        }
    }
}

/// Incrementally maintained congestion state, borrowing all buffers
/// from a [`CongScratch`].
struct CongState<'a> {
    tg: &'a TaskGraph,
    alloc: &'a Allocation,
    machine: &'a Machine,
    /// Number of channel ids on the machine.
    nl: usize,
    /// Oracle-or-analytic distances for the WH-damage tiebreak.
    dist: HopDist<'a>,
    /// Cache-or-analytic static routes.
    routes: RouteSource<'a>,
    mapping: &'a mut [u32],
    /// Per-link congestion key (volume/bw or message count).
    heap: &'a mut IndexedMaxHeap,
    /// 1/bw (volume kind, borrowed from the machine) or all-ones
    /// (message kind) per link.
    inv_cost: &'a [f64],
    comm_tasks: &'a mut LinkTaskSets,
    sum_key: f64,
    used_links: usize,
    buckets: &'a mut SlotBuckets,
    free: &'a mut Vec<f64>,
    bfs: &'a mut Bfs,
    tasks: &'a mut Vec<u32>,
    cand: &'a mut Vec<(f64, u32)>,
    sources: &'a mut Vec<u32>,
    edges: &'a mut Vec<EdgeRec>,
    inc_off: &'a mut Vec<u32>,
    inc_edge: &'a mut Vec<u32>,
    inc_meta: &'a mut Vec<IncMeta>,
    used_list: &'a mut Vec<u32>,
    er_span: &'a mut Vec<(u32, u32)>,
    er_pool: &'a mut Vec<u32>,
    er_scratch: &'a mut Vec<u32>,
    /// Live (referenced) words in `er_pool`; the slab compacts when
    /// dead gaps exceed the live total.
    er_live: usize,
    task_router: &'a mut Vec<u32>,
    aff: &'a mut Vec<u32>,
    t1_old: &'a mut Vec<(u32, f64)>,
    /// Whether `t1_old` holds the current pivot's prefix.
    t1_old_ready: bool,
    route_buf: &'a mut Vec<u32>,
    deltas: &'a mut Vec<(u32, f64)>,
    link_state: &'a mut Vec<LinkSlot>,
    link_epoch: &'a mut u32,
    nb_mark: &'a mut EpochMarker,
    stats: &'a mut CongRunStats,
}

impl<'a> CongState<'a> {
    fn new(
        tg: &'a TaskGraph,
        machine: &'a Machine,
        alloc: &'a Allocation,
        mapping: &'a mut [u32],
        kind: CongestionKind,
        scratch: &'a mut CongScratch,
    ) -> Self {
        let CongScratch {
            heap,
            ones,
            comm_tasks,
            buckets,
            free,
            bfs,
            tasks,
            cand,
            sources,
            edges,
            inc_off,
            inc_edge,
            inc_meta,
            cursor_out,
            cursor_in,
            used_list,
            er_span,
            er_pool,
            er_scratch,
            task_router,
            aff,
            t1_old,
            route_buf,
            deltas,
            link_state,
            link_epoch,
            nb_mark,
            stats,
        } = scratch;
        let nl = machine.num_links();
        let inv_cost: &'a [f64] = match kind {
            CongestionKind::Volume => machine.inv_bandwidths(),
            CongestionKind::Messages => {
                if ones.len() < nl {
                    ones.resize(nl, 1.0);
                }
                &(*ones)[..nl]
            }
        };
        buckets.reset(alloc.num_nodes(), tg.num_tasks());
        free.clear();
        free.extend((0..alloc.num_nodes()).map(|s| f64::from(alloc.procs(s))));
        for (t, &node) in mapping.iter().enumerate() {
            let slot = alloc.slot_of(node).expect("mapping must be feasible") as usize;
            buckets.insert(slot, t as u32);
            free[slot] -= tg.task_weight(t as u32);
        }
        // Lazy traffic re-zeroing: every link that carried traffic in
        // the previous run is in that run's `used_list`; the rest are
        // already zero, so the O(num_links) clear becomes O(used).
        if link_state.len() < nl {
            link_state.clear();
            link_state.resize(nl, LinkSlot::default());
        } else {
            for i in 0..used_list.len() {
                link_state[used_list[i] as usize].traffic = 0.0;
            }
        }
        comm_tasks.reset(nl);
        nb_mark.ensure_len(tg.num_tasks());
        bfs.ensure(machine.num_routers());
        *stats = CongRunStats::default();
        let routes = RouteSource {
            cache: machine.route_cache(),
            topo: machine.topology(),
        };
        // Every probe routes from and to allocated routers only: build
        // their rows now, so whichever routers a later run's probes
        // reach, it reads warm slices. A no-op on a warm cache.
        if let Some(cache) = routes.cache {
            for slot in 0..alloc.num_nodes() {
                let r = machine.router_of(alloc.node(slot));
                cache.row_from(routes.topo, r);
                cache.row_to(routes.topo, r);
            }
        }

        // Edge table + task → incident-edge CSR (out ids, then in ids —
        // the same order the old engine walked `out_edges`/`in_edges`).
        let nt = tg.num_tasks();
        let m = tg.num_messages();
        edges.clear();
        inc_off.clear();
        inc_off.push(0);
        for t in 0..nt as u32 {
            let deg = tg.send_messages(t) + tg.recv_messages(t);
            inc_off.push(inc_off[t as usize] + deg);
        }
        inc_edge.clear();
        inc_edge.resize(2 * m, 0);
        inc_meta.clear();
        inc_meta.resize(2 * m, IncMeta::default());
        cursor_out.clear();
        cursor_out.extend_from_slice(&inc_off[..nt]);
        cursor_in.clear();
        cursor_in.extend((0..nt as u32).map(|t| inc_off[t as usize] + tg.send_messages(t)));
        used_list.clear();
        er_span.clear();
        er_pool.clear();
        task_router.clear();
        task_router.extend(mapping.iter().map(|&n| machine.router_of(n)));

        // Initial routing of every message (INITCONG): each edge is
        // routed once, straight into the EdgeRoutes slab.
        let mut sum_key = 0.0;
        let mut used_links = 0usize;
        for (e, (src, dst, c)) in tg.messages().enumerate() {
            let co = cursor_out[src as usize] as usize;
            inc_edge[co] = e as u32;
            inc_meta[co] = IncMeta { partner: dst, w: c };
            cursor_out[src as usize] += 1;
            let ci = cursor_in[dst as usize] as usize;
            inc_edge[ci] = e as u32;
            inc_meta[ci] = IncMeta { partner: src, w: c };
            cursor_in[dst as usize] += 1;
            let weight = message_weight(c);
            let (ra, rb) = (task_router[src as usize], task_router[dst as usize]);
            let start = er_pool.len();
            er_pool.extend_from_slice(routes.route_slice(ra, rb, route_buf, stats));
            edges.push(EdgeRec { src, dst, w: c });
            er_span.push((start as u32, (er_pool.len() - start) as u32));
            for &link in &er_pool[start..] {
                let l = link as usize;
                if link_state[l].traffic == 0.0 {
                    used_links += 1;
                    used_list.push(l as u32);
                }
                link_state[l].traffic += weight;
                sum_key += weight * inv_cost[l];
                comm_tasks.insert(l, e as u32);
            }
        }
        let er_live = er_pool.len();
        // Sparse congHeap: only links that carry traffic get entries
        // (O(used) bulk heapify); the zero-traffic majority stays
        // implicit and the peek accounts for it.
        heap.rebuild_sparse(nl, used_list, |l| {
            link_state[l as usize].traffic * inv_cost[l as usize]
        });
        Self {
            tg,
            alloc,
            machine,
            nl,
            dist: HopDist::new(machine),
            routes,
            mapping,
            heap,
            inv_cost,
            comm_tasks,
            sum_key,
            used_links,
            buckets,
            free,
            bfs,
            tasks,
            cand,
            sources,
            edges,
            inc_off,
            inc_edge,
            inc_meta,
            used_list,
            er_span,
            er_pool,
            er_scratch,
            er_live,
            task_router,
            aff,
            t1_old,
            t1_old_ready: false,
            route_buf,
            deltas,
            link_state,
            link_epoch,
            nb_mark,
            stats,
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

    /// Accumulates the **old-route removal deltas** of the edges
    /// incident to `t1` (and `t2` if given) from the EdgeRoutes slab,
    /// in the affected-edge order (t1's incidence, then t2's
    /// not-t1-connecting incidence — the old engine's dedup order; an
    /// edge sits in both lists only by connecting t1 and t2, so t2's
    /// copy is recognized by a partner check). Probes never materialize
    /// the affected list itself — only a commit needs it
    /// ([`collect_affected`](Self::collect_affected)).
    fn collect_old_deltas(&mut self, t1: u32, t2: Option<u32>, epoch: u64) {
        let ti = t1 as usize;
        let t1_inc = &self.inc_edge[self.inc_off[ti] as usize..self.inc_off[ti + 1] as usize];
        if self.t1_old_ready {
            // Replay the pivot's prefix: its accumulated (link, −w)
            // entries are the leading first-touch segment of every
            // probe of this task, so a copy plus restamp reproduces the
            // add-by-add accumulation bit for bit.
            for (i, &(l, d)) in self.t1_old.iter().enumerate() {
                self.link_state[l as usize].stamp = (epoch << 32) | i as u64;
                self.deltas.push((l, d));
            }
        } else {
            for &e in t1_inc {
                let (off, len) = self.er_span[e as usize];
                let w = message_weight(self.edges[e as usize].w);
                for &l in &self.er_pool[off as usize..(off + len) as usize] {
                    Self::add_delta(self.deltas, self.link_state, epoch, l, -w);
                }
            }
            self.t1_old.clear();
            self.t1_old.extend_from_slice(self.deltas);
            self.t1_old_ready = true;
        }
        if let Some(t2) = t2 {
            let ti = t2 as usize;
            let (o, end) = (self.inc_off[ti] as usize, self.inc_off[ti + 1] as usize);
            for j in o..end {
                let meta = self.inc_meta[j];
                if meta.partner == t1 {
                    continue; // t1↔t2 edge: already in t1's segment
                }
                let e = self.inc_edge[j];
                let (off, len) = self.er_span[e as usize];
                let w = message_weight(meta.w);
                for &l in &self.er_pool[off as usize..(off + len) as usize] {
                    Self::add_delta(self.deltas, self.link_state, epoch, l, -w);
                }
            }
        }
    }

    /// Materializes the affected-edge list (same order as
    /// [`collect_old_deltas`](Self::collect_old_deltas) walked it) —
    /// called only by a committing probe.
    fn collect_affected(&mut self, t1: u32, t2: Option<u32>) {
        self.aff.clear();
        let ti = t1 as usize;
        self.aff.extend_from_slice(
            &self.inc_edge[self.inc_off[ti] as usize..self.inc_off[ti + 1] as usize],
        );
        if let Some(t2) = t2 {
            let ti = t2 as usize;
            for j in self.inc_off[ti] as usize..self.inc_off[ti + 1] as usize {
                if self.inc_meta[j].partner != t1 {
                    self.aff.push(self.inc_edge[j]);
                }
            }
        }
    }

    /// Advances the link-scatter epoch (wraparound falls back to a full
    /// stamp clear once per 2³² probes); returns it widened for
    /// [`add_delta`](Self::add_delta) comparisons.
    fn bump_link_epoch(&mut self) -> u64 {
        *self.link_epoch = match self.link_epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.link_state.iter_mut().for_each(|m| m.stamp = 0);
                1
            }
        };
        u64::from(*self.link_epoch)
    }

    /// Accumulates into the delta of link `l`, locating it through the
    /// fused `epoch << 32 | index` scatter stamp — one random access
    /// per hop, first-touch order (the old `find`-scan order).
    #[inline]
    fn add_delta(deltas: &mut Vec<(u32, f64)>, ms: &mut [LinkSlot], epoch: u64, l: u32, d: f64) {
        let slot = &mut ms[l as usize];
        if slot.stamp >> 32 == epoch {
            deltas[(slot.stamp & u64::from(u32::MAX)) as usize].1 += d;
        } else {
            slot.stamp = (epoch << 32) | deltas.len() as u64;
            deltas.push((l, d));
        }
    }

    /// Accumulates the **new-route addition deltas** for relocating
    /// `t1 → node2` (and `t2 → node1` if swapping) over the affected
    /// edges, continuing the list [`collect_old_deltas`]
    /// (Self::collect_old_deltas) started. Routes are borrowed straight
    /// from the route cache (zero-copy; a committed probe re-reads them
    /// once to update the slab). `r2` is `node2`'s router (the BFS
    /// vertex that discovered it). Exact cancellations stay in the list
    /// as zero deltas — the peek and commit walks skip their state
    /// updates but still count their (unchanged) keys toward the
    /// candidate MC, matching the old engine's drop-zeros-then-apply
    /// bit for bit.
    fn collect_new_deltas(&mut self, t1: u32, t2: Option<u32>, r2: u32, epoch: u64) {
        let r1 = self.task_router[t1 as usize];
        // New routes under the virtual relocation — in the same
        // edge order the affected list holds (t1's out then in edges,
        // then t2's not-t1-connecting out then in edges), so the delta
        // accumulation order is identical on both paths below.
        if let Some(cache) = self.routes.cache {
            // Cache fast path: the four sub-loops share an endpoint
            // (t1's edges pivot on r2, t2's on r1), so each hoists one
            // row view — a single memo consultation per sub-loop
            // instead of one per edge.
            let topo = self.routes.topo;
            let o = self.inc_off[t1 as usize] as usize;
            let split = o + self.tg.send_messages(t1) as usize;
            let end = self.inc_off[t1 as usize + 1] as usize;
            // Queries are tallied in a register per sub-loop (every one
            // is a cache hit here) — no per-edge counter traffic.
            let mut queries = 0u64;
            let t2s = t2.unwrap_or(u32::MAX);
            let from_r2 = cache.row_from(topo, r2);
            for meta in &self.inc_meta[o..split] {
                let rb = if meta.partner == t2s {
                    r1
                } else {
                    self.task_router[meta.partner as usize]
                };
                if rb != r2 {
                    queries += 1;
                    let w = message_weight(meta.w);
                    for &l in from_r2.route(rb) {
                        Self::add_delta(self.deltas, self.link_state, epoch, l, w);
                    }
                }
            }
            let to_r2 = cache.row_to(topo, r2);
            for meta in &self.inc_meta[split..end] {
                let ra = if meta.partner == t2s {
                    r1
                } else {
                    self.task_router[meta.partner as usize]
                };
                if ra != r2 {
                    queries += 1;
                    let w = message_weight(meta.w);
                    for &l in to_r2.route(ra) {
                        Self::add_delta(self.deltas, self.link_state, epoch, l, w);
                    }
                }
            }
            if let Some(t2v) = t2 {
                let o = self.inc_off[t2v as usize] as usize;
                let split = o + self.tg.send_messages(t2v) as usize;
                let end = self.inc_off[t2v as usize + 1] as usize;
                let from_r1 = cache.row_from(topo, r1);
                for meta in &self.inc_meta[o..split] {
                    if meta.partner == t1 {
                        continue; // t1↔t2 edge: handled in t1's loops
                    }
                    let rb = self.task_router[meta.partner as usize];
                    if rb != r1 {
                        queries += 1;
                        let w = message_weight(meta.w);
                        for &l in from_r1.route(rb) {
                            Self::add_delta(self.deltas, self.link_state, epoch, l, w);
                        }
                    }
                }
                let to_r1 = cache.row_to(topo, r1);
                for meta in &self.inc_meta[split..end] {
                    if meta.partner == t1 {
                        continue;
                    }
                    let ra = self.task_router[meta.partner as usize];
                    if ra != r1 {
                        queries += 1;
                        let w = message_weight(meta.w);
                        for &l in to_r1.route(ra) {
                            Self::add_delta(self.deltas, self.link_state, epoch, l, w);
                        }
                    }
                }
            }
            self.stats.route_queries += queries;
            self.stats.route_cache_hits += queries;
        } else {
            // Analytic fallback: same incidence walk (and therefore
            // the same delta order), routed per edge.
            let o = self.inc_off[t1 as usize] as usize;
            let split = o + self.tg.send_messages(t1) as usize;
            let end = self.inc_off[t1 as usize + 1] as usize;
            for j in o..end {
                let meta = self.inc_meta[j];
                let partner = if Some(meta.partner) == t2 {
                    r1
                } else {
                    self.task_router[meta.partner as usize]
                };
                // Out-edges leave the relocated pivot; in-edges enter it.
                let (ra, rb) = if j < split {
                    (r2, partner)
                } else {
                    (partner, r2)
                };
                let w = message_weight(meta.w);
                for &l in self.routes.route_slice(ra, rb, self.route_buf, self.stats) {
                    Self::add_delta(self.deltas, self.link_state, epoch, l, w);
                }
            }
            if let Some(t2v) = t2 {
                let o = self.inc_off[t2v as usize] as usize;
                let split = o + self.tg.send_messages(t2v) as usize;
                let end = self.inc_off[t2v as usize + 1] as usize;
                for j in o..end {
                    let meta = self.inc_meta[j];
                    if meta.partner == t1 {
                        continue; // t1↔t2 edge: handled in t1's loop
                    }
                    let partner = self.task_router[meta.partner as usize];
                    let (ra, rb) = if j < split {
                        (r1, partner)
                    } else {
                        (partner, r1)
                    };
                    let w = message_weight(meta.w);
                    for &l in self.routes.route_slice(ra, rb, self.route_buf, self.stats) {
                        Self::add_delta(self.deltas, self.link_state, epoch, l, w);
                    }
                }
            }
        }
    }

    /// Computes the `(mc, ac)` the current deltas *would* produce,
    /// mutating nothing: the touched links' candidate keys are evaluated
    /// inline (same float expressions, same order as the committing
    /// walk) and the untouched maximum comes from a read-only
    /// [`IndexedMaxHeap::max_excluding`] descent.
    fn peek_deltas(&self, mc: f64) -> (f64, f64) {
        let reject_above = mc + CONG_EPS;
        let mut sum = self.sum_key;
        let mut used = self.used_links;
        let mut touched_max = f64::NEG_INFINITY;
        for &(l, d) in self.deltas.iter() {
            let li = l as usize;
            let before = self.link_state[li].traffic;
            let key = if d == 0.0 {
                // Exact cancellation: state untouched, but the link is
                // stamped (excluded from the descent), so its current
                // key competes here.
                before * self.inv_cost[li]
            } else {
                let after = before + d;
                if before == 0.0 && after > 0.0 {
                    used += 1;
                } else if before > 0.0 && after <= CONG_EPS {
                    used -= 1;
                }
                let t = if after.abs() < CONG_EPS { 0.0 } else { after };
                sum += d * self.inv_cost[li];
                t * self.inv_cost[li]
            };
            if key > touched_max {
                touched_max = key;
                if key > reject_above {
                    // The candidate MC already exceeds every acceptable
                    // value: both accept clauses are false no matter
                    // what the remaining deltas or the untouched
                    // maximum contribute, so the probe is rejected
                    // here. (`new_mc >= key > mc + CONG_EPS`; the returned
                    // pair only feeds that comparison.)
                    return (key, f64::INFINITY);
                }
            }
        }
        // The untouched maximum matters only when every touched link
        // ends below `mc - CONG_EPS`: otherwise the first accept clause is
        // false and the second clause's `new_mc <= mc + CONG_EPS` test
        // reduces to `touched_max <= mc + CONG_EPS` (untouched keys never
        // exceed the current maximum), so the returned pair feeds the
        // accept rule identically without the descent.
        let new_mc = if touched_max < mc - CONG_EPS {
            let epoch = u64::from(*self.link_epoch);
            let link_state = &*self.link_state;
            let untouched = self
                .heap
                .max_excluding(|id| link_state[id as usize].stamp >> 32 == epoch)
                .map_or(f64::NEG_INFINITY, |(_, k)| k);
            // Links not in the sparse heap all carry key 0; the descent
            // cannot see them, so any *untouched* absent link
            // contributes a 0.0 candidate.
            let mut absent_touched = 0usize;
            for &(l, _) in self.deltas.iter() {
                if self.link_state[l as usize].traffic == 0.0 && !self.heap.contains(l) {
                    absent_touched += 1;
                }
            }
            let untouched = if self.nl - self.heap.len() > absent_touched {
                untouched.max(0.0)
            } else {
                untouched
            };
            touched_max.max(untouched)
        } else {
            touched_max
        };
        let new_mc = if new_mc == f64::NEG_INFINITY {
            0.0
        } else {
            new_mc
        };
        let ac = if used == 0 { 0.0 } else { sum / used as f64 };
        (new_mc, ac)
    }

    /// Applies `self.deltas` to heap/traffic/sums — the write half the
    /// peek predicted, run only on commit. Same per-link float
    /// expressions and order as the peek, so the committed state equals
    /// the accepted `(new_mc, new_ac)` exactly.
    fn commit_deltas(&mut self) {
        for i in 0..self.deltas.len() {
            let (l, d) = self.deltas[i];
            if d == 0.0 {
                continue; // exact cancellation: nothing changes
            }
            let li = l as usize;
            let before = self.link_state[li].traffic;
            let after = before + d;
            if before == 0.0 && after > 0.0 {
                self.used_links += 1;
                self.used_list.push(l);
            } else if before > 0.0 && after <= CONG_EPS {
                self.used_links -= 1;
            }
            self.link_state[li].traffic = if after.abs() < CONG_EPS { 0.0 } else { after };
            self.sum_key += d * self.inv_cost[li];
            // A link gaining its first-ever traffic enters the sparse
            // heap here (and the used list, for the next run's lazy
            // traffic zeroing); zeroed links keep a 0-key entry
            // (harmless — the heap stays a superset of the
            // traffic-carrying set).
            self.heap
                .push_or_update(l, self.link_state[li].traffic * self.inv_cost[li]);
        }
    }

    /// Rewrites the EdgeRoutes slab when dead gaps from committed
    /// replacements exceed the live total (amortized O(1) per commit;
    /// allocation-free once both buffers are warm).
    fn compact_routes(&mut self) {
        self.er_scratch.clear();
        for span in self.er_span.iter_mut() {
            let start = span.0 as usize;
            span.0 = self.er_scratch.len() as u32;
            self.er_scratch
                .extend_from_slice(&self.er_pool[start..start + span.1 as usize]);
        }
        std::mem::swap(self.er_pool, self.er_scratch);
    }

    /// Probes the swap/move of `tmc` with `t2` on `node2`. A rejected
    /// probe touches nothing; a commit performs the single mutating
    /// pass: `commTasks` removals off the old EdgeRoutes, the delta
    /// application, the relocation, then the buffered new routes become
    /// the committed EdgeRoutes and register their edges.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        tmc: u32,
        t2: Option<u32>,
        node1: u32,
        node2: u32,
        r2: u32,
        mc: f64,
        ac: f64,
    ) -> bool {
        self.stats.probes += 1;
        self.deltas.clear();
        let epoch = self.bump_link_epoch();
        self.collect_old_deltas(tmc, t2, epoch);
        self.collect_new_deltas(tmc, t2, r2, epoch);
        let (new_mc, new_ac) = self.peek_deltas(mc);
        let improves =
            new_mc < mc - CONG_EPS || (new_mc <= mc + CONG_EPS && new_ac < ac - CONG_EPS);
        if !improves {
            return false; // read-only probe: nothing to roll back
        }
        self.collect_affected(tmc, t2);
        // Old routes leave commTasks against the *pre-move* mapping.
        for i in 0..self.aff.len() {
            let e = self.aff[i];
            let (off, len) = self.er_span[e as usize];
            for j in off as usize..(off + len) as usize {
                self.comm_tasks.remove(self.er_pool[j] as usize, e);
            }
        }
        self.commit_deltas();
        self.relocate(tmc, t2, node1, node2);
        // Each affected edge is re-routed once against the committed
        // mapping (`task_router` is already updated), straight into the
        // slab — the "once per committed move" half of the EdgeRoutes
        // contract; probes themselves never route into the slab.
        for i in 0..self.aff.len() {
            let e = self.aff[i];
            let rec = self.edges[e as usize];
            let (ra, rb) = (
                self.task_router[rec.src as usize],
                self.task_router[rec.dst as usize],
            );
            let start = self.er_pool.len();
            let route = self.routes.route_slice(ra, rb, self.route_buf, self.stats);
            self.er_pool.extend_from_slice(route);
            for j in start..self.er_pool.len() {
                self.comm_tasks.insert(self.er_pool[j] as usize, e);
            }
            // EdgeRoutes invariant: the slab now reflects the committed
            // mapping again.
            let span = &mut self.er_span[e as usize];
            self.er_live -= span.1 as usize;
            *span = (start as u32, (self.er_pool.len() - start) as u32);
            self.er_live += span.1 as usize;
        }
        if self.er_pool.len() > 2 * self.er_live.max(32) {
            self.compact_routes();
        }
        self.stats.moves += 1;
        true
    }

    /// Probes up to `delta` BFS-ordered swap candidates for `tmc`;
    /// commits and returns `true` on the first (MC, AC) improvement.
    fn try_improve_task(&mut self, tmc: u32, delta: usize) -> bool {
        let node1 = self.mapping[tmc as usize];
        let w1 = self.tg.task_weight(tmc);
        // Loop-invariant: tmc stays on node1 until a probe commits.
        let slot1 = self.alloc.slot_of(node1).unwrap() as usize;
        self.sources.clear();
        self.nb_mark.reset();
        for &nb in self.tg.symmetric().neighbors(tmc) {
            self.sources.push(self.task_router[nb as usize]);
            self.nb_mark.mark(nb as usize);
        }
        if self.sources.is_empty() {
            return false;
        }
        let (mc, ac) = (self.current_max(), self.current_avg());
        self.t1_old_ready = false; // new pivot, new prefix
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
                // Candidates: each resident task (swap), then a pure
                // move onto free capacity. BFS supplies the coarse
                // nearest-first order; within one node the
                // capacity-feasible residents are probed in ascending
                // incremental WH damage (oracle rows, mutation-free —
                // the §11 tiebreak), so an accepted congestion swap is
                // the least WH-damaging one this node offers.
                self.cand.clear();
                for t in self.buckets.iter(slot2) {
                    let w2 = self.tg.task_weight(t);
                    if !fits(self.free[slot2] + w2, w1) || !fits(self.free[slot1] + w1, w2) {
                        continue;
                    }
                    self.cand.push((0.0, t));
                }
                // Damages for the whole panel in one pass: oracle rows
                // hoisted once, the pivot's gain half shared by every
                // non-neighbor partner.
                let nb_mark = &*self.nb_mark;
                self.dist.fill_swap_damages(
                    self.tg,
                    self.task_router,
                    tmc,
                    ev.vertex,
                    |t| nb_mark.is_marked(t as usize),
                    self.cand,
                );
                // Only the first `delta - evaluated` candidates can be
                // probed before the budget runs out, so a partial
                // selection + sort of that prefix yields the exact
                // probe sequence of a full sort (the comparator is a
                // strict total order — ties break by task id) at a
                // fraction of the comparisons.
                let k = self.cand.len().min(delta - evaluated);
                let cmp = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
                if k < self.cand.len() && k > 0 {
                    self.cand.select_nth_unstable_by(k - 1, cmp);
                }
                self.cand[..k].sort_unstable_by(cmp);
                for i in 0..k {
                    let t = self.cand[i].1;
                    if self.probe(tmc, Some(t), node1, node2, ev.vertex, mc, ac) {
                        return true;
                    }
                    evaluated += 1;
                    if evaluated >= delta {
                        return false;
                    }
                }
                if fits(self.free[slot2], w1) {
                    if self.probe(tmc, None, node1, node2, ev.vertex, mc, ac) {
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
        self.task_router[t1 as usize] = self.machine.router_of(node2);
        self.buckets.relocate(slot1, slot2, t1);
        self.free[slot1] += w1;
        self.free[slot2] -= w1;
        if let Some(t) = t2 {
            let w2 = self.tg.task_weight(t);
            self.mapping[t as usize] = node1;
            self.task_router[t as usize] = self.machine.router_of(node1);
            self.buckets.relocate(slot2, slot1, t);
            self.free[slot2] += w2;
            self.free[slot1] -= w2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::validate_mapping;
    use crate::metrics::evaluate;
    use umpa_topology::{AllocSpec, Allocation, MachineConfig};

    fn line_machine(n: u32) -> Machine {
        MachineConfig::small(&[n], 1, 1).build()
    }

    /// Algorithm 3 on a fresh scratch.
    fn refine_fresh(
        tg: &TaskGraph,
        machine: &Machine,
        alloc: &Allocation,
        mapping: &mut [u32],
        cfg: &CongRefineConfig,
    ) -> (f64, f64) {
        congestion_refine_scratch(tg, machine, alloc, mapping, cfg, &mut CongScratch::new())
    }

    #[test]
    fn relieves_an_overloaded_link() {
        let m = line_machine(8);
        let alloc = Allocation::generate(&m, &AllocSpec::contiguous(6));
        // Three messages all crossing the 2-3 boundary when placed
        // consecutively, plus slack nodes to move to.
        let tg = TaskGraph::from_messages(6, [(0, 3, 4.0), (1, 4, 4.0), (2, 5, 4.0)], None);
        let mut mapping: Vec<u32> = (0..6usize).map(|t| alloc.node(t)).collect();
        let before = evaluate(&tg, &m, &mapping);
        let (mc, _ac) = refine_fresh(&tg, &m, &alloc, &mut mapping, &CongRefineConfig::volume());
        let after = evaluate(&tg, &m, &mapping);
        assert!(mc <= before.mc + 1e-9);
        assert!(
            after.mc <= before.mc + 1e-9,
            "MC worsened: {} -> {}",
            before.mc,
            after.mc
        );
        assert!((after.mc - mc).abs() < 1e-9, "state drifted from reality");
        validate_mapping(&tg, &alloc, &mapping).unwrap();
    }

    #[test]
    fn never_worsens_mc_and_matches_evaluator() {
        let m = MachineConfig::small(&[4, 4], 1, 1).build();
        for seed in 0..4u64 {
            let alloc = Allocation::generate(&m, &AllocSpec::sparse(8, seed));
            let tg = TaskGraph::from_messages(
                8,
                (0..8u32).flat_map(|i| [(i, (i + 1) % 8, 2.0), (i, (i + 4) % 8, 1.0)]),
                None,
            );
            let mut mapping: Vec<u32> = (0..8usize).map(|t| alloc.node(t)).collect();
            let before = evaluate(&tg, &m, &mapping);
            let (mc, ac) = refine_fresh(&tg, &m, &alloc, &mut mapping, &CongRefineConfig::volume());
            let after = evaluate(&tg, &m, &mapping);
            assert!(after.mc <= before.mc + 1e-9, "seed {seed}");
            assert!((after.mc - mc).abs() < 1e-9, "seed {seed}: mc mismatch");
            assert!((after.ac - ac).abs() < 1e-9, "seed {seed}: ac mismatch");
            validate_mapping(&tg, &alloc, &mapping).unwrap();
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let m = MachineConfig::small(&[4, 4], 1, 1).build();
        let tg = TaskGraph::from_messages(
            8,
            (0..8u32).flat_map(|i| [(i, (i + 1) % 8, 2.0), (i, (i + 4) % 8, 1.0)]),
            None,
        );
        let mut scratch = CongScratch::new();
        for seed in 0..6u64 {
            let alloc = Allocation::generate(&m, &AllocSpec::sparse(8, seed));
            let base: Vec<u32> = (0..8usize).map(|t| alloc.node(t)).collect();
            let mut warm = base.clone();
            let mut fresh = base.clone();
            let warm_out = congestion_refine_scratch(
                &tg,
                &m,
                &alloc,
                &mut warm,
                &CongRefineConfig::volume(),
                &mut scratch,
            );
            let fresh_out = refine_fresh(&tg, &m, &alloc, &mut fresh, &CongRefineConfig::volume());
            assert_eq!(warm, fresh, "seed {seed}: warm scratch diverged");
            assert_eq!(warm_out, fresh_out, "seed {seed}");
        }
    }

    #[test]
    fn message_variant_reduces_mmc() {
        let m = line_machine(8);
        let alloc = Allocation::generate(&m, &AllocSpec::contiguous(6));
        let tg = TaskGraph::from_messages(6, [(0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)], None);
        let mut mapping: Vec<u32> = (0..6usize).map(|t| alloc.node(t)).collect();
        let before = evaluate(&tg, &m, &mapping);
        refine_fresh(&tg, &m, &alloc, &mut mapping, &CongRefineConfig::messages());
        let after = evaluate(&tg, &m, &mapping);
        assert!(after.mmc <= before.mmc + 1e-9);
        validate_mapping(&tg, &alloc, &mapping).unwrap();
    }

    #[test]
    fn no_congestion_is_a_noop() {
        let m = line_machine(4);
        let alloc = Allocation::generate(&m, &AllocSpec::contiguous(2));
        // Tasks co-located per pair: zero link traffic.
        let tg = TaskGraph::from_messages(2, [(0, 1, 3.0)], None);
        let mut cfg = MachineConfig::small(&[4], 2, 2);
        cfg.nodes_per_router = 2;
        let m2 = cfg.build();
        let alloc2 = Allocation::generate(&m2, &AllocSpec::contiguous(2));
        let mut mapping = vec![alloc2.node(0), alloc2.node(1)];
        // Both nodes share router 0 → no traffic.
        let (mc, ac) = refine_fresh(&tg, &m2, &alloc2, &mut mapping, &CongRefineConfig::volume());
        assert_eq!((mc, ac), (0.0, 0.0));
        let _ = (m, alloc);
    }

    #[test]
    fn respects_capacity_during_swaps() {
        let m = MachineConfig::small(&[6], 1, 2).build();
        let alloc = Allocation::generate(&m, &AllocSpec::contiguous(3));
        let tg = TaskGraph::from_messages(
            5,
            [
                (0, 1, 2.0),
                (1, 2, 2.0),
                (2, 3, 2.0),
                (3, 4, 2.0),
                (4, 0, 2.0),
            ],
            None,
        );
        let mut mapping = vec![
            alloc.node(0),
            alloc.node(0),
            alloc.node(1),
            alloc.node(1),
            alloc.node(2),
        ];
        refine_fresh(&tg, &m, &alloc, &mut mapping, &CongRefineConfig::volume());
        validate_mapping(&tg, &alloc, &mapping).unwrap();
    }

    #[test]
    fn stats_report_probes_and_cache_hits() {
        let m = line_machine(8);
        let alloc = Allocation::generate(&m, &AllocSpec::contiguous(6));
        let tg = TaskGraph::from_messages(6, [(0, 3, 4.0), (1, 4, 4.0), (2, 5, 4.0)], None);
        let mut mapping: Vec<u32> = (0..6usize).map(|t| alloc.node(t)).collect();
        let mut scratch = CongScratch::new();
        congestion_refine_scratch(
            &tg,
            &m,
            &alloc,
            &mut mapping,
            &CongRefineConfig::volume(),
            &mut scratch,
        );
        let stats = scratch.stats();
        assert!(stats.probes >= stats.moves);
        assert!(stats.moves >= 1, "the overloaded line must admit a move");
        assert!(stats.route_queries > 0);
        // The 8-router line is far under the cache threshold: every
        // query is a slice read.
        assert_eq!(stats.route_cache_hits, stats.route_queries);
        assert_eq!(stats.route_cache_hit_rate(), 1.0);

        // With the cache disabled the same refinement runs analytically
        // (hit rate 0) and produces the identical mapping.
        let mut no_cache = line_machine(8);
        no_cache.set_route_cache_threshold(0);
        let mut mapping2: Vec<u32> = (0..6usize).map(|t| alloc.node(t)).collect();
        congestion_refine_scratch(
            &tg,
            &no_cache,
            &alloc,
            &mut mapping2,
            &CongRefineConfig::volume(),
            &mut scratch,
        );
        assert_eq!(mapping, mapping2);
        assert_eq!(scratch.stats().route_cache_hits, 0);
        assert_eq!(scratch.stats().route_cache_hit_rate(), 0.0);
    }
}
