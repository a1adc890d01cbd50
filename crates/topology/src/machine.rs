//! The machine model: a pluggable topology + compute nodes + links.
//!
//! A [`Machine`] is the paper's topology graph `Gm` plus everything the
//! algorithms and the network simulator need: a [`Topology`] backend
//! (torus/mesh, fat-tree, or dragonfly), multi-node routers,
//! per-link bandwidths, hop latencies and a CSR router graph for BFS
//! traversals. The *topology* owns the link-id space and the channel
//! format (see [`crate::topology`]); the machine's per-channel tables
//! (`num_links`, bandwidths) are indexed by [`Topology::channel`] ids.

use std::sync::{Arc, OnceLock};

use umpa_graph::{Graph, GraphBuilder};

use crate::fault::{self, MaskedTrees};
use crate::oracle::DistanceOracle;
use crate::route_cache::RouteCache;
use crate::topology::{Topology, TorusNet};
use crate::torus::Torus;

/// Default router-count ceiling for the [`DistanceOracle`] table. At
/// `2·n²` bytes the table tops out at 32 MiB here; larger machines fall
/// back to the analytic [`Topology::distance`] path transparently.
pub const DEFAULT_ORACLE_MAX_ROUTERS: usize = 4096;

/// Default router-count ceiling for the [`RouteCache`]. Rows are built
/// lazily per source router, so memory is proportional to the routers
/// actually routed *from* (one row ≈ `4·(n + Σ_b distance(a, b))`
/// bytes), not to `n²`; the ceiling only bounds the degenerate
/// everything-routes-from-everywhere case. Larger machines fall back to
/// the analytic route emitters transparently.
pub const DEFAULT_ROUTE_CACHE_MAX_ROUTERS: usize = 4096;

/// Topology-independent machine parameters: node attachment, capacity
/// and the latency/injection model shared by every backend.
#[derive(Clone, Copy, Debug)]
pub struct MachineParams {
    /// Compute nodes attached to each terminal router (Gemini: 2).
    pub nodes_per_router: u32,
    /// Processor cores usable per node (the paper uses 16 of Hopper's 24).
    pub procs_per_node: u32,
    /// Nearest-neighbor one-way latency, microseconds.
    pub base_latency_us: f64,
    /// Additional latency per hop, microseconds.
    pub hop_latency_us: f64,
    /// Injection (NIC) bandwidth per node, GB/s.
    pub nic_bw: f64,
}

/// Configuration for building a torus/mesh [`Machine`] (the paper's
/// machine model; fat-tree and dragonfly machines are built through
/// [`crate::fat_tree::FatTreeConfig`] and
/// [`crate::dragonfly::DragonflyConfig`]).
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Torus extents per dimension.
    pub dims: Vec<u32>,
    /// Wraparound links (torus) or not (mesh).
    pub wraparound: bool,
    /// Compute nodes attached to each router (Gemini: 2).
    pub nodes_per_router: u32,
    /// Processor cores usable per node (the paper uses 16 of Hopper's 24).
    pub procs_per_node: u32,
    /// Link bandwidth per dimension, GB/s.
    pub bw_per_dim: Vec<f64>,
    /// Nearest-neighbor one-way latency, microseconds.
    pub base_latency_us: f64,
    /// Additional latency per hop, microseconds.
    pub hop_latency_us: f64,
    /// Injection (NIC) bandwidth per node, GB/s.
    pub nic_bw: f64,
}

impl MachineConfig {
    /// NERSC Hopper: Cray XE6, 17×8×24 Gemini 3-D torus, 2 nodes per
    /// Gemini, X/Z links ≈ 9.375 GB/s, Y links ≈ 4.68 GB/s; nearest and
    /// farthest latencies 1.27 µs and 3.88 µs (Section II-B), which over
    /// the 24-hop diameter gives ≈ 0.109 µs per hop.
    pub fn hopper() -> Self {
        Self {
            dims: vec![17, 8, 24],
            wraparound: true,
            nodes_per_router: 2,
            procs_per_node: 16,
            bw_per_dim: vec![9.375, 4.68, 9.375],
            base_latency_us: 1.27,
            hop_latency_us: (3.88 - 1.27) / 24.0,
            nic_bw: 6.0,
        }
    }

    /// A small torus for tests and examples, unit bandwidths.
    pub fn small(dims: &[u32], nodes_per_router: u32, procs_per_node: u32) -> Self {
        Self {
            dims: dims.to_vec(),
            wraparound: true,
            nodes_per_router,
            procs_per_node,
            bw_per_dim: vec![1.0; dims.len()],
            base_latency_us: 1.0,
            hop_latency_us: 0.1,
            nic_bw: 1.0,
        }
    }

    /// A small mesh (no wraparound) for tests and generality checks.
    pub fn small_mesh(dims: &[u32], nodes_per_router: u32, procs_per_node: u32) -> Self {
        Self {
            wraparound: false,
            ..Self::small(dims, nodes_per_router, procs_per_node)
        }
    }

    /// Builds the machine.
    pub fn build(self) -> Machine {
        Machine::new(self)
    }
}

/// A point-in-time summary of the machine's failure mask, cheap to
/// compare and to hold across lock boundaries. A long-running
/// supervisor (e.g. `umpa-service`'s churn-drift supervisor) snapshots
/// this to detect fault-state transitions between inspections —
/// distances and routes change whenever `hard_failed` does, so a
/// quality baseline computed under a different snapshot is stale.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSnapshot {
    /// Every link currently below nominal bandwidth, as
    /// `(physical link id, remaining bandwidth fraction)`, ascending by
    /// link id. Hard failures appear with factor `0.0`.
    pub degraded: Vec<(u32, f64)>,
    /// Number of hard-failed links (`factor == 0.0`): when nonzero the
    /// machine routes over the failure-masked BFS products.
    pub hard_failed: usize,
}

impl FaultSnapshot {
    /// Appends a canonical little-endian binary encoding of the
    /// snapshot to `out`: `[count: u32][(link: u32, factor bits: u64)…]`.
    /// `hard_failed` is not stored — it is derivable (factor == 0.0)
    /// and recomputed on decode, so the two can never disagree.
    /// Factors round-trip via [`f64::to_bits`] so a decode is
    /// bit-identical to the encoded state (the crash-recovery
    /// differential contract in `umpa-service`).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.degraded.len() as u32).to_le_bytes());
        for &(link, factor) in &self.degraded {
            out.extend_from_slice(&link.to_le_bytes());
            out.extend_from_slice(&factor.to_bits().to_le_bytes());
        }
    }

    /// Decodes a snapshot previously written by
    /// [`FaultSnapshot::encode_into`] from the front of `bytes`.
    /// Returns the snapshot and the number of bytes consumed, or `None`
    /// if `bytes` is truncated or structurally invalid (factor not
    /// finite / outside `[0, 1]`, link ids not strictly ascending).
    /// Never panics: corrupt input is a decode failure, not a crash.
    pub fn decode(bytes: &[u8]) -> Option<(Self, usize)> {
        let head = bytes.get(..4)?;
        let count = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let mut off = 4usize;
        let mut degraded = Vec::with_capacity(count.min(bytes.len() / 12));
        let mut hard_failed = 0usize;
        let mut prev_link: Option<u32> = None;
        for _ in 0..count {
            let rec = bytes.get(off..off + 12)?;
            let link = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
            let factor = f64::from_bits(u64::from_le_bytes([
                rec[4], rec[5], rec[6], rec[7], rec[8], rec[9], rec[10], rec[11],
            ]));
            if !factor.is_finite() || !(0.0..=1.0).contains(&factor) || factor == 1.0 {
                return None;
            }
            if prev_link.is_some_and(|p| p >= link) {
                return None;
            }
            prev_link = Some(link);
            if factor == 0.0 {
                hard_failed += 1;
            }
            degraded.push((link, factor));
            off += 12;
        }
        Some((
            FaultSnapshot {
                degraded,
                hard_failed,
            },
            off,
        ))
    }

    /// Whether every entry passes [`Machine::check_link_event`] on
    /// `machine`. Decoded snapshots must pass this before
    /// [`Machine::apply_fault_snapshot`] — a snapshot taken on a
    /// different topology (or corrupted in storage) fails here instead
    /// of panicking inside `degrade_link`.
    pub fn is_valid_for(&self, machine: &Machine) -> bool {
        self.degraded
            .iter()
            .all(|&(link, factor)| machine.check_link_event(link, factor).is_ok())
    }
}

/// Per-physical-link health (the failure mask). Absent on a healthy
/// machine so the fault-free fast paths stay branch-cheap.
#[derive(Clone, Debug)]
struct FaultState {
    /// Bandwidth factor per physical link (`1.0` healthy, `0.0` failed).
    factor: Vec<f64>,
    /// Links with `factor == 0.0` (hard failures).
    failed: usize,
    /// Links with `factor != 1.0` (any degradation, incl. failures).
    imperfect: usize,
}

/// The machine: topology graph `Gm`, node/processor layout, link ids and
/// bandwidths, and O(1) hop distances.
#[derive(Clone, Debug)]
pub struct Machine {
    topo: Topology,
    params: MachineParams,
    router_graph: Graph,
    /// Failure mask; `None` = every link healthy (the common case).
    faults: Option<FaultState>,
    /// Lazily built terminal-router hop table; `None` inside means the
    /// machine exceeds `oracle_max_routers` and hot paths use the
    /// analytic distance.
    oracle: OnceLock<Option<DistanceOracle>>,
    oracle_max_routers: usize,
    /// Lazily built per-source route memo; `None` inside means the
    /// machine exceeds `route_cache_max_routers` and hot paths use the
    /// analytic route emitters.
    route_cache: OnceLock<Option<RouteCache>>,
    route_cache_max_routers: usize,
    /// Under hard link failures, the per-source BFS trees of the one
    /// masked sweep: set by the masked `oracle` build, shared by the
    /// masked route cache.
    masked_trees: OnceLock<Arc<MaskedTrees>>,
    /// Lazily built reciprocal channel bandwidths (`1 / bw` per channel
    /// id), hoisted once so per-run congestion setup is a slice borrow
    /// instead of `num_links` divisions.
    inv_bw: OnceLock<Vec<f64>>,
}

impl Machine {
    /// Builds a torus/mesh machine from a config.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.nodes_per_router >= 1);
        assert!(cfg.procs_per_node >= 1);
        let torus = if cfg.wraparound {
            Torus::new(&cfg.dims)
        } else {
            Torus::new_mesh(&cfg.dims)
        };
        let params = MachineParams {
            nodes_per_router: cfg.nodes_per_router,
            procs_per_node: cfg.procs_per_node,
            base_latency_us: cfg.base_latency_us,
            hop_latency_us: cfg.hop_latency_us,
            nic_bw: cfg.nic_bw,
        };
        Self::from_topology(
            Topology::Torus(TorusNet::new(torus, &cfg.bw_per_dim)),
            params,
        )
    }

    /// Builds a machine from any topology backend.
    pub fn from_topology(topo: Topology, params: MachineParams) -> Self {
        assert!(params.nodes_per_router >= 1);
        assert!(params.procs_per_node >= 1);
        let mut b = GraphBuilder::new(topo.num_routers());
        topo.for_each_link(|_, u, v, bw| {
            b.add_edge(u, v, bw);
        });
        let router_graph = b.build_symmetric();
        Self {
            topo,
            params,
            router_graph,
            faults: None,
            oracle: OnceLock::new(),
            oracle_max_routers: DEFAULT_ORACLE_MAX_ROUTERS,
            route_cache: OnceLock::new(),
            route_cache_max_routers: DEFAULT_ROUTE_CACHE_MAX_ROUTERS,
            masked_trees: OnceLock::new(),
            inv_bw: OnceLock::new(),
        }
    }

    /// The distance-oracle table, building it on first use; `None` when
    /// the machine exceeds the router-count threshold (hot paths then
    /// use the analytic [`Topology::distance`]).
    ///
    /// The build is one per-source distance sweep, paid by the *first*
    /// query on the machine (≈ 25 ms on Hopper's 3264 routers) — the
    /// right trade for a long-lived serving machine, where every
    /// subsequent mapping amortizes it. A latency-sensitive caller
    /// doing a single mapping on a large machine can opt out with
    /// [`set_oracle_threshold(0)`](Self::set_oracle_threshold).
    /// Under a failure mask with hard-failed links the table is
    /// **force-built** from the masked BFS sweep regardless of the
    /// threshold: the analytic fallback would measure distances over
    /// dead links, so in fault mode there is no fallback to fall back
    /// to (correctness over the memory knob; `u16::MAX` entries mark
    /// pairs the failures cut apart). The same sweep leaves every
    /// source's BFS tree for [`route_cache`](Self::route_cache), so one
    /// sweep serves both per change of the failed-link set.
    #[inline]
    pub fn oracle(&self) -> Option<&DistanceOracle> {
        self.oracle
            .get_or_init(|| match self.failed_factors() {
                Some(factor) => {
                    let (table, trees) = fault::sweep(&self.topo, factor);
                    // Set unless a threshold change re-runs this build
                    // under the same failed-link set: the trees are then
                    // already there, and equal.
                    let _ = self.masked_trees.set(Arc::new(trees));
                    Some(DistanceOracle::from_table(
                        self.topo.num_terminal_routers(),
                        table,
                    ))
                }
                None => DistanceOracle::build(&self.topo, self.oracle_max_routers),
            })
            .as_ref()
    }

    /// Overrides the oracle router-count threshold (0 disables the
    /// table entirely — the analytic-fallback configuration the
    /// bit-identity tests pin). Discards any table already built.
    pub fn set_oracle_threshold(&mut self, max_routers: usize) {
        self.oracle_max_routers = max_routers;
        self.oracle = OnceLock::new();
    }

    /// The route memo, instantiating it on first use; `None` when the
    /// machine exceeds the router-count threshold (hot paths then emit
    /// routes analytically). Instantiation is O(n) empty row slots —
    /// rows themselves build on first route *from* or *to* each router,
    /// so the first congestion refinement on a fresh allocation pays
    /// the row builds and every later run reads warm slices (DESIGN.md
    /// §13). Under a failure mask with hard-failed links the cache is
    /// instantiated regardless of the threshold, over the BFS trees of
    /// the masked sweep [`oracle`](Self::oracle) runs: its rows walk
    /// the trees around the dead links, on demand like healthy rows,
    /// since the analytic emitters would route straight through them
    /// (DESIGN.md §14).
    #[inline]
    pub fn route_cache(&self) -> Option<&RouteCache> {
        self.route_cache
            .get_or_init(|| match self.failed_factors() {
                Some(_) => {
                    self.oracle();
                    let trees = self
                        .masked_trees
                        .get()
                        .expect("the masked oracle build sets the trees");
                    Some(RouteCache::masked(
                        self.topo.num_terminal_routers(),
                        Arc::clone(trees),
                    ))
                }
                None => RouteCache::build(&self.topo, self.route_cache_max_routers),
            })
            .as_ref()
    }

    /// Overrides the route-cache router-count threshold (0 disables the
    /// memo entirely — the analytic-fallback configuration the
    /// cong-refine differential test pins). Discards any rows already
    /// built.
    pub fn set_route_cache_threshold(&mut self, max_routers: usize) {
        self.route_cache_max_routers = max_routers;
        self.route_cache = OnceLock::new();
    }

    /// Applies the failure mask: scales physical link `link`'s
    /// bandwidth to `factor` of nominal (`0.0` = hard failure, `1.0` =
    /// fully restored).
    ///
    /// Invalidation rules (the stale-cache contract DESIGN.md §14
    /// documents and `tests/remap.rs` pins):
    ///
    /// * a pure bandwidth degradation (`0 < factor`) changes no route
    ///   and no distance — the memoized reciprocal bandwidths are
    ///   patched **in place** (allocation-free, the warm-remap path);
    /// * a hard failure or a recovery from one changes the set of
    ///   usable links — the router graph is rebuilt over the survivors
    ///   and the distance oracle and route cache are discarded, to be
    ///   lazily re-derived from the masked BFS sweep (or the analytic
    ///   builders once no failures remain).
    ///
    /// When every link is back at factor `1.0` the mask is dropped
    /// entirely and the machine is indistinguishable from freshly
    /// built.
    ///
    /// Panics when the event fails
    /// [`check_link_event`](Self::check_link_event); callers holding
    /// untrusted events run that check first.
    pub fn degrade_link(&mut self, link: u32, factor: f64) {
        if let Err(e) = self.check_link_event(link, factor) {
            panic!("link event (link {link}, factor {factor}) refused: {e}");
        }
        let num_phys = self.topo.num_physical_links();
        let (was_failed, now_failed, drop_mask) = {
            let faults = self.faults.get_or_insert_with(|| FaultState {
                factor: vec![1.0; num_phys],
                failed: 0,
                imperfect: 0,
            });
            let old = faults.factor[link as usize];
            if old == factor {
                return;
            }
            faults.factor[link as usize] = factor;
            let (was_failed, now_failed) = (old == 0.0, factor == 0.0);
            faults.failed = faults.failed - usize::from(was_failed) + usize::from(now_failed);
            faults.imperfect =
                faults.imperfect - usize::from(old != 1.0) + usize::from(factor != 1.0);
            (was_failed, now_failed, faults.imperfect == 0)
        };
        if let Some(inv) = self.inv_bw.get_mut() {
            let inv_val = 1.0 / (self.topo.physical_link_bw(link) * factor);
            for reversed in [false, true] {
                inv[Topology::channel(link, reversed) as usize] = inv_val;
            }
        }
        if drop_mask {
            self.faults = None;
        }
        if was_failed != now_failed {
            self.rebuild_after_failure_change();
        }
    }

    /// The one check a link event (a `LinkDegraded` churn event or a
    /// fault-snapshot entry) must pass before it touches the machine:
    /// `link` is a physical link of this topology and `factor` lies in
    /// `0.0..=1.0` (NaN does not). The error names the reason. Live
    /// churn, recovery replay, fault snapshots and
    /// [`degrade_link`](Self::degrade_link) all run it.
    pub fn check_link_event(&self, link: u32, factor: f64) -> Result<(), &'static str> {
        if link as usize >= self.topo.num_physical_links() {
            return Err("link id past this topology");
        }
        if !(0.0..=1.0).contains(&factor) {
            return Err("bandwidth factor is NaN or outside 0.0..=1.0");
        }
        Ok(())
    }

    /// Restores physical link `link` to full health
    /// (`degrade_link(link, 1.0)`).
    pub fn restore_link(&mut self, link: u32) {
        self.degrade_link(link, 1.0);
    }

    /// Drops the entire failure mask and re-derives every cache from
    /// the pristine topology.
    pub fn clear_faults(&mut self) {
        if self.faults.take().is_some() {
            self.inv_bw = OnceLock::new();
            self.rebuild_after_failure_change();
        }
    }

    /// Remaining bandwidth fraction of physical link `link` (`1.0`
    /// when healthy, `0.0` when hard-failed).
    #[inline]
    pub fn link_factor(&self, link: u32) -> f64 {
        match &self.faults {
            Some(f) => f.factor[link as usize],
            None => 1.0,
        }
    }

    /// Whether any physical link is hard-failed (masked routing mode).
    #[inline]
    pub fn has_failed_links(&self) -> bool {
        matches!(&self.faults, Some(f) if f.failed > 0)
    }

    /// Snapshots the current failure mask into a comparable value (see
    /// [`FaultSnapshot`]). Returns the default (healthy) snapshot when
    /// no fault has ever been injected or after [`Machine::clear_faults`].
    pub fn fault_snapshot(&self) -> FaultSnapshot {
        match &self.faults {
            None => FaultSnapshot::default(),
            Some(f) => {
                let mut degraded = Vec::with_capacity(f.failed + f.imperfect);
                for (l, &factor) in f.factor.iter().enumerate() {
                    if factor != 1.0 {
                        degraded.push((l as u32, factor));
                    }
                }
                FaultSnapshot {
                    degraded,
                    hard_failed: f.failed,
                }
            }
        }
    }

    /// Re-imposes a previously captured failure mask onto this machine,
    /// replacing whatever mask it currently carries. Returns `false`
    /// (leaving the machine untouched) when the snapshot does not
    /// validate against this topology ([`FaultSnapshot::is_valid_for`])
    /// — the caller decodes snapshots from storage and must get a typed
    /// failure, never the `degrade_link` asserts. On success the
    /// machine's own [`Machine::fault_snapshot`] compares equal to
    /// `snap`, and every derived product (oracle, route cache, inverse
    /// bandwidths) is rebuilt through the same `degrade_link` path an
    /// uninterrupted run would have taken, so downstream cost metrics
    /// are bit-identical.
    pub fn apply_fault_snapshot(&mut self, snap: &FaultSnapshot) -> bool {
        if !snap.is_valid_for(self) {
            return false;
        }
        self.clear_faults();
        for &(link, factor) in &snap.degraded {
            if factor != 1.0 {
                self.degrade_link(link, factor);
            }
        }
        true
    }

    /// The failure factors when at least one link is hard-failed.
    #[inline]
    fn failed_factors(&self) -> Option<&[f64]> {
        match &self.faults {
            Some(f) if f.failed > 0 => Some(&f.factor),
            _ => None,
        }
    }

    /// Rebuilds the router graph over surviving links and discards the
    /// route/distance products (they lazily re-derive masked or
    /// analytic as appropriate).
    fn rebuild_after_failure_change(&mut self) {
        let mut b = GraphBuilder::new(self.topo.num_routers());
        match self.failed_factors() {
            Some(factor) => self.topo.for_each_link(|l, u, v, bw| {
                if factor[l as usize] > 0.0 {
                    b.add_edge(u, v, bw);
                }
            }),
            None => self.topo.for_each_link(|_, u, v, bw| {
                b.add_edge(u, v, bw);
            }),
        }
        self.router_graph = b.build_symmetric();
        self.oracle = OnceLock::new();
        self.route_cache = OnceLock::new();
        self.masked_trees = OnceLock::new();
    }

    /// Hop distances out of terminal router `r` as a dense row
    /// (`row[b]` = hops `r → b`), when the oracle is enabled. Hot loops
    /// hoist this once per pivot router.
    #[inline]
    pub fn dist_row(&self, r: u32) -> Option<&[u16]> {
        self.oracle().map(|o| o.row(r))
    }

    /// The topology backend.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The underlying torus geometry, when the backend is a torus/mesh.
    #[inline]
    pub fn torus(&self) -> Option<&Torus> {
        self.topo.as_torus()
    }

    /// Topology-independent machine parameters.
    #[inline]
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Injection (NIC) bandwidth per node, GB/s.
    #[inline]
    pub fn nic_bw(&self) -> f64 {
        self.params.nic_bw
    }

    /// Nearest-neighbor one-way latency, microseconds.
    #[inline]
    pub fn base_latency_us(&self) -> f64 {
        self.params.base_latency_us
    }

    /// Additional latency per hop, microseconds.
    #[inline]
    pub fn hop_latency_us(&self) -> f64 {
        self.params.hop_latency_us
    }

    /// Number of routers `|Vm|` — **all** vertices of the topology
    /// graph, including internal switches that host no nodes (fat-tree
    /// aggregation/core levels). Size BFS workspaces against this.
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.topo.num_routers()
    }

    /// Routers that host compute nodes; they occupy ids
    /// `0..num_terminal_routers()`.
    #[inline]
    pub fn num_terminal_routers(&self) -> usize {
        self.topo.num_terminal_routers()
    }

    /// Total number of compute nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_terminal_routers() * self.params.nodes_per_router as usize
    }

    /// Processor cores usable per node.
    #[inline]
    pub fn procs_per_node(&self) -> u32 {
        self.params.procs_per_node
    }

    /// Router a node hangs off.
    #[inline]
    pub fn router_of(&self, node: u32) -> u32 {
        node / self.params.nodes_per_router
    }

    /// Node ids attached to router `r` (empty for internal switches).
    #[inline]
    pub fn nodes_of_router(&self, r: u32) -> std::ops::Range<u32> {
        if (r as usize) < self.num_terminal_routers() {
            let npr = self.params.nodes_per_router;
            r * npr..(r + 1) * npr
        } else {
            0..0
        }
    }

    /// Hop distance between two *nodes* (0 when they share a router).
    /// Served from the [`DistanceOracle`] table when built (a single
    /// bounds-checked row index), otherwise from the analytic
    /// [`Topology::distance`]; the two agree exactly, so every consumer
    /// — greedy WH sums, refinement gains, TMAP/SMAP splits — is
    /// bit-identical across the paths.
    #[inline]
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.router_of(a), self.router_of(b));
        match self.oracle() {
            Some(o) => o.distance(ra, rb),
            None => self.topo.distance(ra, rb),
        }
    }

    /// Network diameter in hops.
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.topo.diameter()
    }

    /// The router adjacency graph in CSR form (symmetric; edge weights =
    /// link bandwidths), for BFS traversals.
    #[inline]
    pub fn router_graph(&self) -> &Graph {
        &self.router_graph
    }

    /// Number of channel ids: the first [`Topology::channel`] past the
    /// last physical link's two. The space is exact: every id belongs
    /// to a routable physical link.
    #[inline]
    pub fn num_links(&self) -> usize {
        Topology::channel(self.topo.num_physical_links() as u32, false) as usize
    }

    /// Reciprocal bandwidth (`1 / link_bandwidth`) of every channel id,
    /// as one lazily-built shared slice — the per-link cost vector of
    /// volume-congestion accounting, hoisted to machine lifetime.
    pub fn inv_bandwidths(&self) -> &[f64] {
        self.inv_bw.get_or_init(|| {
            (0..self.num_links() as u32)
                .map(|l| 1.0 / self.link_bandwidth(l))
                .collect()
        })
    }

    /// Bandwidth of channel `id` in GB/s, scaled by the failure mask
    /// (a hard-failed link reports zero bandwidth).
    #[inline]
    pub fn link_bandwidth(&self, id: u32) -> f64 {
        let phys = Topology::channel_link(id);
        let bw = self.topo.physical_link_bw(phys);
        match &self.faults {
            Some(f) => bw * f.factor[phys as usize],
            None => bw,
        }
    }

    /// Latency of a `hops`-hop message path in microseconds.
    #[inline]
    pub fn path_latency_us(&self, hops: u32) -> f64 {
        self.params.base_latency_us + self.params.hop_latency_us * f64::from(hops)
    }

    /// Appends the channel ids of the static route between *nodes* `a`
    /// and `b` onto `out` (empty when they share a router).
    /// Allocation-free once `out` has capacity — the engine's warm
    /// scratch contract depends on this.
    /// Under a failure mask with hard-failed links, routes are served
    /// from the masked route cache (built around the dead links); the
    /// analytic emitters know nothing about link health.
    #[inline]
    pub fn route_links(&self, a: u32, b: u32, out: &mut Vec<u32>) {
        let (ra, rb) = (self.router_of(a), self.router_of(b));
        if ra == rb {
            return;
        }
        if self.has_failed_links() {
            let cache = self
                .route_cache()
                .expect("the masked route cache exists under failures");
            out.extend_from_slice(cache.route(&self.topo, ra, rb));
            return;
        }
        self.topo.route_links(ra, rb, out);
    }

    /// Route link ids as a fresh vector (diagnostics/tests).
    pub fn route_links_vec(&self, a: u32, b: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.route_links(a, b, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dragonfly::DragonflyConfig;
    use crate::fat_tree::FatTreeConfig;

    fn m222() -> Machine {
        MachineConfig::small(&[4, 4, 4], 2, 4).build()
    }

    #[test]
    fn node_router_layout() {
        let m = m222();
        assert_eq!(m.num_routers(), 64);
        assert_eq!(m.num_nodes(), 128);
        assert_eq!(m.router_of(0), 0);
        assert_eq!(m.router_of(1), 0);
        assert_eq!(m.router_of(2), 1);
        assert_eq!(m.nodes_of_router(3), 6..8);
    }

    #[test]
    fn fault_snapshot_tracks_degradations_and_clears() {
        let mut m = m222();
        assert_eq!(m.fault_snapshot(), FaultSnapshot::default());

        m.degrade_link(3, 0.5);
        m.degrade_link(7, 0.0);
        let snap = m.fault_snapshot();
        assert_eq!(snap.degraded, vec![(3, 0.5), (7, 0.0)]);
        assert_eq!(snap.hard_failed, 1);
        // Stable across reads: the snapshot is a pure function of the mask.
        assert_eq!(m.fault_snapshot(), snap);

        m.restore_link(7);
        let snap = m.fault_snapshot();
        assert_eq!(snap.degraded, vec![(3, 0.5)]);
        assert_eq!(snap.hard_failed, 0);

        m.clear_faults();
        assert_eq!(m.fault_snapshot(), FaultSnapshot::default());
    }

    #[test]
    fn same_router_nodes_have_zero_hops_and_empty_route() {
        let m = m222();
        assert_eq!(m.hops(0, 1), 0);
        assert!(m.route_links_vec(0, 1).is_empty());
    }

    #[test]
    fn route_link_count_matches_hops() {
        let m = m222();
        for a in (0..128u32).step_by(11) {
            for b in (0..128u32).step_by(7) {
                assert_eq!(m.route_links_vec(a, b).len() as u32, m.hops(a, b));
            }
        }
    }

    #[test]
    fn directed_links_distinguish_directions() {
        let m = m222();
        // Pick two nodes on adjacent routers; routes a->b and b->a use
        // different directed channel ids over the same physical link.
        let (a, b) = (0u32, 2u32);
        let ab = m.route_links_vec(a, b);
        let ba = m.route_links_vec(b, a);
        assert_eq!(ab.len(), 1);
        assert_eq!(ba.len(), 1);
        assert_ne!(ab[0], ba[0]);
        assert_eq!(Topology::channel_link(ab[0]), Topology::channel_link(ba[0]));
    }

    #[test]
    fn extent_two_wraparound_shares_undirected_ids() {
        // The regression the topology-owned id scheme exists for: both
        // directions of an extent-2 dim tie-break to `positive`, but
        // they must still be the two channels of ONE physical link.
        let m = MachineConfig::small(&[2, 4], 1, 1).build();
        for y in 0..4u32 {
            let (a, b) = (y * 2, y * 2 + 1); // (0, y) <-> (1, y)
            let ab = m.route_links_vec(a, b);
            let ba = m.route_links_vec(b, a);
            assert_eq!(ab.len(), 1);
            assert_eq!(ba.len(), 1);
            let l = Topology::channel_link(ab[0]);
            assert_eq!(ab[0], Topology::channel(l, false), "{a} -> {b}");
            assert_eq!(ba[0], Topology::channel(l, true), "{b} -> {a}");
        }
        // Exact id space: 4 extent-2 links + 8 ring links, 2 channels each.
        assert_eq!(m.num_links(), 24);
    }

    #[test]
    fn extent_one_and_mesh_boundaries_have_exact_id_spaces() {
        let m = MachineConfig::small(&[1, 4], 1, 1).build();
        assert_eq!(m.num_links(), 8, "4 ring links x 2 directions");
        let m = MachineConfig::small_mesh(&[4], 1, 1).build();
        assert_eq!(m.num_links(), 6, "3 mesh links x 2 directions");
    }

    #[test]
    fn hopper_preset_shape() {
        let m = MachineConfig::hopper().build();
        assert_eq!(m.num_routers(), 17 * 8 * 24);
        assert_eq!(m.num_nodes(), 2 * 17 * 8 * 24);
        assert_eq!(m.diameter(), 24);
        assert_eq!(m.procs_per_node(), 16);
        // Y-dimension links are the slow ones: route one +y hop from
        // router 0 (nodes 0 and the y-neighbor's first node).
        let t = m.torus().unwrap();
        let y_neighbor = t.neighbor(0, 1, true);
        let route = m.route_links_vec(0, y_neighbor * 2);
        assert_eq!(route.len(), 1);
        assert!((m.link_bandwidth(route[0]) - 4.68).abs() < 1e-12);
        let x_neighbor = t.neighbor(0, 0, true);
        let route = m.route_links_vec(0, x_neighbor * 2);
        assert_eq!(route.len(), 1);
        assert!((m.link_bandwidth(route[0]) - 9.375).abs() < 1e-12);
    }

    #[test]
    fn latency_model_matches_paper_endpoints() {
        let m = MachineConfig::hopper().build();
        assert!((m.path_latency_us(0) - 1.27).abs() < 1e-9);
        assert!((m.path_latency_us(24) - 3.88).abs() < 1e-9);
    }

    #[test]
    fn router_graph_is_six_regular_for_3d() {
        let m = m222();
        let g = m.router_graph();
        for r in 0..g.num_vertices() as u32 {
            assert_eq!(g.degree(r), 6);
        }
    }

    #[test]
    fn fat_tree_machine_shape() {
        let m = FatTreeConfig::small(4, 2, 1).build();
        // k=4: 8 edge switches (terminal), 8 agg, 4 core.
        assert_eq!(m.num_terminal_routers(), 8);
        assert_eq!(m.num_routers(), 20);
        assert_eq!(m.num_nodes(), 16);
        assert_eq!(m.num_links(), 2 * 32);
        // Internal switches host no nodes.
        assert!(m.nodes_of_router(8).is_empty());
        assert!(m.nodes_of_router(19).is_empty());
        // Same-pod and cross-pod distances.
        assert_eq!(m.hops(0, 2), 2);
        assert_eq!(m.hops(0, 4), 4);
        // Router graph degrees: edge = k/2 up, agg = k/2 down + k/2 up,
        // core = k down.
        let g = m.router_graph();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(8), 4);
        assert_eq!(g.degree(16), 4);
    }

    #[test]
    fn dragonfly_machine_shape() {
        let m = DragonflyConfig::small(4, 3, 2).build();
        assert_eq!(m.num_routers(), 12);
        assert_eq!(m.num_terminal_routers(), 12);
        assert_eq!(m.num_nodes(), 24);
        // 4 groups x 3 local links + 6 globals, directed.
        assert_eq!(m.num_links(), 2 * (12 + 6));
        assert_eq!(m.diameter(), 3);
    }

    #[test]
    fn oracle_backs_hops_and_fallback_agrees() {
        let mut m = m222();
        assert!(m.oracle().is_some(), "64 routers is well under threshold");
        let row = m.dist_row(0).unwrap();
        assert_eq!(row.len(), 64);
        let oracle_hops: Vec<u32> = (0..128u32).map(|b| m.hops(0, b)).collect();
        // Disabling the table must not change a single distance.
        m.set_oracle_threshold(0);
        assert!(m.oracle().is_none());
        assert!(m.dist_row(0).is_none());
        let analytic_hops: Vec<u32> = (0..128u32).map(|b| m.hops(0, b)).collect();
        assert_eq!(oracle_hops, analytic_hops);
    }

    #[test]
    fn fault_snapshot_round_trips_bit_identical_and_rejects_corruption() {
        let mut m = MachineConfig::small(&[4, 4], 2, 2).build();
        m.degrade_link(3, 0.25);
        m.degrade_link(9, 0.0);
        let snap = m.fault_snapshot();

        let mut bytes = Vec::new();
        snap.encode_into(&mut bytes);
        let (decoded, used) = FaultSnapshot::decode(&bytes).expect("round trip");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, snap);
        for (&(la, fa), &(lb, fb)) in decoded.degraded.iter().zip(&snap.degraded) {
            assert_eq!(la, lb);
            assert_eq!(fa.to_bits(), fb.to_bits());
        }

        // Truncation and in-place corruption are decode failures, not
        // panics: chop the buffer and flip a factor to a NaN pattern.
        assert!(FaultSnapshot::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut bad = bytes.clone();
        let factor_at = 4 + 4; // first record's factor bits
        bad[factor_at..factor_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(FaultSnapshot::decode(&bad).is_none());
    }

    #[test]
    fn apply_fault_snapshot_reproduces_mask_and_rejects_foreign_links() {
        let mut m = MachineConfig::small(&[4, 4], 2, 2).build();
        m.degrade_link(2, 0.5);
        m.degrade_link(11, 0.0);
        let snap = m.fault_snapshot();
        let dists: Vec<u32> = (0..m.num_nodes() as u32).map(|b| m.hops(0, b)).collect();

        let mut fresh = MachineConfig::small(&[4, 4], 2, 2).build();
        // Pre-existing faults must be replaced, not merged.
        fresh.degrade_link(5, 0.75);
        assert!(fresh.apply_fault_snapshot(&snap));
        assert_eq!(fresh.fault_snapshot(), snap);
        assert_eq!(fresh.link_factor(5), 1.0);
        let redists: Vec<u32> = (0..fresh.num_nodes() as u32)
            .map(|b| fresh.hops(0, b))
            .collect();
        assert_eq!(dists, redists);

        // A snapshot naming a link this topology does not have must be
        // refused without touching the machine.
        let foreign = FaultSnapshot {
            degraded: vec![(u32::MAX, 0.5)],
            hard_failed: 0,
        };
        assert!(!foreign.is_valid_for(&fresh));
        assert!(!fresh.apply_fault_snapshot(&foreign));
        assert_eq!(fresh.fault_snapshot(), snap);
    }

    #[test]
    fn link_event_check_refuses_foreign_links_and_bad_factors() {
        let m = MachineConfig::small(&[4, 4], 1, 1).build();
        let last = m.topology().num_physical_links() as u32 - 1;
        for factor in [0.0, 0.5, 1.0, -0.0] {
            assert_eq!(m.check_link_event(last, factor), Ok(()), "{factor}");
        }
        assert_eq!(
            m.check_link_event(last + 1, 0.5),
            Err("link id past this topology")
        );
        for factor in [1.5, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                m.check_link_event(0, factor),
                Err("bandwidth factor is NaN or outside 0.0..=1.0"),
                "{factor}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "refused: bandwidth factor")]
    fn degrade_link_panics_on_a_refused_event() {
        MachineConfig::small(&[4, 4], 1, 1)
            .build()
            .degrade_link(0, f64::NAN);
    }

    #[test]
    fn route_length_matches_hops_on_all_backends() {
        let machines = [
            MachineConfig::small(&[2, 3], 2, 1).build(),
            FatTreeConfig::small(4, 2, 1).build(),
            DragonflyConfig::small(4, 3, 2).build(),
        ];
        for m in &machines {
            for a in 0..m.num_nodes() as u32 {
                for b in 0..m.num_nodes() as u32 {
                    assert_eq!(
                        m.route_links_vec(a, b).len() as u32,
                        m.hops(a, b),
                        "{}: {a}->{b}",
                        m.topology().summary()
                    );
                }
            }
        }
    }
}
