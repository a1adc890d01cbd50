//! The pluggable topology backend behind [`Machine`](crate::Machine).
//!
//! A [`Topology`] is everything the mapping algorithms and the network
//! simulators need from an interconnect: router count, O(ndims)-ish hop
//! distances, static minimal routes emitted directly as **channel
//! ids**, the physical-link id space itself (with bandwidths), and the
//! router adjacency for BFS traversals. Three backends are provided:
//!
//! * [`TorusNet`] — k-ary n-D torus / mesh (the paper's Cray Gemini
//!   model) with dimension-ordered routing;
//! * [`FatTree`](crate::fat_tree::FatTree) — 3-level k-ary fat-tree
//!   (Clos) with deterministic up\*/down\* routing;
//! * [`Dragonfly`](crate::dragonfly::Dragonfly) — dragonfly groups with
//!   minimal local–global–local routing.
//!
//! **The topology owns the link-id space.** Every physical link gets
//! one dense id, derived from its unordered endpoint pair — never from
//! the direction a route happens to traverse it — and
//! [`for_each_link`](Topology::for_each_link) reports its endpoints in
//! a fixed order. A route is a sequence of directed **channels**, each
//! link direction its own channel (Gemini links carry independent
//! traffic per direction): [`Topology::channel`] is the one encoding of
//! that format and [`Topology::channel_link`] its inverse. Deriving the
//! link from the endpoint pair is what keeps extent-2 wraparound
//! dimensions exact: both directions of such a dimension tie-break to
//! `positive`, yet they are the two channels of one physical link.
//!
//! The id space is also **exact**: extent-1 dimensions, mesh
//! boundaries, and internal-switch-free levels contribute no phantom
//! slots, so per-link scans in the metrics and the analytic simulator
//! touch only routable links.
//!
//! Dispatch is by enum, not trait object: the route emitters are small
//! arithmetic loops that inline through the match, and the
//! `dispatch_enum_vs_dyn` microbenchmark (crates/bench) showed dynamic
//! dispatch costing measurable extra time per hop on the routing hot
//! path for no flexibility the workspace needs (backends are a closed
//! set compiled in).

use crate::dragonfly::Dragonfly;
use crate::fat_tree::FatTree;
use crate::ordering::NodeOrdering;
use crate::routing;
use crate::torus::Torus;

/// A network topology backend: geometry, routing and the link-id space.
#[derive(Clone, Debug)]
pub enum Topology {
    /// k-ary n-D torus or mesh with dimension-ordered routing.
    Torus(TorusNet),
    /// 3-level k-ary fat-tree with up*/down* routing.
    FatTree(FatTree),
    /// Dragonfly with minimal local–global–local routing.
    Dragonfly(Dragonfly),
}

impl Topology {
    /// The channel crossing physical link `link` in the direction
    /// [`for_each_link`](Self::for_each_link) reports it (first
    /// endpoint to second) or, when `reversed`, against it: `2·link`
    /// and `2·link + 1`. Every route emitter, the masked rebuild and
    /// the machine's per-channel tables use this one encoding.
    #[inline]
    pub fn channel(link: u32, reversed: bool) -> u32 {
        2 * link + u32::from(reversed)
    }

    /// The physical link a channel crosses: the inverse of
    /// [`channel`](Self::channel).
    #[inline]
    pub fn channel_link(channel: u32) -> u32 {
        channel / 2
    }

    /// Total routers (topology-graph vertices), including internal
    /// switches that host no compute nodes (fat-tree aggregation and
    /// core levels). BFS workspaces size against this.
    #[inline]
    pub fn num_routers(&self) -> usize {
        match self {
            Topology::Torus(t) => t.torus.num_routers(),
            Topology::FatTree(f) => f.num_routers(),
            Topology::Dragonfly(d) => d.num_routers(),
        }
    }

    /// Routers that host compute nodes. Terminal routers occupy ids
    /// `0..num_terminal_routers()`; node attachment and distances are
    /// defined on them.
    #[inline]
    pub fn num_terminal_routers(&self) -> usize {
        match self {
            Topology::Torus(t) => t.torus.num_routers(),
            Topology::FatTree(f) => f.num_terminal_routers(),
            Topology::Dragonfly(d) => d.num_routers(),
        }
    }

    /// Number of physical (undirected) links; the id space is exactly
    /// `0..num_physical_links()` and every id is routable.
    #[inline]
    pub fn num_physical_links(&self) -> usize {
        match self {
            Topology::Torus(t) => t.link_bw.len(),
            Topology::FatTree(f) => f.num_physical_links(),
            Topology::Dragonfly(d) => d.num_physical_links(),
        }
    }

    /// Bandwidth of physical link `l` in GB/s.
    #[inline]
    pub fn physical_link_bw(&self, l: u32) -> f64 {
        match self {
            Topology::Torus(t) => t.link_bw[l as usize],
            Topology::FatTree(f) => f.physical_link_bw(l),
            Topology::Dragonfly(d) => d.physical_link_bw(l),
        }
    }

    /// Hop distance between two *terminal* routers (length of the
    /// static minimal route).
    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        match self {
            Topology::Torus(t) => t.torus.distance(a, b),
            Topology::FatTree(f) => f.distance(a, b),
            Topology::Dragonfly(d) => d.distance(a, b),
        }
    }

    /// Writes the hop distance from terminal router `a` to every
    /// terminal router (id order) into `out[..num_terminal_routers]` —
    /// the per-source sweep the [`DistanceOracle`]
    /// (crate::oracle::DistanceOracle) build runs once per row. Tori
    /// use the odometer sweep ([`Torus::fill_distances`]), which is
    /// ~an order of magnitude cheaper than per-pair [`distance`]
    /// (Self::distance) calls (no coordinate decode per destination);
    /// the shallow fat-tree/dragonfly distance functions fall back to
    /// the per-pair loop. Values are exactly `distance(a, b) as u16`.
    pub fn fill_distance_row(&self, a: u32, out: &mut [u16]) {
        match self {
            Topology::Torus(t) => t.torus.fill_distances(a, out),
            _ => {
                for (b, slot) in out[..self.num_terminal_routers()].iter_mut().enumerate() {
                    *slot = self.distance(a, b as u32) as u16;
                }
            }
        }
    }

    /// Maximum terminal-pair hop distance.
    #[inline]
    pub fn diameter(&self) -> u32 {
        match self {
            Topology::Torus(t) => t.torus.diameter(),
            Topology::FatTree(f) => f.diameter(),
            Topology::Dragonfly(d) => d.diameter(),
        }
    }

    /// Appends the channel ids of the static route between terminal
    /// routers `a` and `b` onto `out` (exactly `distance(a, b)` of
    /// them; nothing when `a == b`). Routes are pure functions of their
    /// endpoints, so congestion metrics are exact. Allocation-free once
    /// `out` has capacity.
    #[inline]
    pub fn route_links(&self, a: u32, b: u32, out: &mut Vec<u32>) {
        match self {
            Topology::Torus(t) => t.route_links(a, b, out),
            Topology::FatTree(f) => f.route_links(a, b, out),
            Topology::Dragonfly(d) => d.route_links(a, b, out),
        }
    }

    /// Calls `f(link_id, endpoint_a, endpoint_b, bandwidth)` once per
    /// physical link, in ascending id order. The machine builds its CSR
    /// router graph from this enumeration.
    pub fn for_each_link(&self, f: impl FnMut(u32, u32, u32, f64)) {
        match self {
            Topology::Torus(t) => t.for_each_link(f),
            Topology::FatTree(ft) => ft.for_each_link(f),
            Topology::Dragonfly(d) => d.for_each_link(f),
        }
    }

    /// Terminal routers in scheduler placement order. Tori honor the
    /// requested curve; fat-tree and dragonfly use id order, which
    /// already groups pods / groups contiguously (the locality property
    /// the curve exists to provide).
    pub fn placement_order(&self, ordering: NodeOrdering) -> Vec<u32> {
        match self {
            Topology::Torus(t) => ordering.router_order(&t.torus),
            _ => (0..self.num_terminal_routers() as u32).collect(),
        }
    }

    /// The underlying torus geometry, when this is a torus backend.
    #[inline]
    pub fn as_torus(&self) -> Option<&Torus> {
        match self {
            Topology::Torus(t) => Some(&t.torus),
            _ => None,
        }
    }

    /// One-line human description, e.g. `torus [4, 4, 4]`.
    pub fn summary(&self) -> String {
        match self {
            Topology::Torus(t) => format!(
                "{} {:?}",
                if t.torus.has_wraparound() {
                    "torus"
                } else {
                    "mesh"
                },
                t.torus.dims()
            ),
            Topology::FatTree(f) => format!("fat-tree k={}", f.k()),
            Topology::Dragonfly(d) => {
                format!("dragonfly g={} a={}", d.groups(), d.routers_per_group())
            }
        }
    }
}

/// Torus/mesh backend: [`Torus`] geometry plus the canonical link-id
/// space and per-dimension bandwidths.
///
/// Link ids are assigned at construction: router `r` *owns* the link of
/// its `+1` hop along dimension `d` whenever that hop leads to a
/// distinct router — except on wraparound dimensions of extent 2, where
/// both routers' `+1` hops cross the same physical pair and only the
/// lower-id endpoint owns the (single) link. Extent-1 dimensions and
/// mesh boundaries own nothing, so the id space is exact.
#[derive(Clone, Debug)]
pub struct TorusNet {
    torus: Torus,
    /// `link_of[r * ndims + d]` = physical id of the link generated by
    /// the +1 hop out of `r` along `d`, or `u32::MAX` if `r` owns none.
    link_of: Vec<u32>,
    /// Bandwidth per physical link.
    link_bw: Vec<f64>,
}

impl TorusNet {
    /// Builds the backend; `bw_per_dim` must have one entry per
    /// dimension.
    pub fn new(torus: Torus, bw_per_dim: &[f64]) -> Self {
        assert_eq!(
            torus.ndims(),
            bw_per_dim.len(),
            "bw_per_dim must have one entry per torus dimension"
        );
        let nr = torus.num_routers();
        let nd = torus.ndims();
        let mut link_of = vec![u32::MAX; nr * nd];
        let mut link_bw = Vec::new();
        for r in 0..nr as u32 {
            for d in 0..nd {
                let p = torus.neighbor(r, d, true);
                if p == r {
                    continue; // extent-1 dimension or mesh boundary
                }
                if torus.has_wraparound() && torus.dims()[d] == 2 && r > p {
                    continue; // extent-2 pair: the lower endpoint owns it
                }
                link_of[r as usize * nd + d] = link_bw.len() as u32;
                link_bw.push(bw_per_dim[d]);
            }
        }
        Self {
            torus,
            link_of,
            link_bw,
        }
    }

    /// The torus geometry.
    #[inline]
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// Channel id of the hop `from → to` along dimension `d` in
    /// direction `positive`.
    #[inline]
    fn channel(&self, from: u32, to: u32, d: usize, positive: bool) -> u32 {
        let wrap2 = self.torus.has_wraparound() && self.torus.dims()[d] == 2;
        // Canonical owner: the router whose +1 hop generated the link.
        // On extent-2 wraparound dims both directions reach the same
        // pair, so ownership falls back to the unordered-pair rule.
        let (owner, reversed) = if wrap2 {
            let o = from.min(to);
            (o, from != o)
        } else if positive {
            (from, false)
        } else {
            (to, true)
        };
        let l = self.link_of[owner as usize * self.torus.ndims() + d];
        debug_assert_ne!(l, u32::MAX, "hop over a nonexistent link");
        Topology::channel(l, reversed)
    }

    // The emitter rides on `routing::walk`, the single source of truth
    // for the dimension-ordered walk.
    fn route_links(&self, a: u32, b: u32, out: &mut Vec<u32>) {
        routing::walk(&self.torus, a, b, |from, to, d, positive| {
            out.push(self.channel(from, to, d, positive));
        });
    }

    fn for_each_link(&self, mut f: impl FnMut(u32, u32, u32, f64)) {
        let nd = self.torus.ndims();
        for r in 0..self.torus.num_routers() as u32 {
            for d in 0..nd {
                let l = self.link_of[r as usize * nd + d];
                if l != u32::MAX {
                    let p = self.torus.neighbor(r, d, true);
                    f(l, r, p, self.link_bw[l as usize]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(dims: &[u32]) -> TorusNet {
        TorusNet::new(Torus::new(dims), &vec![1.0; dims.len()])
    }

    #[test]
    fn exact_link_count_ordinary_extents() {
        // All extents > 2: every router owns one link per dim.
        let n = net(&[4, 4, 4]);
        assert_eq!(n.link_bw.len(), 64 * 3);
    }

    #[test]
    fn extent_two_links_are_deduplicated() {
        // [2, 4]: dim 0 has 4 links (one per pair), dim 1 has 8.
        let n = net(&[2, 4]);
        assert_eq!(n.link_bw.len(), 4 + 8);
    }

    #[test]
    fn extent_one_dims_own_no_links() {
        let n = net(&[1, 4]);
        assert_eq!(n.link_bw.len(), 4);
    }

    #[test]
    fn mesh_boundaries_own_no_links() {
        let n = TorusNet::new(Torus::new_mesh(&[4, 3]), &[1.0, 1.0]);
        // 4x3 mesh: 3 links per row x 3 rows + 2 links per column x 4.
        assert_eq!(n.link_bw.len(), 3 * 3 + 2 * 4);
    }

    #[test]
    fn channel_encoding_round_trips() {
        for l in [0u32, 1, 7, 1 << 20] {
            let (fwd, rev) = (Topology::channel(l, false), Topology::channel(l, true));
            assert_ne!(fwd, rev);
            assert_eq!(Topology::channel_link(fwd), l);
            assert_eq!(Topology::channel_link(rev), l);
        }
    }

    #[test]
    fn opposite_routes_share_undirected_ids_on_extent_two() {
        // Both directions across an extent-2 wraparound dim tie-break
        // to `positive` yet cross the SAME physical link: they must be
        // its two channels. (Pairs whose routes differ in other dims
        // legally use different links — different rows / ring halves.)
        let n = net(&[2, 4]);
        for y in 0..4u32 {
            let a = y * 2; // (0, y)
            let b = y * 2 + 1; // (1, y)
            let mut ab = Vec::new();
            let mut ba = Vec::new();
            n.route_links(a, b, &mut ab);
            n.route_links(b, a, &mut ba);
            assert_eq!(ab.len(), 1);
            assert_eq!(ba.len(), 1);
            let l = Topology::channel_link(ab[0]);
            assert_eq!(ab[0], Topology::channel(l, false), "{a} -> {b}");
            assert_eq!(ba[0], Topology::channel(l, true), "{b} -> {a}");
        }
    }

    #[test]
    fn directed_channels_still_distinguish_directions_on_extent_two() {
        let n = net(&[2]);
        let mut ab = Vec::new();
        let mut ba = Vec::new();
        n.route_links(0, 1, &mut ab);
        n.route_links(1, 0, &mut ba);
        assert_eq!(ab.len(), 1);
        assert_eq!(ba.len(), 1);
        assert_ne!(ab[0], ba[0]);
        assert_eq!(
            Topology::channel_link(ab[0]),
            Topology::channel_link(ba[0]),
            "same physical link"
        );
    }

    #[test]
    fn for_each_link_enumerates_dense_ascending_ids() {
        let topo = Topology::Torus(net(&[2, 3]));
        let mut next = 0u32;
        topo.for_each_link(|l, a, b, bw| {
            assert_eq!(l, next);
            assert_ne!(a, b);
            assert!(bw > 0.0);
            next += 1;
        });
        assert_eq!(next as usize, topo.num_physical_links());
    }
}
