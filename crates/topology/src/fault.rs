//! Failure-masked distances and routes: one BFS sweep per change of
//! the failed-link set.
//!
//! The analytic backends ([`Topology`]) route with closed-form walks
//! that know nothing about link health; once a physical link hard-fails
//! (`factor == 0`), every cached *and* analytic product derived from
//! the static routes is wrong. This module re-derives them from first
//! principles: one BFS per terminal source over the **surviving** links
//! ([`sweep`]) fills that source's row of the hop table and leaves its
//! parent-channel tree — for every router, the channel the BFS reached
//! it over, labelled with the same [`Topology::channel`] ids the
//! analytic emitters use, so congestion accounting and bandwidth
//! lookups keep working unchanged. The machine's distance oracle keeps
//! the table, and its route cache keeps the trees ([`MaskedTrees`]):
//! a masked route row is built on demand, through the route cache's one
//! row builder, by walking trees back to their roots along a
//! channel → tail-router table. The trees cost
//! `n_term · n_routers · 4` bytes (≈ 42.6 MB on Hopper), against
//! ≈ 0.5 GiB per direction for every route.
//!
//! Masked distances are graph geodesics over the surviving links —
//! under failures there *is* no static minimal route to measure, so
//! the geodesic is the honest replacement; route lengths equal the
//! masked distances by construction (both come from the same BFS
//! tree). Unreachable pairs (a failure cut the network) get the
//! `u16::MAX` hop sentinel and an empty route: traffic between them is
//! not accounted to any link and placement heuristics see an
//! effectively infinite distance.
//!
//! Both directions of a route come from its *source's* tree: the
//! reverse row into `b` walks every source's tree to `b` rather than
//! running a destination-side BFS, because BFS tie-breaking is
//! source-dependent and the congestion engine's probe/commit split
//! requires `row_to(b).route(a)` to be byte-identical to
//! `row_from(a).route(b)`. A row depends only on its own source's tree,
//! so a row built on demand is the row a full rebuild would build —
//! `tests/masked_differential.rs` pins that against the frozen rebuild.

use crate::topology::Topology;

/// Router adjacency over surviving links, annotated with the channel
/// id each traversal direction uses.
pub(crate) struct MaskedAdjacency {
    offsets: Vec<u32>,
    nbr: Vec<u32>,
    chan: Vec<u32>,
}

impl MaskedAdjacency {
    /// Builds the adjacency from the topology's link enumeration,
    /// skipping links whose health `factor` is zero.
    pub(crate) fn build(topo: &Topology, factor: &[f64]) -> Self {
        let n = topo.num_routers();
        let mut deg = vec![0u32; n];
        topo.for_each_link(|l, a, b, _| {
            if factor[l as usize] > 0.0 {
                deg[a as usize] += 1;
                deg[b as usize] += 1;
            }
        });
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let total = offsets[n] as usize;
        let mut nbr = vec![0u32; total];
        let mut chan = vec![0u32; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        topo.for_each_link(|l, a, b, _| {
            if factor[l as usize] > 0.0 {
                for (from, to, reversed) in [(a, b, false), (b, a, true)] {
                    let i = cursor[from as usize] as usize;
                    cursor[from as usize] += 1;
                    nbr[i] = to;
                    chan[i] = Topology::channel(l, reversed);
                }
            }
        });
        Self { offsets, nbr, chan }
    }

    #[inline]
    fn edges(&self, r: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.offsets[r as usize] as usize;
        let hi = self.offsets[r as usize + 1] as usize;
        self.nbr[lo..hi]
            .iter()
            .copied()
            .zip(self.chan[lo..hi].iter().copied())
    }
}

/// The per-source BFS trees of one masked sweep, shared by the route
/// cache's masked rows.
#[derive(Debug)]
pub(crate) struct MaskedTrees {
    /// Routers per tree: [`Topology::num_routers`], internal switches
    /// included.
    n_all: usize,
    /// `parent[s * n_all + v]` is the channel over which source `s`'s
    /// BFS reached router `v`; `u32::MAX` for the root and for routers
    /// the failures cut off.
    parent: Vec<u32>,
    /// The router each channel id leaves.
    tail: Vec<u32>,
}

impl MaskedTrees {
    /// Appends the channel ids of source `s`'s tree path to `d`
    /// (nothing when `d` is cut off): walks the parent channels back
    /// to front, then reverses the just-appended segment in place.
    pub(crate) fn path(&self, s: u32, d: u32, links: &mut Vec<u32>) {
        let tree = &self.parent[s as usize * self.n_all..(s as usize + 1) * self.n_all];
        let start = links.len();
        let mut c = tree[d as usize];
        while c != u32::MAX {
            links.push(c);
            c = tree[self.tail[c as usize] as usize];
        }
        links[start..].reverse();
    }
}

/// Runs one BFS per terminal source over the surviving links. Returns
/// the row-major `n_term × n_term` hop table (`u16::MAX` = cut off) and
/// every source's parent-channel tree.
pub(crate) fn sweep(topo: &Topology, factor: &[f64]) -> (Vec<u16>, MaskedTrees) {
    let n_all = topo.num_routers();
    let n = topo.num_terminal_routers();
    // tidy-allow: panic-freedom (machine-size precondition at mask build time, before any repair runs; >65534 routers is a build misconfiguration, not a runtime fault)
    assert!(
        n_all < u16::MAX as usize,
        "failure masks need the u16::MAX hop sentinel: {n_all} routers overflow it"
    );
    let adj = MaskedAdjacency::build(topo, factor);
    let mut tail = vec![0u32; Topology::channel(topo.num_physical_links() as u32, false) as usize];
    topo.for_each_link(|l, a, b, _| {
        tail[Topology::channel(l, false) as usize] = a;
        tail[Topology::channel(l, true) as usize] = b;
    });
    let mut table = vec![u16::MAX; n * n];
    let mut parent = vec![u32::MAX; n * n_all];
    let mut dist = vec![u32::MAX; n_all];
    let mut queue = Vec::with_capacity(n_all);
    for s in 0..n {
        let tree = &mut parent[s * n_all..(s + 1) * n_all];
        dist.fill(u32::MAX);
        queue.clear();
        dist[s] = 0;
        queue.push(s as u32);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            let dv = dist[v as usize];
            for (w, c) in adj.edges(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dv + 1;
                    tree[w as usize] = c;
                    queue.push(w);
                }
            }
        }
        for (slot, &h) in table[s * n..(s + 1) * n].iter_mut().zip(&dist) {
            if h != u32::MAX {
                *slot = h as u16;
            }
        }
    }
    (
        table,
        MaskedTrees {
            n_all,
            parent,
            tail,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    #[test]
    fn healthy_mask_reproduces_geodesics_and_consistent_routes() {
        let m = MachineConfig::small(&[3, 3], 1, 1).build();
        let topo = m.topology();
        let factor = vec![1.0; topo.num_physical_links()];
        let (table, trees) = sweep(topo, &factor);
        let n = topo.num_terminal_routers() as u32;
        let mut ends = vec![(0, 0); topo.num_physical_links()];
        topo.for_each_link(|l, u, v, _| ends[l as usize] = (u, v));
        let mut route = Vec::new();
        for a in 0..n {
            for b in 0..n {
                let h = table[(a * n + b) as usize];
                // Torus BFS geodesics equal dimension-ordered distances.
                assert_eq!(u32::from(h), topo.distance(a, b));
                route.clear();
                trees.path(a, b, &mut route);
                assert_eq!(route.len(), h as usize, "route length == masked hops");
                // The walk leaves `a` and chains link to link.
                let mut cur = a;
                for &c in &route {
                    let l = Topology::channel_link(c);
                    let (u, v) = ends[l as usize];
                    let (from, to) = if c == Topology::channel(l, false) {
                        (u, v)
                    } else {
                        (v, u)
                    };
                    assert_eq!(from, cur, "{a}->{b}");
                    cur = to;
                }
                assert_eq!(cur, b, "{a}->{b}");
            }
        }
    }

    #[test]
    fn failed_link_is_routed_around() {
        let m = MachineConfig::small(&[4, 4], 1, 1).build();
        let topo = m.topology();
        let mut factor = vec![1.0; topo.num_physical_links()];
        // Fail the link of router 0's +x hop (0 -> 1).
        let mut route = Vec::new();
        topo.route_links(0, 1, &mut route);
        let failed = Topology::channel_link(route[0]);
        factor[failed as usize] = 0.0;
        let (table, trees) = sweep(topo, &factor);
        let n = topo.num_terminal_routers();
        // Still reachable (torus redundancy) but longer than 1 hop…
        let h = table[1];
        assert!(h > 1 && h != u16::MAX);
        // …and the route never crosses the failed physical link.
        route.clear();
        trees.path(0, 1, &mut route);
        assert_eq!(route.len(), h as usize);
        for &c in &route {
            assert_ne!(Topology::channel_link(c), failed);
        }
        // Unaffected pairs keep geodesic distances.
        assert_eq!(u32::from(table[2 * n + 3]), topo.distance(2, 3));
    }
}
