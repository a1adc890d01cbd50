//! Failure-masked rebuilds of the distance oracle and route cache.
//!
//! The analytic backends ([`Topology`]) route with closed-form walks
//! that know nothing about link health; once a physical link hard-fails
//! (`factor == 0`), every cached *and* analytic product derived from
//! the static routes is wrong. This module rebuilds the derived state
//! from first principles: a per-source BFS over the **surviving**
//! links yields shortest-path distances and parent-tree routes that
//! avoid the failed links, emitted as the same [`Topology::channel`]
//! ids the analytic emitters use, so congestion accounting and
//! bandwidth lookups keep working unchanged. Rows are assembled by the
//! route cache's one row builder.
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
//! The reverse (`rows_to`) table is built by transposing the forward
//! rows rather than by destination-side BFS: BFS tie-breaking is
//! source-dependent, and the congestion engine's probe/commit split
//! requires `row_to(b).route(a)` to be byte-identical to
//! `row_from(a).route(b)`.

use crate::route_cache::RouteRow;
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

/// Everything the machine re-derives under a failure mask: the
/// terminal-router hop table plus both route-cache tables.
pub(crate) struct MaskedProducts {
    /// Row-major `n_term × n_term` hop counts (`u16::MAX` = cut off).
    pub(crate) table: Vec<u16>,
    /// Forward routes, one built row per source terminal router.
    pub(crate) rows_from: Vec<RouteRow>,
    /// Reverse routes (transpose of `rows_from`).
    pub(crate) rows_to: Vec<RouteRow>,
}

/// Runs the per-source BFS sweep and assembles the masked products.
pub(crate) fn build_masked(topo: &Topology, factor: &[f64]) -> MaskedProducts {
    let n_all = topo.num_routers();
    let n = topo.num_terminal_routers();
    // tidy-allow: panic-freedom (machine-size precondition at mask build time, before any repair runs; >65534 routers is a build misconfiguration, not a runtime fault)
    assert!(
        n_all < u16::MAX as usize,
        "failure masks need the u16::MAX hop sentinel: {n_all} routers overflow it"
    );
    let adj = MaskedAdjacency::build(topo, factor);
    let mut table = vec![u16::MAX; n * n];
    let mut rows_from = Vec::with_capacity(n);
    let mut dist = vec![u32::MAX; n_all];
    let mut par_chan = vec![u32::MAX; n_all];
    let mut par = vec![u32::MAX; n_all];
    let mut queue = Vec::with_capacity(n_all);
    for s in 0..n as u32 {
        dist.fill(u32::MAX);
        queue.clear();
        dist[s as usize] = 0;
        queue.push(s);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            let dv = dist[v as usize];
            for (w, c) in adj.edges(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dv + 1;
                    par[w as usize] = v;
                    par_chan[w as usize] = c;
                    queue.push(w);
                }
            }
        }
        let row = &mut table[s as usize * n..(s as usize + 1) * n];
        for (d, slot) in row.iter_mut().enumerate() {
            let h = dist[d];
            *slot = if h == u32::MAX { u16::MAX } else { h as u16 };
        }
        // Extract the tree path to every terminal destination: walk the
        // parent chain (appending channel ids back-to-front), then
        // reverse the just-appended segment in place.
        rows_from.push(RouteRow::build(n, s, |d, links| {
            if dist[d as usize] != u32::MAX {
                let start = links.len();
                let mut v = d;
                while v != s {
                    links.push(par_chan[v as usize]);
                    v = par[v as usize];
                }
                links[start..].reverse();
            }
        }));
    }
    // Transpose: row_to(b).route(a) must be the identical byte sequence
    // as row_from(a).route(b).
    let rows_to = (0..n as u32)
        .map(|b| {
            RouteRow::build(n, b, |a, links| {
                links.extend_from_slice(rows_from[a as usize].view().route(b));
            })
        })
        .collect();
    MaskedProducts {
        table,
        rows_from,
        rows_to,
    }
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
        let p = build_masked(topo, &factor);
        let n = topo.num_terminal_routers() as u32;
        for a in 0..n {
            for b in 0..n {
                let h = p.table[(a * n + b) as usize];
                // Torus BFS geodesics equal dimension-ordered distances.
                assert_eq!(u32::from(h), topo.distance(a, b));
                let route = p.rows_from[a as usize].view().route(b);
                assert_eq!(route.len(), h as usize, "route length == masked hops");
                // Transpose consistency.
                assert_eq!(route, p.rows_to[b as usize].view().route(a));
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
        let p = build_masked(topo, &factor);
        let n = topo.num_terminal_routers();
        // Still reachable (torus redundancy) but longer than 1 hop…
        let h = p.table[1];
        assert!(h > 1 && h != u16::MAX);
        // …and the route never crosses the failed physical link.
        let route = p.rows_from[0].view().route(1);
        assert_eq!(route.len(), h as usize);
        for &c in route {
            assert_ne!(Topology::channel_link(c), failed);
        }
        // Unaffected pairs keep geodesic distances.
        assert_eq!(u32::from(p.table[2 * n + 3]), topo.distance(2, 3));
    }
}
