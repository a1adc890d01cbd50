//! Memoized static routes (the *route cache*), sibling of the
//! [`DistanceOracle`](crate::oracle::DistanceOracle).
//!
//! Congestion refinement (Algorithm 3) asks for the same static routes
//! over and over: every swap probe re-routes the affected edges under a
//! virtual relocation, and every endpoint of those routes is an
//! *allocated* node — a handful of terminal routers on a large machine.
//! The analytic emitters recompute each route hop by hop (enum dispatch
//! plus per-dimension arithmetic per hop); a [`RouteCache`] instead
//! serves `route_links(a, b)` as a cached link-id **slice**.
//!
//! Layout mirrors the oracle's threshold-plus-fallback shape with one
//! twist: rows are **built lazily, per router** (a `OnceLock` each;
//! routes are directed, so there is a forward routes-`from` table and
//! a reverse routes-`to` table), because a full `n × n` route table
//! would cost `4·Σ distance(a, b)` bytes — ≈ 0.5 GiB on Hopper's
//! 3264-router torus, against ≈ 21 MiB for the `u16` distance table.
//! Demand-driven rows make the footprint proportional to the routers
//! actually routed from/to: a congestion-refinement run touches only
//! the allocated routers' rows (a 16-node sparse Hopper allocation
//! builds ≤ 32 rows — both directions — at ≈ 160 KiB each, ≈ 5 MiB
//! total). Machines above
//! [`DEFAULT_ROUTE_CACHE_MAX_ROUTERS`](crate::machine::DEFAULT_ROUTE_CACHE_MAX_ROUTERS)
//! routers skip the cache entirely and callers fall back to the
//! analytic emitters — `Machine::route_cache()` hides the check.
//!
//! Cached routes are produced by the same [`Topology::route_links`]
//! call the fallback uses, so cache and fallback yield **identical
//! channel-id sequences** — the bit-identity contract
//! `tests/cong_differential.rs` pins. Under hard link failures the
//! machine serves a cache over the masked sweep's BFS trees
//! (the `fault` module) instead: its rows are built on demand too, by
//! walking the trees around the dead links, and the analytic emitters
//! are never consulted. Every row, healthy or failure-masked, is
//! assembled by one builder (`RouteRow::build`).

use std::sync::{Arc, OnceLock};

use crate::fault::MaskedTrees;
use crate::topology::Topology;

/// One router's routes to (or from) every terminal router, in CSR form.
#[derive(Clone, Debug)]
pub(crate) struct RouteRow {
    /// `offsets[x]..offsets[x + 1]` indexes `links` for peer `x`.
    offsets: Vec<u32>,
    /// Concatenated channel ids of all routes of this row.
    links: Vec<u32>,
}

impl RouteRow {
    /// Builds router `own`'s row over peers `0..n`: `route(x, links)`
    /// appends the channel ids of the route to or from peer `x`. It is
    /// not called for `own`, whose route is empty.
    pub(crate) fn build(n: usize, own: u32, mut route: impl FnMut(u32, &mut Vec<u32>)) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut links = Vec::new();
        offsets.push(0);
        for x in 0..n as u32 {
            if x != own {
                route(x, &mut links);
            }
            offsets.push(links.len() as u32);
        }
        Self { offsets, links }
    }

    /// The row as a borrowed view.
    #[inline]
    pub(crate) fn view(&self) -> RouteRowView<'_> {
        RouteRowView {
            offsets: &self.offsets,
            links: &self.links,
        }
    }
}

/// A borrowed row of cached routes sharing one endpoint: hot loops
/// hoist the row once (a single `OnceLock` consultation) and then pay
/// two offset loads per route.
#[derive(Clone, Copy, Debug)]
pub struct RouteRowView<'a> {
    offsets: &'a [u32],
    links: &'a [u32],
}

impl<'a> RouteRowView<'a> {
    /// The cached route to/from peer router `x` (empty when `x` is the
    /// row's own router). The slice borrows the cache, not the view.
    #[inline]
    pub fn route(&self, x: u32) -> &'a [u32] {
        &self.links[self.offsets[x as usize] as usize..self.offsets[x as usize + 1] as usize]
    }
}

/// Lazily-filled per-router memo of static routes between terminal
/// routers, serving [`route`](Self::route) as a borrowed slice.
#[derive(Clone, Debug)]
pub struct RouteCache {
    /// Number of terminal routers (row length).
    n: usize,
    /// One lazily-built row per *source* terminal router.
    rows_from: Vec<OnceLock<RouteRow>>,
    /// One lazily-built row per *destination* terminal router (routes
    /// are directed, so the reverse view is its own table).
    rows_to: Vec<OnceLock<RouteRow>>,
    /// Under hard link failures, the masked sweep's BFS trees: rows
    /// walk them instead of calling the analytic emitters.
    masked: Option<Arc<MaskedTrees>>,
}

impl RouteCache {
    /// Creates an empty (no rows built) cache for `topo`'s terminal
    /// routers, or `None` when the machine exceeds `max_routers`
    /// (callers then use the analytic emitters).
    pub fn build(topo: &Topology, max_routers: usize) -> Option<Self> {
        let n = topo.num_terminal_routers();
        if n == 0 || n > max_routers {
            return None;
        }
        Some(Self::empty(n, None))
    }

    /// An empty cache over `n` terminal routers whose rows walk the
    /// masked sweep's `trees` — the cache a machine with hard-failed
    /// links serves.
    pub(crate) fn masked(n: usize, trees: Arc<MaskedTrees>) -> Self {
        Self::empty(n, Some(trees))
    }

    fn empty(n: usize, masked: Option<Arc<MaskedTrees>>) -> Self {
        let slots = || (0..n).map(|_| OnceLock::new()).collect();
        Self {
            n,
            rows_from: slots(),
            rows_to: slots(),
            masked,
        }
    }

    /// Number of terminal routers covered.
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.n
    }

    /// Number of rows built so far, both directions (demand-driven
    /// footprint).
    pub fn built_rows(&self) -> usize {
        self.rows_from
            .iter()
            .chain(self.rows_to.iter())
            .filter(|r| r.get().is_some())
            .count()
    }

    /// Bytes held by the built rows.
    pub fn size_bytes(&self) -> usize {
        self.rows_from
            .iter()
            .chain(self.rows_to.iter())
            .filter_map(|r| r.get())
            .map(|row| {
                std::mem::size_of_val(&row.offsets[..]) + std::mem::size_of_val(&row.links[..])
            })
            .sum()
    }

    /// The routes *out of* terminal router `a` as a row view
    /// (`view.route(b)` = the `a → b` channel ids), building the row on
    /// first use. `topo` must be the topology the cache was built for
    /// (a failure-masked cache walks its trees instead).
    ///
    /// The row build is the one allocating step; every later query on
    /// the row is two bounds-checked indexes and a slice borrow, so a
    /// warm cache serves the congestion engine allocation-free.
    #[inline]
    pub fn row_from(&self, topo: &Topology, a: u32) -> RouteRowView<'_> {
        self.rows_from[a as usize]
            .get_or_init(|| match &self.masked {
                Some(trees) => RouteRow::build(self.n, a, |d, links| trees.path(a, d, links)),
                None => RouteRow::build(self.n, a, |d, links| topo.route_links(a, d, links)),
            })
            .view()
    }

    /// The routes *into* terminal router `b` as a row view
    /// (`view.route(a)` = the `a → b` channel ids). Routes are
    /// directed, so this is its own lazily-built table, letting
    /// fixed-destination loops hoist one row instead of touching a
    /// `rows_from` row per source.
    #[inline]
    pub fn row_to(&self, topo: &Topology, b: u32) -> RouteRowView<'_> {
        self.rows_to[b as usize]
            .get_or_init(|| match &self.masked {
                Some(trees) => RouteRow::build(self.n, b, |s, links| trees.path(s, b, links)),
                None => RouteRow::build(self.n, b, |s, links| topo.route_links(s, b, links)),
            })
            .view()
    }

    /// The channel ids of the static route between terminal routers
    /// `a` and `b` (empty when `a == b`), through `a`'s
    /// [`row_from`](Self::row_from).
    #[inline]
    pub fn route(&self, topo: &Topology, a: u32, b: u32) -> &[u32] {
        self.row_from(topo, a).route(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dragonfly::DragonflyConfig;
    use crate::fat_tree::FatTreeConfig;
    use crate::machine::MachineConfig;

    #[test]
    fn cached_routes_match_the_analytic_emitters() {
        let machines = [
            MachineConfig::small(&[4, 3, 2], 1, 1).build(),
            MachineConfig::small(&[2, 4], 1, 1).build(), // extent-2 wraparound
            MachineConfig::small_mesh(&[4, 3], 1, 1).build(),
            FatTreeConfig::small(4, 2, 1).build(),
            DragonflyConfig::small(4, 3, 2).build(),
        ];
        for m in &machines {
            let topo = m.topology();
            let cache = RouteCache::build(topo, 4096).unwrap();
            let n = topo.num_terminal_routers() as u32;
            let mut fresh = Vec::new();
            for a in 0..n {
                for b in 0..n {
                    fresh.clear();
                    topo.route_links(a, b, &mut fresh);
                    assert_eq!(
                        cache.route(topo, a, b),
                        &fresh[..],
                        "{}: {a}->{b}",
                        topo.summary()
                    );
                }
            }
        }
    }

    #[test]
    fn rows_build_on_demand_only() {
        let m = MachineConfig::small(&[4, 4], 1, 1).build();
        let topo = m.topology();
        let cache = RouteCache::build(topo, 4096).unwrap();
        assert_eq!(cache.built_rows(), 0);
        assert_eq!(cache.size_bytes(), 0);
        cache.route(topo, 3, 9);
        assert_eq!(cache.built_rows(), 1);
        cache.route(topo, 3, 0); // same row
        assert_eq!(cache.built_rows(), 1);
        assert!(cache.size_bytes() > 0);
        cache.route(topo, 7, 3);
        assert_eq!(cache.built_rows(), 2);
    }

    #[test]
    fn reverse_rows_match_forward_routes() {
        let m = MachineConfig::small(&[3, 3], 1, 1).build();
        let topo = m.topology();
        let cache = RouteCache::build(topo, 4096).unwrap();
        for b in 0..9u32 {
            let to = cache.row_to(topo, b);
            for a in 0..9u32 {
                assert_eq!(to.route(a), cache.route(topo, a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn threshold_disables_the_cache() {
        let m = MachineConfig::small(&[4, 4], 1, 1).build();
        assert!(RouteCache::build(m.topology(), 15).is_none());
        assert!(RouteCache::build(m.topology(), 16).is_some());
        assert!(RouteCache::build(m.topology(), 0).is_none());
    }

    #[test]
    fn same_router_route_is_empty() {
        let m = MachineConfig::small(&[3, 3], 1, 1).build();
        let topo = m.topology();
        let cache = RouteCache::build(topo, 4096).unwrap();
        for r in 0..9u32 {
            assert!(cache.route(topo, r, r).is_empty());
        }
    }
}
