//! Dragonfly backend (Kim, Dally, Scott, Abts: "Technology-Driven,
//! Highly-Scalable Dragonfly Topology", ISCA 2008) — the interconnect
//! family of Cray XC (Aries) and Slingshot supercomputers.
//!
//! `g` groups of `a` routers each; routers within a group are fully
//! connected by *local* links, and every group pair is joined by one
//! *global* link. Each router hosts compute nodes, so all routers are
//! terminal. The global link between groups `i` and `j` attaches, in
//! group `i`, to the router whose local index is `p mod a` where `p` is
//! `j`'s rank among `i`'s peers — the standard round-robin gateway
//! assignment that spreads global endpoints over a group.
//!
//! Routing is minimal and static: a local hop to the gateway (when the
//! source is not the gateway), the global hop, and a local hop from the
//! far gateway (when it is not the destination) — at most 3 hops, and a
//! pure function of the endpoints (no Valiant randomization), so the
//! congestion metrics stay exact.
//!
//! Link ids: the `g·a(a−1)/2` local links first (group-major, lower
//! local pair index first), then the `g(g−1)/2` global links (lower
//! group pair index first). Ids are unordered-pair-canonical by
//! construction, and each link is enumerated from its lower router id
//! (local) or lower group id (global), so its forward
//! [`Topology::channel`] leaves that end.

use crate::machine::{Machine, MachineParams};
use crate::topology::Topology;

/// Configuration for building a dragonfly [`Machine`].
#[derive(Clone, Debug)]
pub struct DragonflyConfig {
    /// Number of groups `g` (≥ 1).
    pub groups: u32,
    /// Routers per group `a` (≥ 1); local links form a clique.
    pub routers_per_group: u32,
    /// Compute nodes per router.
    pub nodes_per_router: u32,
    /// Processor cores usable per node.
    pub procs_per_node: u32,
    /// Intra-group (local) link bandwidth, GB/s.
    pub local_bw: f64,
    /// Inter-group (global) link bandwidth, GB/s.
    pub global_bw: f64,
    /// Nearest-neighbor one-way latency, microseconds.
    pub base_latency_us: f64,
    /// Additional latency per hop, microseconds.
    pub hop_latency_us: f64,
    /// Injection (NIC) bandwidth per node, GB/s.
    pub nic_bw: f64,
}

impl DragonflyConfig {
    /// A small unit-bandwidth dragonfly for tests and examples.
    pub fn small(groups: u32, routers_per_group: u32, nodes_per_router: u32) -> Self {
        Self {
            groups,
            routers_per_group,
            nodes_per_router,
            procs_per_node: 1,
            local_bw: 1.0,
            global_bw: 1.0,
            base_latency_us: 1.0,
            hop_latency_us: 0.1,
            nic_bw: 1.0,
        }
    }

    /// A Cray XC-style system: 9 groups of 16 routers, 4 nodes per
    /// router, fast local links and slimmer globals.
    pub fn supercomputer() -> Self {
        Self {
            groups: 9,
            routers_per_group: 16,
            nodes_per_router: 4,
            procs_per_node: 16,
            local_bw: 5.25,
            global_bw: 4.7,
            base_latency_us: 1.3,
            hop_latency_us: 0.12,
            nic_bw: 8.0,
        }
    }

    /// Builds the machine.
    pub fn build(self) -> Machine {
        assert!(
            self.groups >= 1 && self.routers_per_group >= 1,
            "dragonfly needs at least one group and one router per group"
        );
        let params = MachineParams {
            nodes_per_router: self.nodes_per_router,
            procs_per_node: self.procs_per_node,
            base_latency_us: self.base_latency_us,
            hop_latency_us: self.hop_latency_us,
            nic_bw: self.nic_bw,
        };
        let topo = Topology::Dragonfly(Dragonfly {
            groups: self.groups,
            routers_per_group: self.routers_per_group,
            local_bw: self.local_bw,
            global_bw: self.global_bw,
        });
        Machine::from_topology(topo, params)
    }
}

/// The dragonfly topology backend. See the module docs for the id
/// layout and routing rule.
#[derive(Clone, Debug)]
pub struct Dragonfly {
    groups: u32,
    routers_per_group: u32,
    local_bw: f64,
    global_bw: f64,
}

/// Index of the unordered pair `(x, y)` with `x < y` in the
/// lexicographic enumeration of all pairs over `0..n`.
#[inline]
fn pair_index(x: u32, y: u32, n: u32) -> u32 {
    debug_assert!(x < y && y < n);
    x * (2 * n - x - 1) / 2 + (y - x - 1)
}

impl Dragonfly {
    /// Number of groups.
    #[inline]
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Routers per group.
    #[inline]
    pub fn routers_per_group(&self) -> u32 {
        self.routers_per_group
    }

    /// All routers are terminal.
    #[inline]
    pub fn num_routers(&self) -> usize {
        (self.groups * self.routers_per_group) as usize
    }

    /// Local links per group (clique).
    #[inline]
    fn locals_per_group(&self) -> u32 {
        let a = self.routers_per_group;
        a * (a - 1) / 2
    }

    /// Physical links: per-group cliques plus one global per group pair.
    #[inline]
    pub fn num_physical_links(&self) -> usize {
        let g = self.groups;
        (g * self.locals_per_group() + g * (g - 1) / 2) as usize
    }

    /// Bandwidth of physical link `l`.
    #[inline]
    pub fn physical_link_bw(&self, l: u32) -> f64 {
        if l < self.groups * self.locals_per_group() {
            self.local_bw
        } else {
            self.global_bw
        }
    }

    /// Physical id of the local link between routers `x` and `y`
    /// (local indices) of `group`.
    #[inline]
    fn local_link(&self, group: u32, x: u32, y: u32) -> u32 {
        let (lo, hi) = if x < y { (x, y) } else { (y, x) };
        group * self.locals_per_group() + pair_index(lo, hi, self.routers_per_group)
    }

    /// Physical id of the global link between groups `i` and `j`.
    #[inline]
    fn global_link(&self, i: u32, j: u32) -> u32 {
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.groups * self.locals_per_group() + pair_index(lo, hi, self.groups)
    }

    /// Local index, within `group`, of the router terminating the
    /// global link toward `peer`.
    #[inline]
    fn gateway(&self, group: u32, peer: u32) -> u32 {
        debug_assert_ne!(group, peer);
        let p = if peer > group { peer - 1 } else { peer };
        p % self.routers_per_group
    }

    /// Hop distance: 0 same router, 1 same group, else 1 global hop
    /// plus a local hop at each end whose router is not the gateway.
    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        if a == b {
            return 0;
        }
        let ra = self.routers_per_group;
        let (ga, la) = (a / ra, a % ra);
        let (gb, lb) = (b / ra, b % ra);
        if ga == gb {
            return 1;
        }
        1 + u32::from(la != self.gateway(ga, gb)) + u32::from(lb != self.gateway(gb, ga))
    }

    /// Maximum terminal-pair distance.
    #[inline]
    pub fn diameter(&self) -> u32 {
        let (g, a) = (self.groups, self.routers_per_group);
        match (g > 1, a > 1) {
            (false, false) => 0,
            (false, true) => 1,
            (true, false) => 1,
            // A non-gateway source and non-gateway destination exist
            // whenever a group has ≥ 2 routers.
            (true, true) => 3,
        }
    }

    /// Emits the minimal local–global–local route as channel ids.
    pub fn route_links(&self, a: u32, b: u32, out: &mut Vec<u32>) {
        if a == b {
            return;
        }
        let ra = self.routers_per_group;
        let (ga, la) = (a / ra, a % ra);
        let (gb, lb) = (b / ra, b % ra);
        if ga == gb {
            out.push(Topology::channel(self.local_link(ga, la, lb), la > lb));
            return;
        }
        let gw_a = self.gateway(ga, gb);
        let gw_b = self.gateway(gb, ga);
        if la != gw_a {
            out.push(Topology::channel(self.local_link(ga, la, gw_a), la > gw_a));
        }
        out.push(Topology::channel(self.global_link(ga, gb), ga > gb));
        if gw_b != lb {
            out.push(Topology::channel(self.local_link(gb, gw_b, lb), gw_b > lb));
        }
    }

    /// Enumerates every physical link in ascending id order.
    pub fn for_each_link(&self, mut f: impl FnMut(u32, u32, u32, f64)) {
        let a = self.routers_per_group;
        for group in 0..self.groups {
            for x in 0..a {
                for y in (x + 1)..a {
                    f(
                        self.local_link(group, x, y),
                        group * a + x,
                        group * a + y,
                        self.local_bw,
                    );
                }
            }
        }
        for i in 0..self.groups {
            for j in (i + 1)..self.groups {
                f(
                    self.global_link(i, j),
                    i * a + self.gateway(i, j),
                    j * a + self.gateway(j, i),
                    self.global_bw,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df(g: u32, a: u32) -> Dragonfly {
        Dragonfly {
            groups: g,
            routers_per_group: a,
            local_bw: 1.0,
            global_bw: 1.0,
        }
    }

    #[test]
    fn counts_and_diameter() {
        let d = df(4, 3);
        assert_eq!(d.num_routers(), 12);
        assert_eq!(d.num_physical_links(), 4 * 3 + 6);
        assert_eq!(d.diameter(), 3);
        assert_eq!(df(1, 4).diameter(), 1);
        assert_eq!(df(5, 1).diameter(), 1);
    }

    #[test]
    fn pair_index_is_a_bijection() {
        let n = 7;
        let mut seen = std::collections::HashSet::new();
        for x in 0..n {
            for y in (x + 1)..n {
                assert!(seen.insert(pair_index(x, y, n)));
            }
        }
        assert_eq!(seen.len() as u32, n * (n - 1) / 2);
        assert!(seen.iter().all(|&i| i < n * (n - 1) / 2));
    }

    #[test]
    fn route_length_equals_distance_everywhere() {
        let d = df(4, 3);
        let mut out = Vec::new();
        for a in 0..12u32 {
            for b in 0..12u32 {
                out.clear();
                d.route_links(a, b, &mut out);
                assert_eq!(out.len() as u32, d.distance(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn opposite_routes_share_undirected_links() {
        // Minimal dragonfly routing is symmetric: the reverse route
        // visits the same gateways, so it crosses the same physical
        // links in reverse order, each through its other channel.
        let d = df(5, 4);
        let mut ab = Vec::new();
        let mut ba = Vec::new();
        for a in 0..20u32 {
            for b in 0..20u32 {
                ab.clear();
                ba.clear();
                d.route_links(a, b, &mut ab);
                d.route_links(b, a, &mut ba);
                ba.reverse();
                assert_eq!(ab.len(), ba.len(), "{a} <-> {b}");
                for (&x, &y) in ab.iter().zip(&ba) {
                    assert_ne!(x, y, "{a} <-> {b}");
                    assert_eq!(
                        Topology::channel_link(x),
                        Topology::channel_link(y),
                        "{a} <-> {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn directed_channels_distinguish_directions() {
        let d = df(3, 2);
        let mut ab = Vec::new();
        let mut ba = Vec::new();
        d.route_links(0, 1, &mut ab);
        d.route_links(1, 0, &mut ba);
        assert_eq!(ab.len(), 1);
        assert_ne!(ab[0], ba[0]);
        assert_eq!(Topology::channel_link(ab[0]), Topology::channel_link(ba[0]));
    }

    #[test]
    fn routes_are_contiguous_in_the_router_graph() {
        // Each channel, decoded with the endpoints `for_each_link`
        // reports, must leave the router the previous one entered.
        let d = df(4, 3);
        let mut ends = vec![(0, 0); d.num_physical_links()];
        d.for_each_link(|l, u, v, _| ends[l as usize] = (u, v));
        let mut route = Vec::new();
        for a in 0..12u32 {
            for b in 0..12u32 {
                route.clear();
                d.route_links(a, b, &mut route);
                let end = route.iter().fold(a, |cur, &c| {
                    let l = Topology::channel_link(c);
                    let (u, v) = ends[l as usize];
                    let (from, to) = if c == Topology::channel(l, false) {
                        (u, v)
                    } else {
                        (v, u)
                    };
                    assert_eq!(from, cur, "{a}->{b}: channel {c}");
                    to
                });
                assert_eq!(end, b, "{a}->{b}");
            }
        }
    }

    #[test]
    fn gateways_spread_over_group_routers() {
        let d = df(9, 4);
        // Group 0 has 8 peers spread round-robin over 4 routers.
        let mut counts = [0u32; 4];
        for peer in 1..9u32 {
            counts[d.gateway(0, peer) as usize] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2]);
    }

    #[test]
    fn supercomputer_preset_builds() {
        let m = DragonflyConfig::supercomputer().build();
        assert_eq!(m.num_nodes(), 9 * 16 * 4);
        assert_eq!(m.diameter(), 3);
    }
}
