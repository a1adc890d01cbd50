//! 3-level k-ary fat-tree (Clos) backend.
//!
//! The classic k-port fat-tree of cloud clusters: `k` pods, each with
//! `k/2` edge and `k/2` aggregation switches, and `(k/2)²` core
//! switches. Compute nodes hang off the edge switches only — the edge
//! switches are the *terminal* routers (ids `0..k²/2`), aggregation and
//! core switches exist purely as transit (ids above the terminal range,
//! hosting no nodes).
//!
//! Routing is deterministic up\*/down\*: a message climbs from its edge
//! switch to the aggregation switch selected by the **destination edge
//! index**, crosses (if needed) the core switch selected by the
//! **source edge index**, and descends. Destination-indexed up-links
//! model ECMP-free static routing; source-indexing the core spreads
//! load deterministically. Routes are pure functions of their
//! endpoints, so the exact-congestion property of Algorithm 3 carries
//! over unchanged.
//!
//! Link ids: edge↔agg links first (`(pod·k/2 + edge)·k/2 + agg`), then
//! agg↔core (`k³/4 + (pod·k/2 + agg)·k/2 + core_index`). Each physical
//! link has one id regardless of traversal direction — canonical by
//! construction — and is enumerated lower level first, so its forward
//! [`Topology::channel`] goes up (toward the core) and its reversed one
//! down.

use crate::machine::{Machine, MachineParams};
use crate::topology::Topology;

/// Configuration for building a fat-tree [`Machine`].
#[derive(Clone, Debug)]
pub struct FatTreeConfig {
    /// Switch port count; must be even and ≥ 2. Hosts: `k³/4` when
    /// `nodes_per_router = k/2`.
    pub k: u32,
    /// Compute nodes per edge switch.
    pub nodes_per_router: u32,
    /// Processor cores usable per node.
    pub procs_per_node: u32,
    /// Edge↔aggregation link bandwidth, GB/s.
    pub edge_bw: f64,
    /// Aggregation↔core link bandwidth, GB/s.
    pub core_bw: f64,
    /// Nearest-neighbor one-way latency, microseconds.
    pub base_latency_us: f64,
    /// Additional latency per hop, microseconds.
    pub hop_latency_us: f64,
    /// Injection (NIC) bandwidth per node, GB/s.
    pub nic_bw: f64,
}

impl FatTreeConfig {
    /// A small unit-bandwidth fat-tree for tests and examples.
    pub fn small(k: u32, nodes_per_router: u32, procs_per_node: u32) -> Self {
        Self {
            k,
            nodes_per_router,
            procs_per_node,
            edge_bw: 1.0,
            core_bw: 1.0,
            base_latency_us: 1.0,
            hop_latency_us: 0.1,
            nic_bw: 1.0,
        }
    }

    /// A cloud-style cluster: k = 8 (32 racks), 4 hosts per edge
    /// switch, 100 GbE edge links with a 2:1 oversubscribed core.
    pub fn cluster() -> Self {
        Self {
            k: 8,
            nodes_per_router: 4,
            procs_per_node: 16,
            edge_bw: 12.5,
            core_bw: 6.25,
            base_latency_us: 1.5,
            hop_latency_us: 0.3,
            nic_bw: 12.5,
        }
    }

    /// Builds the machine.
    pub fn build(self) -> Machine {
        assert!(
            self.k >= 2 && self.k.is_multiple_of(2),
            "fat-tree arity k must be even and >= 2"
        );
        let params = MachineParams {
            nodes_per_router: self.nodes_per_router,
            procs_per_node: self.procs_per_node,
            base_latency_us: self.base_latency_us,
            hop_latency_us: self.hop_latency_us,
            nic_bw: self.nic_bw,
        };
        let topo = Topology::FatTree(FatTree {
            k: self.k,
            edge_bw: self.edge_bw,
            core_bw: self.core_bw,
        });
        Machine::from_topology(topo, params)
    }
}

/// The fat-tree topology backend. See the module docs for the id
/// layout.
#[derive(Clone, Debug)]
pub struct FatTree {
    k: u32,
    edge_bw: f64,
    core_bw: f64,
}

impl FatTree {
    /// Switch port count.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Half-arity `k/2`: edges per pod, aggs per pod, up-ports each.
    #[inline]
    fn h(&self) -> u32 {
        self.k / 2
    }

    /// Edge switches (= terminal routers).
    #[inline]
    pub fn num_terminal_routers(&self) -> usize {
        (self.k * self.h()) as usize
    }

    /// All switches: edge + aggregation + core.
    #[inline]
    pub fn num_routers(&self) -> usize {
        (2 * self.k * self.h() + self.h() * self.h()) as usize
    }

    /// Router id of aggregation switch `a` of pod `p`.
    #[inline]
    fn agg_id(&self, p: u32, a: u32) -> u32 {
        self.k * self.h() + p * self.h() + a
    }

    /// Router id of core switch `i` of core group `a` (the cores wired
    /// to aggregation index `a` of every pod).
    #[inline]
    fn core_id(&self, a: u32, i: u32) -> u32 {
        2 * self.k * self.h() + a * self.h() + i
    }

    /// Physical id of the edge(p, e) ↔ agg(p, a) link.
    #[inline]
    fn edge_agg_link(&self, p: u32, e: u32, a: u32) -> u32 {
        (p * self.h() + e) * self.h() + a
    }

    /// Physical id of the agg(p, a) ↔ core(a, i) link.
    #[inline]
    fn agg_core_link(&self, p: u32, a: u32, i: u32) -> u32 {
        self.k * self.h() * self.h() + (p * self.h() + a) * self.h() + i
    }

    /// Physical links: `k·(k/2)²` edge↔agg plus the same agg↔core.
    #[inline]
    pub fn num_physical_links(&self) -> usize {
        (2 * self.k * self.h() * self.h()) as usize
    }

    /// Bandwidth of physical link `l`.
    #[inline]
    pub fn physical_link_bw(&self, l: u32) -> f64 {
        if l < self.k * self.h() * self.h() {
            self.edge_bw
        } else {
            self.core_bw
        }
    }

    /// Hop distance between terminal (edge-switch) routers: 0 at the
    /// same switch, 2 within a pod, 4 across pods.
    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        debug_assert!(
            (a as usize) < self.num_terminal_routers()
                && (b as usize) < self.num_terminal_routers(),
            "fat-tree distance is defined between edge switches"
        );
        if a == b {
            0
        } else if a / self.h() == b / self.h() {
            2
        } else {
            4
        }
    }

    /// Maximum terminal-pair distance (4, or 2 for a single-pod tree —
    /// which cannot occur since pods = k ≥ 2).
    #[inline]
    pub fn diameter(&self) -> u32 {
        if self.k > 1 {
            4
        } else {
            2
        }
    }

    /// Emits the up*/down* route as channel ids.
    pub fn route_links(&self, a: u32, b: u32, out: &mut Vec<u32>) {
        if a == b {
            return;
        }
        let h = self.h();
        let (pa, ea) = (a / h, a % h);
        let (pb, eb) = (b / h, b % h);
        let agg = eb; // up-link selected by destination edge index
        out.push(Topology::channel(self.edge_agg_link(pa, ea, agg), false));
        if pa != pb {
            let core = ea; // core selected by source edge index
            out.push(Topology::channel(self.agg_core_link(pa, agg, core), false));
            out.push(Topology::channel(self.agg_core_link(pb, agg, core), true));
        }
        out.push(Topology::channel(self.edge_agg_link(pb, eb, agg), true));
    }

    /// Enumerates every physical link in ascending id order.
    pub fn for_each_link(&self, mut f: impl FnMut(u32, u32, u32, f64)) {
        let h = self.h();
        for p in 0..self.k {
            for e in 0..h {
                for a in 0..h {
                    f(
                        self.edge_agg_link(p, e, a),
                        p * h + e,
                        self.agg_id(p, a),
                        self.edge_bw,
                    );
                }
            }
        }
        for p in 0..self.k {
            for a in 0..h {
                for i in 0..h {
                    f(
                        self.agg_core_link(p, a, i),
                        self.agg_id(p, a),
                        self.core_id(a, i),
                        self.core_bw,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft(k: u32) -> FatTree {
        FatTree {
            k,
            edge_bw: 1.0,
            core_bw: 1.0,
        }
    }

    #[test]
    fn k4_counts() {
        let f = ft(4);
        assert_eq!(f.num_terminal_routers(), 8);
        assert_eq!(f.num_routers(), 8 + 8 + 4);
        assert_eq!(f.num_physical_links(), 16 + 16);
        assert_eq!(f.diameter(), 4);
    }

    #[test]
    fn route_length_equals_distance_everywhere() {
        let f = ft(4);
        let mut out = Vec::new();
        for a in 0..8u32 {
            for b in 0..8u32 {
                out.clear();
                f.route_links(a, b, &mut out);
                assert_eq!(out.len() as u32, f.distance(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn routes_stay_inside_the_id_space() {
        // Up-links are destination-indexed, so a→b and b→a may climb
        // through different aggregation switches (that's real up*/down*
        // routing); what must hold is that every emitted channel
        // crosses a valid physical link and lengths match the symmetric
        // distance.
        let f = ft(8);
        let nl = f.num_physical_links() as u32;
        let mut ab = Vec::new();
        let mut ba = Vec::new();
        for a in 0..f.num_terminal_routers() as u32 {
            for b in 0..f.num_terminal_routers() as u32 {
                ab.clear();
                ba.clear();
                f.route_links(a, b, &mut ab);
                f.route_links(b, a, &mut ba);
                assert!(ab.iter().all(|&c| Topology::channel_link(c) < nl));
                assert_eq!(ab.len(), ba.len(), "{a} <-> {b}");
            }
        }
    }

    #[test]
    fn same_destination_traffic_converges_on_one_down_link() {
        // Destination-indexed up-links: every sender to edge switch b
        // descends through the same agg→edge link (realistic hot-spot
        // behavior for destination-routed networks).
        let f = ft(4);
        let b = 5u32;
        let mut down_links = std::collections::HashSet::new();
        let mut out = Vec::new();
        for a in 0..8u32 {
            if a == b {
                continue;
            }
            out.clear();
            f.route_links(a, b, &mut out);
            down_links.insert(*out.last().unwrap());
        }
        assert_eq!(down_links.len(), 1);
    }

    #[test]
    fn directed_channels_distinguish_up_and_down() {
        let f = ft(4);
        let mut out = Vec::new();
        f.route_links(0, 1, &mut out);
        assert_eq!(out.len(), 2);
        let up = |c: u32| c == Topology::channel(Topology::channel_link(c), false);
        assert!(up(out[0]), "first hop goes up");
        assert!(!up(out[1]), "second hop goes down");
    }

    #[test]
    fn routes_are_contiguous_in_the_router_graph() {
        // Each channel, decoded with the endpoints `for_each_link`
        // reports, must leave the router the previous one entered.
        let f = ft(4);
        let mut ends = vec![(0, 0); f.num_physical_links()];
        f.for_each_link(|l, u, v, _| ends[l as usize] = (u, v));
        let mut route = Vec::new();
        for a in 0..8u32 {
            for b in 0..8u32 {
                route.clear();
                f.route_links(a, b, &mut route);
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
    fn cluster_preset_builds() {
        let m = FatTreeConfig::cluster().build();
        assert_eq!(m.num_nodes(), 32 * 4);
        assert_eq!(m.diameter(), 4);
    }
}
