//! The channel ids production routes emit, checked against the router
//! graph.
//!
//! A route is a sequence of directed channel ids. Decoding each id with
//! the endpoints `Topology::for_each_link` reports for its physical
//! link must give a walk that starts at the route's source, moves
//! along router-graph edges only, and ends at its destination in
//! exactly the hop distance. This pins the channel format of every
//! backend (torus, mesh, extent-1 and extent-2 dimensions, fat-tree,
//! dragonfly) and of the failure-masked routes served after a hard
//! link failure.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use umpa::prelude::*;

/// Endpoints of every physical link, in the order `for_each_link`
/// reports them.
fn link_ends(m: &Machine) -> Vec<(u32, u32)> {
    let mut ends = vec![(u32::MAX, u32::MAX); m.topology().num_physical_links()];
    m.topology()
        .for_each_link(|l, u, v, _| ends[l as usize] = (u, v));
    ends
}

/// Checks the route of every `(a, b)` terminal-router pair: its
/// channels chain from `a` to `b` through router-graph neighbours over
/// live links, in exactly `dist(a, b)` steps.
fn check_routes(m: &Machine, pairs: &[(u32, u32)], dist: impl Fn(u32, u32) -> u32) {
    let ends = link_ends(m);
    let g = m.router_graph();
    let node = |r: u32| m.nodes_of_router(r).start;
    let mut route = Vec::new();
    for &(a, b) in pairs {
        let ctx = || format!("{} {a}->{b}", m.topology().summary());
        route.clear();
        m.route_links(node(a), node(b), &mut route);
        assert_eq!(route.len() as u32, dist(a, b), "{}: route length", ctx());
        let mut cur = a;
        for &c in &route {
            let link = Topology::channel_link(c);
            let (u, v) = ends[link as usize];
            let (from, to) = if c == Topology::channel(link, false) {
                (u, v)
            } else {
                (v, u)
            };
            assert_eq!(from, cur, "{}: channel {c} does not leave {cur}", ctx());
            assert!(
                g.neighbors(from).contains(&to),
                "{}: channel {c} ({from}->{to}) is not a router-graph edge",
                ctx()
            );
            assert!(m.link_factor(link) > 0.0, "{}: crosses failed link", ctx());
            cur = to;
        }
        assert_eq!(cur, b, "{}: walk ends at {cur}", ctx());
    }
}

/// Every ordered pair of terminal routers.
fn all_pairs(m: &Machine) -> Vec<(u32, u32)> {
    let n = m.num_terminal_routers() as u32;
    (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).collect()
}

fn small_machines() -> Vec<Machine> {
    vec![
        MachineConfig::small(&[4, 3, 5], 1, 1).build(),
        MachineConfig::small(&[2, 4], 1, 1).build(),
        MachineConfig::small(&[2, 2, 3], 1, 1).build(),
        MachineConfig::small(&[1, 4, 3], 1, 1).build(),
        MachineConfig::small(&[3, 1], 1, 1).build(),
        MachineConfig::small_mesh(&[4, 3], 1, 1).build(),
        MachineConfig::small_mesh(&[2, 1, 3], 1, 1).build(),
        FatTreeConfig::small(2, 1, 1).build(),
        FatTreeConfig::small(4, 1, 1).build(),
        FatTreeConfig::small(6, 1, 1).build(),
        DragonflyConfig::small(4, 3, 1).build(),
        DragonflyConfig::small(5, 4, 1).build(),
        DragonflyConfig::small(1, 4, 1).build(),
        DragonflyConfig::small(5, 1, 1).build(),
    ]
}

#[test]
fn every_backend_emits_channels_that_walk_the_router_graph() {
    for m in small_machines() {
        let topo = m.topology();
        check_routes(&m, &all_pairs(&m), |a, b| topo.distance(a, b));
    }
}

#[test]
fn hopper_channels_walk_the_router_graph_on_sampled_pairs() {
    let m = MachineConfig::hopper().build();
    let n = m.num_terminal_routers() as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(0xC4A7);
    let pairs: Vec<(u32, u32)> = (0..4096)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let topo = m.topology();
    check_routes(&m, &pairs, |a, b| topo.distance(a, b));
}

#[test]
fn masked_channels_walk_around_a_hard_link_failure() {
    let machines = [
        MachineConfig::small(&[4, 4], 1, 1).build(),
        MachineConfig::small(&[2, 4, 3], 1, 1).build(),
        FatTreeConfig::small(4, 1, 1).build(),
        DragonflyConfig::small(4, 3, 1).build(),
    ];
    for healthy in machines {
        let n = healthy.num_terminal_routers() as u32;
        // Fail the first hop of a route and the last hop of another, so
        // both ends of a hierarchical route (fat-tree up/down, dragonfly
        // local/global) lose a link somewhere across the runs.
        for (a, b, hop) in [(0, n - 1, 0usize), (n - 1, 0, usize::MAX)] {
            let mut m = healthy.clone();
            let route = m.route_links_vec(a, b);
            let c = route[hop.min(route.len() - 1)];
            m.degrade_link(Topology::channel_link(c), 0.0);
            assert!(m.has_failed_links());
            let pairs = all_pairs(&m);
            for &(x, y) in &pairs {
                assert_ne!(m.hops(x, y), u32::from(u16::MAX), "single failure cuts");
            }
            let node = |r: u32| m.nodes_of_router(r).start;
            check_routes(&m, &pairs, |x, y| m.hops(node(x), node(y)));
        }
    }
}
