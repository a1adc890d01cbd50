//! Regression tests for the link-id space: canonical physical-link ids
//! on extent-2 wraparound dimensions and an exact (phantom-free) id
//! space on extent-1 dimensions.
//!
//! The exact congestion refinement (Algorithm 3) relies on every
//! message between the same router pair hitting the same channels. On
//! a wraparound dimension of extent 2 both directions tie-break to
//! `positive`, so a hop-direction-derived id scheme splits a↔b traffic
//! across two physical ids and silently misreports MC/MMC/AC. The
//! topology owns the id space and assigns link ids canonically (min
//! endpoint), so the two directions are the two channels of one
//! physical link, which these tests pin down.

use umpa::prelude::*;

#[test]
fn extent_two_wraparound_routes_share_undirected_ids() {
    let m = MachineConfig::small(&[2, 4], 1, 1).build();
    // Every adjacent pair across the extent-2 dimension crosses the
    // same physical link in both directions (both tie-break to
    // `positive`): the routes must be its two channels. Pairs whose
    // routes also differ in dimension 1 legally use different links
    // (dimension-ordered routes traverse different rows), so only the
    // extent-2 crossings are pinned here.
    for y in 0..4u32 {
        let (a, b) = (y * 2, y * 2 + 1); // routers (0, y) and (1, y)
        let ab = m.route_links_vec(a, b);
        let ba = m.route_links_vec(b, a);
        assert_eq!(ab.len(), 1, "adjacent pair must be one hop");
        assert_eq!(ba.len(), 1, "adjacent pair must be one hop");
        let l = Topology::channel_link(ab[0]);
        assert_eq!(ab[0], Topology::channel(l, false), "{a}->{b}");
        assert_eq!(ba[0], Topology::channel(l, true), "{b}->{a}");
    }
}

#[test]
fn extent_two_wraparound_congestion_lands_on_one_physical_link() {
    let m = MachineConfig::small(&[2, 4], 1, 1).build();
    // Nodes 0 and 1 sit on adjacent routers across the extent-2 dim.
    // A symmetric pattern: the two directions must land on the two
    // channels of ONE physical link, so MMC = 1 and MC = 3 (the larger
    // of volumes 2 and 3 over bw 1).
    let tg = TaskGraph::from_messages(2, [(0, 1, 2.0), (1, 0, 3.0)], None);
    let r = evaluate(&tg, &m, &[0, 1]);
    assert_eq!(r.used_links, 2, "one channel per direction");
    let used: Vec<u32> = (0..m.num_links() as u32)
        .filter(|&c| r.msg_congestion[c as usize] > 0.0)
        .collect();
    assert_eq!(used.len(), 2);
    assert_eq!(
        Topology::channel_link(used[0]),
        Topology::channel_link(used[1]),
        "both directions must cross one physical link"
    );
    assert_eq!(r.mmc, 1.0);
    assert_eq!(r.mc, 3.0);
    // TH identity must also hold.
    let sum: f64 = r.msg_congestion.iter().sum();
    assert!((r.th - sum).abs() < 1e-9);
}

#[test]
fn extent_one_dimensions_carry_no_phantom_links() {
    // A [1, 4] torus has no links along dimension 0 at all: the id
    // space must contain exactly the 4 dim-1 ring links (8 directed
    // channels), not slots with dead-but-nonzero bandwidth.
    let m = MachineConfig::small(&[1, 4], 1, 1).build();
    assert_eq!(m.num_links(), 8, "4 physical ring links x 2");
    // Every id in the space is routable: a full traffic sweep touches
    // every channel (a ring's dimension-ordered routes cover all links
    // in both directions).
    let tg = TaskGraph::from_messages(
        4,
        (0..4u32).flat_map(|i| (0..4u32).filter(move |&j| j != i).map(move |j| (i, j, 1.0))),
        None,
    );
    let mapping: Vec<u32> = (0..4).collect();
    let r = evaluate(&tg, &m, &mapping);
    assert_eq!(
        r.used_links,
        m.num_links(),
        "id space contains unroutable phantom slots"
    );
}

#[test]
fn mesh_boundaries_carry_no_phantom_links() {
    // An open [4] mesh has 3 physical links, not 4.
    let m = MachineConfig::small_mesh(&[4], 1, 1).build();
    assert_eq!(m.num_links(), 6, "directed: 3 physical links x 2");
}
