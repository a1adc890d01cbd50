//! Frozen copy of the hop-distance helper the reference engines call:
//! oracle-or-analytic node distances and the incremental WH swap gain,
//! exactly as the live `umpa_core` helper computed them when the
//! references were frozen. Keeping a private copy means a change to the
//! live helper cannot silently move the references along with it.

use umpa::graph::TaskGraph;
use umpa::topology::{DistanceOracle, Machine, Topology};

/// Hop-distance access for one run: the oracle table when built, the
/// analytic backend otherwise.
pub struct HopDist<'a> {
    oracle: Option<&'a DistanceOracle>,
    topo: &'a Topology,
    nodes_per_router: u32,
}

impl<'a> HopDist<'a> {
    pub fn new(machine: &'a Machine) -> Self {
        Self {
            oracle: machine.oracle(),
            topo: machine.topology(),
            nodes_per_router: machine.params().nodes_per_router,
        }
    }

    /// Router a node hangs off (mirrors `Machine::router_of`).
    fn router_of(&self, node: u32) -> u32 {
        node / self.nodes_per_router
    }

    /// Hop distance between two *nodes*.
    #[allow(dead_code)] // the greedy reference calls it, the congestion one does not
    pub fn node_hops(&self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.router_of(a), self.router_of(b));
        match self.oracle {
            Some(o) => o.distance(ra, rb),
            None => self.topo.distance(ra, rb),
        }
    }

    /// WH gain (positive = improvement) of swapping `t1` with
    /// `(node2, t2)`; `t2 = None` is a pure move onto free capacity.
    #[allow(dead_code)] // the congestion reference calls it, the greedy one does not
    pub fn swap_gain(
        &self,
        tg: &TaskGraph,
        mapping: &[u32],
        t1: u32,
        t2: Option<u32>,
        node2: u32,
    ) -> f64 {
        let npr = self.nodes_per_router;
        let pos = move |t: u32| mapping[t as usize] / npr;
        let (r1, r2) = (pos(t1), self.router_of(node2));
        let skip1 = t2.unwrap_or(u32::MAX);
        match self.oracle {
            Some(o) => {
                let (row1, row2) = (o.row(r1), o.row(r2));
                let mut gain = gain_half(tg, pos, t1, skip1, |p| {
                    i32::from(row1[p as usize]) - i32::from(row2[p as usize])
                });
                if let Some(t2) = t2 {
                    gain += gain_half(tg, pos, t2, t1, |p| {
                        i32::from(row2[p as usize]) - i32::from(row1[p as usize])
                    });
                }
                gain
            }
            None => {
                let mut gain = gain_half(tg, pos, t1, skip1, |p| {
                    self.topo.distance(r1, p) as i32 - self.topo.distance(r2, p) as i32
                });
                if let Some(t2) = t2 {
                    gain += gain_half(tg, pos, t2, t1, |p| {
                        self.topo.distance(r2, p) as i32 - self.topo.distance(r1, p) as i32
                    });
                }
                gain
            }
        }
    }
}

/// One task's side of the incremental gain: Σ c·Δd over its neighbors,
/// excluding `skip` (the t1–t2 edge correction term).
#[allow(dead_code)] // only `swap_gain` calls it
fn gain_half(
    tg: &TaskGraph,
    pos: impl Fn(u32) -> u32,
    t: u32,
    skip: u32,
    hop_delta: impl Fn(u32) -> i32,
) -> f64 {
    let mut g = 0.0;
    for (n, c) in tg.symmetric().edges(t) {
        if n == skip {
            continue;
        }
        g += c * f64::from(hop_delta(pos(n)));
    }
    g
}
