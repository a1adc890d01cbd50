//! Linear orderings of torus routers.
//!
//! Cray's scheduler places consecutive MPI ranks along a locality-
//! preserving linear ordering of the machine ("space filling curves",
//! Section IV-B; Albing et al. \[25\]). The DEF baseline and the
//! allocation generator both consume such an ordering. Two are
//! provided:
//!
//! * [`NodeOrdering::Lexicographic`] — plain row-major id order; poor
//!   locality at dimension boundaries (a worst-ish case);
//! * [`NodeOrdering::Serpentine`] — boustrophedon order that reverses
//!   direction each time an outer coordinate advances, so successive
//!   routers are always one hop apart — a faithful stand-in for the
//!   locality-preserving curve Hopper uses.

use crate::torus::{Torus, MAX_DIMS};

/// Which linear ordering of routers to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NodeOrdering {
    /// Row-major by router id.
    Lexicographic,
    /// Boustrophedon (serpentine) curve: adjacent entries are adjacent
    /// routers.
    #[default]
    Serpentine,
}

impl NodeOrdering {
    /// Produces the ordered list of router ids.
    pub fn router_order(self, torus: &Torus) -> Vec<u32> {
        match self {
            NodeOrdering::Lexicographic => (0..torus.num_routers() as u32).collect(),
            NodeOrdering::Serpentine => serpentine(torus),
        }
    }
}

/// Serpentine order: mixed-radix counter over dims `ndims-1 .. 0` where
/// dimension `d` sweeps forward or backward depending on the parity of
/// the number of completed sweeps — i.e. the integer value of the outer
/// odometer (counters of dims `> d`), not its digit sum.
fn serpentine(torus: &Torus) -> Vec<u32> {
    let nd = torus.ndims();
    let dims = torus.dims();
    let n = torus.num_routers();
    let mut order = Vec::with_capacity(n);
    let mut counter = [0u32; MAX_DIMS];
    for _ in 0..n {
        let mut coords = [0u32; MAX_DIMS];
        // `outer` = integer value of counters of dims > d, accumulated
        // from the outermost dimension inward.
        let mut outer = 0u64;
        for d in (0..nd).rev() {
            let c = counter[d];
            coords[d] = if outer.is_multiple_of(2) {
                c
            } else {
                dims[d] - 1 - c
            };
            outer = outer * u64::from(dims[d]) + u64::from(c);
        }
        order.push(torus.router_at(&coords[..nd]));
        // Increment mixed-radix counter, dim 0 fastest.
        for d in 0..nd {
            counter[d] += 1;
            if counter[d] < dims[d] {
                break;
            }
            counter[d] = 0;
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_is_identity() {
        let t = Torus::new(&[3, 2]);
        assert_eq!(
            NodeOrdering::Lexicographic.router_order(&t),
            (0..6u32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn serpentine_is_a_permutation() {
        let t = Torus::new(&[4, 3, 2]);
        let mut o = NodeOrdering::Serpentine.router_order(&t);
        o.sort_unstable();
        assert_eq!(o, (0..24u32).collect::<Vec<_>>());
    }

    #[test]
    fn serpentine_neighbors_are_one_hop_apart() {
        for dims in [&[5, 4, 3][..], &[2, 2, 2, 2][..], &[7][..], &[6, 5][..]] {
            let t = Torus::new(dims);
            let o = NodeOrdering::Serpentine.router_order(&t);
            for w in o.windows(2) {
                assert_eq!(
                    t.distance(w[0], w[1]),
                    1,
                    "dims={dims:?} pair=({},{})",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn serpentine_2d_matches_hand_computed() {
        let t = Torus::new(&[3, 2]);
        // Row y=0 forward (x = 0,1,2) then row y=1 backward (x = 2,1,0).
        let o = NodeOrdering::Serpentine.router_order(&t);
        let coords: Vec<(u32, u32)> = o.iter().map(|&r| (t.coord(r, 0), t.coord(r, 1))).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]);
    }

    #[test]
    fn lexicographic_breaks_locality_serpentine_keeps_it() {
        let t = Torus::new(&[8, 8]);
        let lex = NodeOrdering::Lexicographic.router_order(&t);
        // Row boundary in lexicographic order: ids 7 -> 8 are distance 2
        // apart (wrap in x plus one step in y)... distance((7,0),(0,1)).
        let d = t.distance(lex[7], lex[8]);
        assert!(d >= 2);
    }
}
