//! Static dimension-ordered shortest-path routing on a torus or mesh.
//!
//! Cray Gemini routes packets statically: all hops of dimension 0 first,
//! then dimension 1, etc., always taking the shorter wrap direction
//! (ties resolved toward +1 so routing is deterministic). Because the
//! route of a message is a pure function of its endpoints, the paper's
//! congestion metrics (Eq. 1) can be computed *exactly* — the property
//! Algorithm 3 depends on.
//!
//! [`walk`] delivers the route hop by hop to a callback; the torus
//! backend ([`TorusNet`](crate::topology::TorusNet)) turns each hop
//! into a channel id as it goes, with no intermediate hop buffer.

use crate::torus::{Torus, MAX_DIMS};

/// The dimension-ordered walk from `a` to `b`, delivered as a callback
/// per hop: `f(from, to, dim, positive)`. All hops of dimension 0
/// first, then dimension 1, etc., always the shorter wrap direction
/// with ties toward +1; exactly `torus.distance(a, b)` hops. **The
/// single source of truth for torus routing**: the channel ids the
/// congestion metrics accumulate are emitted from it.
#[inline]
pub fn walk(torus: &Torus, a: u32, b: u32, mut f: impl FnMut(u32, u32, usize, bool)) {
    let mut ca = [0u32; MAX_DIMS];
    let mut cb = [0u32; MAX_DIMS];
    torus.coords_into(a, &mut ca);
    torus.coords_into(b, &mut cb);
    let mut cur = a;
    for d in 0..torus.ndims() {
        let k = torus.dims()[d];
        if ca[d] == cb[d] {
            continue;
        }
        let (steps, positive) = if torus.has_wraparound() {
            let fwd = (cb[d] + k - ca[d]) % k;
            let bwd = k - fwd;
            // Shorter wrap direction; tie → positive.
            if fwd <= bwd {
                (fwd, true)
            } else {
                (bwd, false)
            }
        } else {
            // Mesh: only the direct direction exists.
            if cb[d] > ca[d] {
                (cb[d] - ca[d], true)
            } else {
                (ca[d] - cb[d], false)
            }
        };
        for _ in 0..steps {
            let to = torus.neighbor(cur, d, positive);
            f(cur, to, d, positive);
            cur = to;
        }
    }
    debug_assert_eq!(cur, b, "walk did not arrive at destination");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One hop of a walk: `(from, to, dim, positive)`.
    type Hop = (u32, u32, usize, bool);

    fn hops(torus: &Torus, a: u32, b: u32) -> Vec<Hop> {
        let mut v = Vec::new();
        walk(torus, a, b, |from, to, d, positive| {
            v.push((from, to, d, positive))
        });
        v
    }

    #[test]
    fn route_length_equals_distance() {
        let t = Torus::new(&[5, 4, 3]);
        for a in (0..60u32).step_by(7) {
            for b in 0..60u32 {
                assert_eq!(hops(&t, a, b).len() as u32, t.distance(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn route_is_dimension_ordered() {
        let t = Torus::new(&[6, 6]);
        let r = hops(&t, t.router_at(&[0, 0]), t.router_at(&[2, 3]));
        let dims: Vec<usize> = r.iter().map(|h| h.2).collect();
        assert_eq!(dims, vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn route_takes_shorter_wrap() {
        let t = Torus::new(&[8]);
        // 0 -> 6 : backward (2 hops) beats forward (6 hops).
        let r = hops(&t, 0, 6);
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|h| !h.3));
    }

    #[test]
    fn tie_breaks_positive() {
        let t = Torus::new(&[8]);
        // 0 -> 4: both directions are 4 hops; deterministic choice is +.
        let r = hops(&t, 0, 4);
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|h| h.3));
    }

    #[test]
    fn empty_route_for_same_router() {
        let t = Torus::new(&[4, 4]);
        assert!(hops(&t, 9, 9).is_empty());
    }

    #[test]
    fn mesh_routes_are_direct() {
        let m = Torus::new_mesh(&[8]);
        // 0 -> 6 on a mesh must take 6 forward hops (no wrap shortcut).
        let r = hops(&m, 0, 6);
        assert_eq!(r.len(), 6);
        assert!(r.iter().all(|h| h.3));
        // And route length always equals mesh distance.
        for a in 0..8u32 {
            for b in 0..8u32 {
                assert_eq!(hops(&m, a, b).len() as u32, m.distance(a, b));
            }
        }
    }

    #[test]
    fn mesh_2d_route_is_dimension_ordered_and_valid() {
        let m = Torus::new_mesh(&[5, 4]);
        let (a, b) = (m.router_at(&[4, 3]), m.router_at(&[0, 0]));
        let r = hops(&m, a, b);
        assert_eq!(r.len() as u32, m.distance(a, b));
        let mut cur = a;
        for &(from, to, d, positive) in &r {
            assert_eq!(from, cur);
            assert!(!positive); // heading toward (0,0)
            assert_eq!(to, m.neighbor(cur, d, positive));
            cur = to;
        }
        assert_eq!(cur, b);
    }

    #[test]
    fn route_hops_are_contiguous() {
        let t = Torus::new(&[7, 5, 3]);
        let (a, b) = (3u32, 97u32);
        let mut cur = a;
        for (from, to, d, positive) in hops(&t, a, b) {
            assert_eq!(from, cur);
            assert_eq!(to, t.neighbor(cur, d, positive));
            cur = to;
        }
        assert_eq!(cur, b);
    }
}
