//! Synthetic large task-graph generators for the multilevel engine.
//!
//! The paper's workloads are SpMV task graphs sized to the machine;
//! the multilevel engine (`umpa_core::multilevel`) targets graphs
//! 10–100× larger than any allocation, so these generators build
//! [`TaskGraph`]s directly — no intermediate sparse matrix — at
//! 10⁵–10⁶ tasks:
//!
//! * [`stencil3d_tasks`] — a 7-point 3-D halo-exchange pattern, the
//!   communication shape of structured-grid solvers (each interior task
//!   exchanges with its 6 face neighbors);
//! * [`power_law_tasks`] — a preferential-attachment pattern whose hub
//!   tasks emulate graph-analytics workloads (degree skew stresses the
//!   capacity-aware matching: hubs saturate the merge cap early).
//!
//! Both take an explicit `total_weight` and spread it uniformly over
//! the tasks, so callers make the graph **capacity-respecting** by
//! passing a fraction of the target allocation's processor count (the
//! fill factor also drives how deep the multilevel engine can coarsen —
//! see the merge cap in `umpa_core::multilevel`):
//!
//! ```
//! use umpa_matgen::taskgen::{stencil3d_tasks, total_weight_for};
//! use umpa_topology::{AllocSpec, Allocation, MachineConfig};
//!
//! let machine = MachineConfig::small(&[4, 4], 2, 4).build();
//! let alloc = Allocation::generate(&machine, &AllocSpec::sparse(16, 1));
//! let tg = stencil3d_tasks(16, 16, 4, 8.0, 0.0, total_weight_for(&alloc, 0.5));
//! assert_eq!(tg.num_tasks(), 1024);
//! ```

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use umpa_graph::TaskGraph;
use umpa_topology::Allocation;

/// Total task weight filling `fill` (0..1] of the allocation's
/// processor capacity — the standard way to size a generated graph to a
/// machine. Fill factors well below 1.0 leave the packing slack the
/// multilevel engine's capacity-aware matching coarsens into.
pub fn total_weight_for(alloc: &Allocation, fill: f64) -> f64 {
    assert!(fill > 0.0 && fill <= 1.0, "fill must be in (0, 1]");
    fill * f64::from(alloc.total_procs())
}

/// Uniform per-task weights summing to `total_weight`.
fn uniform_weights(n: usize, total_weight: f64) -> Option<Vec<f64>> {
    assert!(total_weight > 0.0, "total_weight must be positive");
    (n > 0).then(|| vec![total_weight / n as f64; n])
}

/// 3-D stencil halo-exchange task graph on an `nx × ny × nz` grid:
/// every task sends `face_volume` to each of its up-to-6 face
/// neighbors, and — when `diagonal_volume > 0.0` — that volume to its 4
/// in-plane diagonal neighbors too (a 10-edges-per-task pattern, the
/// density of the million-task acceptance run). Both directions of
/// every exchange are emitted, like a real halo exchange. Task weights
/// are uniform and sum to `total_weight`.
pub fn stencil3d_tasks(
    nx: usize,
    ny: usize,
    nz: usize,
    face_volume: f64,
    diagonal_volume: f64,
    total_weight: f64,
) -> TaskGraph {
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| (z * nx * ny + y * nx + x) as u32;
    let mut messages = Vec::with_capacity(n * if diagonal_volume > 0.0 { 10 } else { 6 });
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let r = idx(x, y, z);
                // Emit each exchange once per unordered pair, both
                // directions at once.
                let mut link = |tx: isize, ty: isize, tz: isize, vol: f64| {
                    if tx >= 0
                        && ty >= 0
                        && tz >= 0
                        && (tx as usize) < nx
                        && (ty as usize) < ny
                        && (tz as usize) < nz
                    {
                        let t = idx(tx as usize, ty as usize, tz as usize);
                        messages.push((r, t, vol));
                        messages.push((t, r, vol));
                    }
                };
                let (xi, yi, zi) = (x as isize, y as isize, z as isize);
                link(xi + 1, yi, zi, face_volume);
                link(xi, yi + 1, zi, face_volume);
                link(xi, yi, zi + 1, face_volume);
                if diagonal_volume > 0.0 {
                    link(xi + 1, yi + 1, zi, diagonal_volume);
                    link(xi + 1, yi - 1, zi, diagonal_volume);
                }
            }
        }
    }
    TaskGraph::from_messages(n, messages, uniform_weights(n, total_weight))
}

/// Preferential-attachment ("power-law") communication graph: task `t`
/// attaches `edges_per_task` messages to endpoints sampled from the
/// running endpoint list (Barabási–Albert flavor), so early tasks
/// become hubs with degrees far above the mean. Message volumes are
/// drawn from `1.0..=16.0`; weights are uniform and sum to
/// `total_weight`. Deterministic per `seed`.
pub fn power_law_tasks(n: usize, edges_per_task: usize, seed: u64, total_weight: f64) -> TaskGraph {
    let m = edges_per_task.max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Endpoint multiset: every edge endpoint appears once, so sampling
    // uniformly from it is degree-proportional attachment.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    let mut messages: Vec<(u32, u32, f64)> = Vec::with_capacity(n * m);
    let seedlings = (m + 1).min(n);
    for t in 0..seedlings as u32 {
        // A small clique seeds the attachment process.
        for u in 0..t {
            messages.push((t, u, f64::from(rng.gen_range(1..=16u32))));
            endpoints.push(t);
            endpoints.push(u);
        }
    }
    for t in seedlings as u32..n as u32 {
        for _ in 0..m {
            let u = endpoints[rng.gen_range(0..endpoints.len())];
            if u == t {
                continue;
            }
            messages.push((t, u, f64::from(rng.gen_range(1..=16u32))));
            endpoints.push(t);
            endpoints.push(u);
        }
    }
    TaskGraph::from_messages(n, messages, uniform_weights(n, total_weight))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_shape_and_weights() {
        let tg = stencil3d_tasks(4, 4, 4, 2.0, 0.0, 32.0);
        assert_eq!(tg.num_tasks(), 64);
        // Interior task (1,1,1) = id 1 + 4 + 16 = 21: 6 face neighbors,
        // both directions.
        assert_eq!(tg.send_messages(21), 6);
        assert_eq!(tg.recv_messages(21), 6);
        assert_eq!(tg.send_volume(21), 12.0);
        // Corner task: 3 neighbors.
        assert_eq!(tg.send_messages(0), 3);
        let total: f64 = (0..64u32).map(|t| tg.task_weight(t)).sum();
        assert!((total - 32.0).abs() < 1e-9);
    }

    #[test]
    fn stencil_diagonals_make_ten_edges_per_interior_task() {
        let tg = stencil3d_tasks(4, 4, 4, 2.0, 0.5, 32.0);
        // Interior task (1,1,1): 6 faces + 4 in-plane diagonals.
        assert_eq!(tg.send_messages(21), 10);
        assert_eq!(tg.recv_messages(21), 10);
        // Volumes split by neighbor class: 6·2.0 + 4·0.5.
        assert_eq!(tg.send_volume(21), 14.0);
        // A corner keeps 3 faces + 1 diagonal.
        assert_eq!(tg.send_messages(0), 4);
    }

    #[test]
    fn stencil_is_symmetric_in_messages() {
        let tg = stencil3d_tasks(3, 3, 2, 1.0, 0.0, 18.0);
        for (s, t, v) in tg.messages() {
            assert!(
                tg.messages().any(|(a, b, w)| a == t && b == s && w == v),
                "missing reverse of {s}->{t}"
            );
        }
    }

    #[test]
    fn power_law_has_hubs_and_is_deterministic() {
        let tg = power_law_tasks(2000, 5, 7, 100.0);
        assert_eq!(tg.num_tasks(), 2000);
        let deg = |t: u32| tg.send_messages(t) + tg.recv_messages(t);
        let max_deg = (0..2000u32).map(deg).max().unwrap();
        let avg = (0..2000u32).map(|t| f64::from(deg(t))).sum::<f64>() / 2000.0;
        assert!(
            f64::from(max_deg) > 5.0 * avg,
            "no hubs: max {max_deg}, avg {avg:.1}"
        );
        let again = power_law_tasks(2000, 5, 7, 100.0);
        assert_eq!(tg.num_messages(), again.num_messages());
        assert_eq!(tg.total_volume(), again.total_volume());
        let other = power_law_tasks(2000, 5, 8, 100.0);
        assert_ne!(tg.total_volume(), other.total_volume());
    }

    #[test]
    fn degenerate_sizes_do_not_panic() {
        assert_eq!(stencil3d_tasks(1, 1, 1, 1.0, 0.0, 1.0).num_messages(), 0);
        assert_eq!(power_law_tasks(1, 4, 1, 1.0).num_messages(), 0);
        let tg = power_law_tasks(2, 3, 1, 2.0);
        assert_eq!(tg.num_tasks(), 2);
    }
}
