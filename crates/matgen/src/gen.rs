//! Deterministic sparse-matrix generators, one per structural class of
//! the paper's 25-matrix UFL selection.
//!
//! Every generator takes an explicit seed and uses `ChaCha8` so the
//! dataset is bit-reproducible across platforms and `rand` point
//! releases. Generated matrices are *patterns* (see
//! [`crate::SparsePattern`]) and always include the diagonal, matching
//! the row-load model (`1 + nnz`) used for partitioning.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::pattern::SparsePattern;

/// 2-D grid stencil variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stencil2D {
    /// von Neumann neighborhood (4 neighbors).
    FivePoint,
    /// Moore neighborhood (8 neighbors).
    NinePoint,
}

/// 3-D grid stencil variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stencil3D {
    /// Face neighbors (6).
    SevenPoint,
    /// Full 3×3×3 neighborhood (26).
    TwentySevenPoint,
}

/// 2-D structured-grid matrix (`nx·ny` rows), e.g. finite differences.
pub fn stencil2d(nx: usize, ny: usize, kind: Stencil2D) -> SparsePattern {
    let n = nx * ny;
    let idx = |x: usize, y: usize| (y * nx + x) as u32;
    let mut entries = Vec::with_capacity(n * 5);
    for y in 0..ny {
        for x in 0..nx {
            let r = idx(x, y);
            entries.push((r, r));
            let mut push = |dx: isize, dy: isize| {
                let (tx, ty) = (x as isize + dx, y as isize + dy);
                if tx >= 0 && ty >= 0 && (tx as usize) < nx && (ty as usize) < ny {
                    entries.push((r, idx(tx as usize, ty as usize)));
                }
            };
            push(-1, 0);
            push(1, 0);
            push(0, -1);
            push(0, 1);
            if kind == Stencil2D::NinePoint {
                push(-1, -1);
                push(-1, 1);
                push(1, -1);
                push(1, 1);
            }
        }
    }
    SparsePattern::from_entries(n, n, entries)
}

/// 3-D structured-grid matrix (`nx·ny·nz` rows).
pub fn stencil3d(nx: usize, ny: usize, nz: usize, kind: Stencil3D) -> SparsePattern {
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| (z * nx * ny + y * nx + x) as u32;
    let mut entries = Vec::with_capacity(n * 7);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let r = idx(x, y, z);
                for dz in -1isize..=1 {
                    for dy in -1isize..=1 {
                        for dx in -1isize..=1 {
                            let face_dist = dx.abs() + dy.abs() + dz.abs();
                            let keep = match kind {
                                Stencil3D::SevenPoint => face_dist <= 1,
                                Stencil3D::TwentySevenPoint => true,
                            };
                            if !keep {
                                continue;
                            }
                            let (tx, ty, tz) = (x as isize + dx, y as isize + dy, z as isize + dz);
                            if tx >= 0
                                && ty >= 0
                                && tz >= 0
                                && (tx as usize) < nx
                                && (ty as usize) < ny
                                && (tz as usize) < nz
                            {
                                entries.push((r, idx(tx as usize, ty as usize, tz as usize)));
                            }
                        }
                    }
                }
            }
        }
    }
    SparsePattern::from_entries(n, n, entries)
}

/// Random geometric graph on the unit square: `n` points, edges between
/// pairs closer than `radius` — the structural class of the paper's
/// `rgg_n_2_23_s0`. Grid-bucketed so generation is O(n·deg).
pub fn rgg(n: usize, radius: f64, seed: u64) -> SparsePattern {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let cell = radius.max(1e-9);
    let grid_n = (1.0 / cell).ceil() as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); grid_n * grid_n];
    let bucket_of = |x: f64, y: f64| {
        let bx = ((x / cell) as usize).min(grid_n - 1);
        let by = ((y / cell) as usize).min(grid_n - 1);
        by * grid_n + bx
    };
    for (i, &(x, y)) in pts.iter().enumerate() {
        buckets[bucket_of(x, y)].push(i as u32);
    }
    let r2 = radius * radius;
    let mut entries: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i)).collect();
    for (i, &(x, y)) in pts.iter().enumerate() {
        let bx = ((x / cell) as usize).min(grid_n - 1);
        let by = ((y / cell) as usize).min(grid_n - 1);
        for nby in by.saturating_sub(1)..=(by + 1).min(grid_n - 1) {
            for nbx in bx.saturating_sub(1)..=(bx + 1).min(grid_n - 1) {
                for &j in &buckets[nby * grid_n + nbx] {
                    if (j as usize) <= i {
                        continue;
                    }
                    let (px, py) = pts[j as usize];
                    let (dx, dy) = (px - x, py - y);
                    if dx * dx + dy * dy <= r2 {
                        entries.push((i as u32, j));
                        entries.push((j, i as u32));
                    }
                }
            }
        }
    }
    SparsePattern::from_entries(n, n, entries)
}

/// Cage-like matrix: a multi-diagonal Markov-chain structure with a few
/// random short-range couplings per row — emulating the DNA
/// electrophoresis `cage` family (≈19 nnz/row, moderate bandwidth,
/// strong diagonal structure).
pub fn cage_like(n: usize, seed: u64) -> SparsePattern {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Diagonal offsets chosen like a 3-level chain (cage matrices come
    // from words over a small alphabet; transitions shift positions at
    // three scales).
    let w1 = (n as f64).powf(1.0 / 3.0).round().max(2.0) as i64;
    let w2 = w1 * w1;
    let offsets = [1i64, -1, w1, -w1, w2, -w2, w1 + 1, -(w1 + 1)];
    let mut entries: Vec<(u32, u32)> = Vec::with_capacity(n * 19);
    let window = (4 * w1).max(8);
    for i in 0..n as i64 {
        entries.push((i as u32, i as u32));
        for &o in &offsets {
            let j = i + o;
            if j >= 0 && j < n as i64 {
                entries.push((i as u32, j as u32));
            }
        }
        // ~5 random couplings within a local window on each side.
        for _ in 0..5 {
            let d = rng.gen_range(1..=window);
            let sign: bool = rng.gen();
            let j = if sign { i + d } else { i - d };
            if j >= 0 && j < n as i64 {
                entries.push((i as u32, j as u32));
                entries.push((j as u32, i as u32));
            }
        }
    }
    SparsePattern::from_entries(n, n, entries)
}

/// R-MAT scale-free graph (Chakrabarti et al. parameters `a,b,c,d`).
/// Approximately `n · avg_deg` off-diagonal entries, symmetrized.
pub fn rmat(n: usize, avg_deg: usize, probs: (f64, f64, f64, f64), seed: u64) -> SparsePattern {
    let (a, b, c, _d) = probs;
    assert!(n.is_power_of_two(), "R-MAT needs a power-of-two size");
    let levels = n.trailing_zeros();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let m = n * avg_deg / 2;
    let mut entries: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i)).collect();
    for _ in 0..m {
        let (mut r, mut cidx) = (0u32, 0u32);
        for lvl in 0..levels {
            let p: f64 = rng.gen();
            let (dr, dc) = if p < a {
                (0, 0)
            } else if p < a + b {
                (0, 1)
            } else if p < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            r |= dr << (levels - 1 - lvl);
            cidx |= dc << (levels - 1 - lvl);
        }
        if r != cidx {
            entries.push((r, cidx));
            entries.push((cidx, r));
        }
    }
    SparsePattern::from_entries(n, n, entries)
}

/// Erdős–Rényi-style random matrix with ≈`avg_deg` off-diagonal entries
/// per row, symmetrized.
pub fn erdos_renyi(n: usize, avg_deg: usize, seed: u64) -> SparsePattern {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut entries: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i)).collect();
    let m = n * avg_deg / 2;
    for _ in 0..m {
        let i = rng.gen_range(0..n as u32);
        let j = rng.gen_range(0..n as u32);
        if i != j {
            entries.push((i, j));
            entries.push((j, i));
        }
    }
    SparsePattern::from_entries(n, n, entries)
}

/// Banded random matrix: ≈`avg_deg` entries per row uniformly within
/// `±bandwidth` of the diagonal, symmetrized. Emulates reordered
/// structural-mechanics matrices.
pub fn banded_random(n: usize, bandwidth: usize, avg_deg: usize, seed: u64) -> SparsePattern {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let bw = bandwidth.max(1) as i64;
    let mut entries: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i)).collect();
    for i in 0..n as i64 {
        for _ in 0..avg_deg / 2 {
            let d = rng.gen_range(1..=bw);
            let sign: bool = rng.gen();
            let j = if sign { i + d } else { i - d };
            if j >= 0 && j < n as i64 {
                entries.push((i as u32, j as u32));
                entries.push((j as u32, i as u32));
            }
        }
    }
    SparsePattern::from_entries(n, n, entries)
}

/// FEM-style 2-D triangular mesh: structured grid with one diagonal per
/// cell, giving rows of degree ≈7 like assembled P1 stiffness matrices.
pub fn fem_mesh2d(nx: usize, ny: usize) -> SparsePattern {
    let n = nx * ny;
    let idx = |x: usize, y: usize| (y * nx + x) as u32;
    let mut entries = Vec::with_capacity(n * 7);
    for y in 0..ny {
        for x in 0..nx {
            let r = idx(x, y);
            entries.push((r, r));
            let mut link = |tx: isize, ty: isize| {
                if tx >= 0 && ty >= 0 && (tx as usize) < nx && (ty as usize) < ny {
                    let c = idx(tx as usize, ty as usize);
                    entries.push((r, c));
                    entries.push((c, r));
                }
            };
            link(x as isize + 1, y as isize);
            link(x as isize, y as isize + 1);
            // One diagonal per quad cell (the triangulation edge).
            link(x as isize + 1, y as isize + 1);
        }
    }
    SparsePattern::from_entries(n, n, entries)
}

/// Block matrix: `nblocks` dense-ish diagonal blocks with sparse random
/// coupling between consecutive blocks — emulating multiphysics /
/// circuit matrices.
pub fn block_coupled(
    nblocks: usize,
    block_size: usize,
    intra_deg: usize,
    coupling: usize,
    seed: u64,
) -> SparsePattern {
    let n = nblocks * block_size;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut entries: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i)).collect();
    for b in 0..nblocks {
        let base = (b * block_size) as u32;
        for i in 0..block_size as u32 {
            for _ in 0..intra_deg / 2 {
                let j = rng.gen_range(0..block_size as u32);
                if i != j {
                    entries.push((base + i, base + j));
                    entries.push((base + j, base + i));
                }
            }
        }
        if b + 1 < nblocks {
            let next = ((b + 1) * block_size) as u32;
            for _ in 0..coupling {
                let i = rng.gen_range(0..block_size as u32);
                let j = rng.gen_range(0..block_size as u32);
                entries.push((base + i, next + j));
                entries.push((next + j, base + i));
            }
        }
    }
    SparsePattern::from_entries(n, n, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use umpa_graph::Bfs;

    #[test]
    fn stencil2d_five_point_shape() {
        let p = stencil2d(4, 3, Stencil2D::FivePoint);
        assert_eq!(p.nrows(), 12);
        // Interior row has 5 entries, corner has 3.
        assert_eq!(p.row_nnz(5), 5); // (1,1) interior
        assert_eq!(p.row_nnz(0), 3);
        // Symmetric by construction.
        for (r, c) in p.entries() {
            assert!(p.contains(c, r));
        }
    }

    #[test]
    fn stencil3d_seven_point_interior_degree() {
        let p = stencil3d(3, 3, 3, Stencil3D::SevenPoint);
        assert_eq!(p.nrows(), 27);
        assert_eq!(p.row_nnz(13), 7); // center cell
        let p27 = stencil3d(3, 3, 3, Stencil3D::TwentySevenPoint);
        assert_eq!(p27.row_nnz(13), 27);
    }

    #[test]
    fn rgg_is_symmetric_and_mostly_connected() {
        let p = rgg(500, 0.08, 42);
        assert_eq!(p.nrows(), 500);
        for (r, c) in p.entries() {
            assert!(p.contains(c, r));
        }
        // With this density the giant component should dominate.
        let g = p.to_graph();
        let mut bfs = Bfs::new(g.num_vertices());
        let mut seen = vec![false; g.num_vertices()];
        let mut max = 0;
        for s in 0..g.num_vertices() as u32 {
            if seen[s as usize] {
                continue;
            }
            bfs.start([s]);
            let mut size = 0;
            while let Some(ev) = bfs.next(&g) {
                seen[ev.vertex as usize] = true;
                size += 1;
            }
            max = max.max(size);
        }
        assert!(max > 450, "giant component too small: {max}");
    }

    #[test]
    fn rgg_is_deterministic_per_seed() {
        assert_eq!(rgg(200, 0.1, 7), rgg(200, 0.1, 7));
        assert_ne!(rgg(200, 0.1, 7), rgg(200, 0.1, 8));
    }

    #[test]
    fn cage_like_density_resembles_cage_family() {
        let p = cage_like(4096, 1);
        let avg = p.avg_row_nnz();
        assert!((10.0..25.0).contains(&avg), "cage-like avg nnz/row = {avg}");
        for (r, c) in p.entries() {
            if r != c {
                // random couplings symmetrized, structural diagonals not
                // necessarily — just check entries stay in range
                assert!((c as usize) < p.ncols());
            }
        }
    }

    #[test]
    fn rmat_is_skewed() {
        let p = rmat(1024, 8, (0.57, 0.19, 0.19, 0.05), 3);
        let max_deg = (0..1024u32).map(|r| p.row_nnz(r)).max().unwrap();
        let avg = p.avg_row_nnz();
        assert!(
            max_deg as f64 > 4.0 * avg,
            "R-MAT should have hubs: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn banded_respects_bandwidth() {
        let p = banded_random(1000, 20, 6, 9);
        for (r, c) in p.entries() {
            assert!((i64::from(r) - i64::from(c)).abs() <= 20);
        }
    }

    #[test]
    fn fem_mesh_interior_degree_is_seven() {
        let p = fem_mesh2d(5, 5);
        assert_eq!(p.row_nnz(12), 7); // interior vertex of a triangulated grid
    }

    #[test]
    fn block_coupled_is_block_structured() {
        let p = block_coupled(4, 50, 8, 5, 17);
        assert_eq!(p.nrows(), 200);
        for (r, c) in p.entries() {
            let (br, bc) = (r / 50, c / 50);
            assert!(
                br == bc || br + 1 == bc || bc + 1 == br,
                "entry ({r},{c}) couples non-adjacent blocks"
            );
        }
    }

    #[test]
    fn erdos_renyi_hits_target_density() {
        let p = erdos_renyi(2000, 10, 5);
        let avg = p.avg_row_nnz();
        assert!((8.0..=12.0).contains(&avg), "avg = {avg}");
    }
}
