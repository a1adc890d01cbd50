//! CSR sparsity patterns.
//!
//! Every metric in the paper depends only on *which* entries are nonzero
//! (message existence and vector-entry counts), never on values, so the
//! matrix type stores structure alone: sorted, deduplicated column
//! indices per row.

use umpa_graph::{Graph, GraphBuilder};

/// A sparse matrix pattern in CSR form (square or rectangular).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparsePattern {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<u32>,
}

impl SparsePattern {
    /// Builds from an entry list; duplicates are merged, entries sorted.
    pub fn from_entries(
        nrows: usize,
        ncols: usize,
        entries: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let mut per_row: Vec<Vec<u32>> = vec![Vec::new(); nrows];
        for (r, c) in entries {
            debug_assert!((r as usize) < nrows && (c as usize) < ncols);
            per_row[r as usize].push(c);
        }
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0usize);
        let mut colidx = Vec::new();
        for row in &mut per_row {
            row.sort_unstable();
            row.dedup();
            colidx.extend_from_slice(row);
            rowptr.push(colidx.len());
        }
        Self {
            nrows,
            ncols,
            rowptr,
            colidx,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Column indices of row `r` (sorted).
    #[inline]
    pub fn row(&self, r: u32) -> &[u32] {
        &self.colidx[self.rowptr[r as usize]..self.rowptr[r as usize + 1]]
    }

    /// Number of nonzeros in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: u32) -> usize {
        self.rowptr[r as usize + 1] - self.rowptr[r as usize]
    }

    /// Whether entry `(r, c)` is present (binary search).
    pub fn contains(&self, r: u32, c: u32) -> bool {
        self.row(r).binary_search(&c).is_ok()
    }

    /// Iterates all `(row, col)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.nrows as u32).flat_map(move |r| self.row(r).iter().map(move |&c| (r, c)))
    }

    /// The transposed pattern.
    pub fn transpose(&self) -> Self {
        let mut cnt = vec![0usize; self.ncols];
        for &c in &self.colidx {
            cnt[c as usize] += 1;
        }
        let mut rowptr = vec![0usize; self.ncols + 1];
        for c in 0..self.ncols {
            rowptr[c + 1] = rowptr[c] + cnt[c];
        }
        let mut colidx = vec![0u32; self.nnz()];
        let mut next = rowptr.clone();
        for (r, c) in self.entries() {
            colidx[next[c as usize]] = r;
            next[c as usize] += 1;
        }
        Self {
            nrows: self.ncols,
            ncols: self.nrows,
            rowptr,
            colidx,
        }
    }

    /// Structural symmetrization `A ∪ Aᵀ` (square matrices only).
    pub fn symmetrized(&self) -> Self {
        assert_eq!(self.nrows, self.ncols, "symmetrize needs a square matrix");
        let t = self.transpose();
        let entries = self.entries().chain(t.entries());
        Self::from_entries(self.nrows, self.ncols, entries)
    }

    /// The standard graph model for 1-D row-wise partitioning: vertices
    /// are rows with weight = `1 + nnz(row)` (task load ∝ row nonzeros),
    /// undirected unit-weight edges for every off-diagonal structural
    /// nonzero of `A ∪ Aᵀ`.
    pub fn to_graph(&self) -> Graph {
        assert_eq!(self.nrows, self.ncols, "graph model needs a square matrix");
        let sym = self.symmetrized();
        let mut b = GraphBuilder::new(self.nrows);
        for (r, c) in sym.entries() {
            if r < c {
                b.add_edge(r, c, 1.0);
            }
        }
        b.vertex_weights(
            (0..self.nrows as u32)
                .map(|r| 1.0 + self.row_nnz(r) as f64)
                .collect(),
        );
        b.build_symmetric()
    }

    /// Mean nonzeros per row.
    pub fn avg_row_nnz(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparsePattern {
        // 3x3: (0,0) (0,2) (1,1) (2,0)
        SparsePattern::from_entries(3, 3, [(0, 0), (0, 2), (1, 1), (2, 0)])
    }

    #[test]
    fn from_entries_sorts_and_dedups() {
        let p = SparsePattern::from_entries(2, 3, [(0, 2), (0, 1), (0, 2), (1, 0)]);
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.row(0), &[1, 2]);
        assert_eq!(p.row(1), &[0]);
    }

    #[test]
    fn contains_checks_membership() {
        let p = small();
        assert!(p.contains(0, 2));
        assert!(!p.contains(2, 2));
    }

    #[test]
    fn transpose_flips_entries() {
        let p = small();
        let t = p.transpose();
        assert_eq!(t.nnz(), p.nnz());
        for (r, c) in p.entries() {
            assert!(t.contains(c, r));
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let p = small();
        assert_eq!(p.transpose().transpose(), p);
    }

    #[test]
    fn symmetrized_contains_both_directions() {
        let p = small();
        let s = p.symmetrized();
        assert!(s.contains(0, 2) && s.contains(2, 0));
        assert!(s.contains(0, 0)); // diagonal kept
        assert_eq!(s.nnz(), 4); // the pattern is already symmetric
    }

    #[test]
    fn graph_model_drops_diagonal_and_weights_rows() {
        let p = small();
        let g = p.to_graph();
        assert_eq!(g.num_vertices(), 3);
        // Only off-diagonal pair {0,2} -> symmetric edge both ways.
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.vertex_weight(0), 3.0); // 1 + 2 nnz
        assert_eq!(g.vertex_weight(1), 2.0);
    }

    #[test]
    fn rectangular_pattern_roundtrip() {
        let p = SparsePattern::from_entries(2, 4, [(0, 3), (1, 0), (1, 3)]);
        assert_eq!(p.nrows(), 2);
        assert_eq!(p.ncols(), 4);
        assert_eq!(p.transpose().nrows(), 4);
        assert_eq!(p.avg_row_nnz(), 1.5);
    }
}
