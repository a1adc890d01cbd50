//! Immutable CSR graphs and their builder.

/// An immutable graph in compressed sparse row form.
///
/// Vertices are dense `u32` ids. Every edge carries an `f64` weight
/// (communication volume for task graphs, bandwidth for topology
/// graphs); every vertex carries an `f64` weight (task load / node
/// capacity). Whether the graph is directed is a property of how it was
/// built — the structure itself just stores out-adjacency.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    xadj: Vec<usize>,
    adj: Vec<u32>,
    ewgt: Vec<f64>,
    vwgt: Vec<f64>,
}

impl Graph {
    /// A graph with `n` isolated unit-weight vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            xadj: vec![0; n + 1],
            adj: Vec::new(),
            ewgt: Vec::new(),
            vwgt: vec![1.0; n],
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of stored (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Neighbor ids of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Edge weights of `v`'s out-edges, parallel to [`Self::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: u32) -> &[f64] {
        &self.ewgt[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Iterates `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn edges(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_weights(v).iter().copied())
    }

    /// Iterates every stored edge as `(src, dst, weight)`.
    pub fn all_edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.num_vertices() as u32)
            .flat_map(move |u| self.edges(u).map(move |(v, w)| (u, v, w)))
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: u32) -> f64 {
        self.vwgt[v as usize]
    }

    /// All vertex weights.
    #[inline]
    pub fn vertex_weights(&self) -> &[f64] {
        &self.vwgt
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> f64 {
        self.vwgt.iter().sum()
    }

    /// Sum of all stored edge weights.
    pub fn total_edge_weight(&self) -> f64 {
        self.ewgt.iter().sum()
    }

    /// Sum of `v`'s out-edge weights.
    pub fn weighted_degree(&self, v: u32) -> f64 {
        self.edge_weights(v).iter().sum()
    }

    /// Looks up the weight of edge `(u, v)` by scanning `u`'s list.
    pub fn edge_weight_between(&self, u: u32, v: u32) -> Option<f64> {
        self.edges(u).find(|&(n, _)| n == v).map(|(_, w)| w)
    }

    /// Builds the symmetrized view of `self` (a directed graph) into
    /// `out` given its [`transpose`](GraphBuilder::transpose_into):
    /// row `u` is the sorted merge of `self`'s and `transpose`'s rows,
    /// weights of shared neighbors summed — `w{u,v} = w(u→v) + w(v→u)`,
    /// stored in both directions, exactly
    /// [`GraphBuilder::build_symmetric`]'s semantics without
    /// re-deduplicating the raw edge list. Vertex weights copy from
    /// `self`. A pure function of the two inputs (needs no builder
    /// scratch), allocation-free once `out` is warm.
    pub fn symmetrize_into(&self, transpose: &Graph, out: &mut Graph) {
        let n = self.num_vertices();
        debug_assert_eq!(transpose.num_vertices(), n);
        out.xadj.clear();
        out.xadj.resize(n + 1, 0);
        out.adj.clear();
        out.ewgt.clear();
        for u in 0..n as u32 {
            let (da, dw) = (self.neighbors(u), self.edge_weights(u));
            let (ta, tw) = (transpose.neighbors(u), transpose.edge_weights(u));
            let (mut i, mut j) = (0usize, 0usize);
            while i < da.len() || j < ta.len() {
                let (v, w) = if j >= ta.len() || (i < da.len() && da[i] < ta[j]) {
                    let e = (da[i], dw[i]);
                    i += 1;
                    e
                } else if i >= da.len() || ta[j] < da[i] {
                    let e = (ta[j], tw[j]);
                    j += 1;
                    e
                } else {
                    let e = (da[i], dw[i] + tw[j]);
                    i += 1;
                    j += 1;
                    e
                };
                out.adj.push(v);
                out.ewgt.push(w);
            }
            out.xadj[u as usize + 1] = out.adj.len();
        }
        out.vwgt.clear();
        out.vwgt.extend_from_slice(&self.vwgt);
    }

    /// Extracts the subgraph induced by `vertices` (edges with both
    /// endpoints inside). Returns the subgraph — whose vertex `i`
    /// corresponds to `vertices[i]` — so callers keep the id mapping.
    pub fn induced_subgraph(&self, vertices: &[u32]) -> Graph {
        let mut local = vec![u32::MAX; self.num_vertices()];
        for (i, &v) in vertices.iter().enumerate() {
            debug_assert!(local[v as usize] == u32::MAX, "duplicate vertex");
            local[v as usize] = i as u32;
        }
        let mut b = GraphBuilder::new(vertices.len());
        for (i, &v) in vertices.iter().enumerate() {
            for (n, w) in self.edges(v) {
                let ln = local[n as usize];
                if ln != u32::MAX {
                    b.add_edge(i as u32, ln, w);
                }
            }
        }
        b.vertex_weights(vertices.iter().map(|&v| self.vertex_weight(v)).collect());
        b.build_directed()
    }
}

/// Accumulates edge triplets and produces a [`Graph`].
///
/// Duplicate `(u, v)` entries are merged by summing weights; self-loops
/// are dropped (neither metric in the paper counts them — a task does
/// not message itself over the network). Adjacency lists come out in
/// ascending neighbor order.
///
/// The builder is **reusable**: [`reset`](Self::reset) clears it for a
/// new graph while keeping every internal buffer, and the
/// [`build_directed_into`](Self::build_directed_into) form rebuilds an
/// existing [`Graph`] in place. A warm builder/graph pair therefore
/// performs zero steady-state allocations — the contract the multilevel
/// coarsening hierarchy (DESIGN.md §12) is built on. Construction is
/// O(V + E + Σ deg·log deg) via a counting scatter with per-row
/// epoch-marked deduplication — no global edge sort.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32, f64)>,
    vwgt: Vec<f64>,
    has_vwgt: bool,
    // Build scratch (reused across builds; see the struct docs).
    cursor: Vec<usize>,
    mark: Vec<usize>,
    mark_epoch: Vec<u32>,
    epoch: u32,
    pairs: Vec<(u32, f64)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            ..Self::default()
        }
    }

    /// Clears the builder for a graph with `n` vertices, keeping every
    /// internal buffer (allocation-free once warm).
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.edges.clear();
        self.vwgt.clear();
        self.has_vwgt = false;
    }

    /// Number of vertices the final graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds a directed edge `(u, v)` with weight `w`.
    pub fn add_edge(&mut self, u: u32, v: u32, w: f64) -> &mut Self {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n);
        self.edges.push((u, v, w));
        self
    }

    /// Sets explicit vertex weights (defaults to all `1.0`).
    pub fn vertex_weights(&mut self, vwgt: Vec<f64>) -> &mut Self {
        assert_eq!(vwgt.len(), self.n);
        self.vwgt = vwgt;
        self.has_vwgt = true;
        self
    }

    /// Sets explicit vertex weights from an iterator, reusing the
    /// internal buffer (the allocation-free form of
    /// [`vertex_weights`](Self::vertex_weights)).
    pub fn set_vertex_weights_from(&mut self, vwgt: impl IntoIterator<Item = f64>) -> &mut Self {
        self.vwgt.clear();
        self.vwgt.extend(vwgt);
        assert_eq!(self.vwgt.len(), self.n);
        self.has_vwgt = true;
        self
    }

    /// Builds keeping edge directions (duplicates merged, loops dropped).
    pub fn build_directed(&mut self) -> Graph {
        let mut g = Graph::empty(0);
        self.build_into(&mut g, false);
        g
    }

    /// Builds the symmetrized graph: for every pair `{u, v}` the combined
    /// weight `w(u→v) + w(v→u)` is stored in both directions. This is the
    /// paper's symmetric view of `Gt` used by WH-driven algorithms.
    pub fn build_symmetric(&mut self) -> Graph {
        let mut g = Graph::empty(0);
        self.build_into(&mut g, true);
        g
    }

    /// [`build_directed`](Self::build_directed) into an existing graph,
    /// reusing its CSR buffers (allocation-free once warm).
    pub fn build_directed_into(&mut self, g: &mut Graph) {
        self.build_into(g, false);
    }

    /// Transposes `g` into `out` (edge `(u, v, w)` becomes `(v, u, w)`),
    /// reusing `out`'s CSR buffers and this builder's scratch. Rows come
    /// out in ascending neighbor order (the scatter walks sources in
    /// ascending order), and vertex weights are copied through — an
    /// O(V + E) alternative to re-accumulating the reversed edge list.
    pub fn transpose_into(&mut self, g: &Graph, out: &mut Graph) {
        let n = g.num_vertices();
        out.xadj.clear();
        out.xadj.resize(n + 1, 0);
        for &v in &g.adj {
            out.xadj[v as usize + 1] += 1;
        }
        for i in 0..n {
            out.xadj[i + 1] += out.xadj[i];
        }
        out.adj.clear();
        out.adj.resize(g.adj.len(), 0);
        out.ewgt.clear();
        out.ewgt.resize(g.ewgt.len(), 0.0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&out.xadj[..n]);
        for u in 0..n as u32 {
            for (v, w) in g.edges(u) {
                let c = &mut self.cursor[v as usize];
                out.adj[*c] = u;
                out.ewgt[*c] = w;
                *c += 1;
            }
        }
        out.vwgt.clear();
        out.vwgt.extend_from_slice(&g.vwgt);
    }

    /// Advances the per-row deduplication epoch, clearing the marks on
    /// wraparound (once per 2³² rows).
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.mark_epoch.iter_mut().for_each(|e| *e = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    fn build_into(&mut self, g: &mut Graph, symmetrize: bool) {
        let n = self.n;
        // Degree upper bounds (duplicates still counted, loops dropped).
        g.xadj.clear();
        g.xadj.resize(n + 1, 0);
        for &(u, v, _) in &self.edges {
            if u == v {
                continue;
            }
            g.xadj[u as usize + 1] += 1;
            if symmetrize {
                g.xadj[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            g.xadj[i + 1] += g.xadj[i];
        }
        let total = g.xadj[n];
        g.adj.clear();
        g.adj.resize(total, 0);
        g.ewgt.clear();
        g.ewgt.resize(total, 0.0);
        // Counting scatter into the provisional (duplicate-keeping) layout.
        self.cursor.clear();
        self.cursor.extend_from_slice(&g.xadj[..n]);
        for &(u, v, w) in &self.edges {
            if u == v {
                continue;
            }
            let c = &mut self.cursor[u as usize];
            g.adj[*c] = v;
            g.ewgt[*c] = w;
            *c += 1;
            if symmetrize {
                let c = &mut self.cursor[v as usize];
                g.adj[*c] = u;
                g.ewgt[*c] = w;
                *c += 1;
            }
        }
        // Per-row dedup (epoch-marked accumulator), in-place compaction,
        // then ascending neighbor order within each row.
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.mark_epoch.resize(n, 0);
        }
        let mut write = 0usize;
        for u in 0..n {
            let epoch = self.next_epoch();
            let row_start = write;
            for p in g.xadj[u]..g.xadj[u + 1] {
                let v = g.adj[p];
                let w = g.ewgt[p];
                if self.mark_epoch[v as usize] == epoch {
                    g.ewgt[self.mark[v as usize]] += w;
                } else {
                    self.mark_epoch[v as usize] = epoch;
                    self.mark[v as usize] = write;
                    g.adj[write] = v;
                    g.ewgt[write] = w;
                    write += 1;
                }
            }
            self.pairs.clear();
            self.pairs.extend(
                g.adj[row_start..write]
                    .iter()
                    .copied()
                    .zip(g.ewgt[row_start..write].iter().copied()),
            );
            self.pairs.sort_unstable_by_key(|p| p.0);
            for (i, &(v, w)) in self.pairs.iter().enumerate() {
                g.adj[row_start + i] = v;
                g.ewgt[row_start + i] = w;
            }
            // Reuse `cursor` to record the deduplicated row ends.
            self.cursor[u] = write;
        }
        g.adj.truncate(write);
        g.ewgt.truncate(write);
        for u in 0..n {
            g.xadj[u + 1] = self.cursor[u];
        }
        g.vwgt.clear();
        if self.has_vwgt {
            assert_eq!(self.vwgt.len(), n);
            g.vwgt.extend_from_slice(&self.vwgt);
        } else {
            g.vwgt.resize(n, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> GraphBuilder {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2.0)
            .add_edge(1, 2, 3.0)
            .add_edge(2, 0, 4.0);
        b
    }

    #[test]
    fn directed_build_keeps_direction() {
        let g = triangle().build_directed();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.edge_weight_between(2, 0), Some(4.0));
        assert_eq!(g.edge_weight_between(0, 2), None);
    }

    #[test]
    fn symmetric_build_mirrors_and_sums() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2.0)
            .add_edge(1, 0, 5.0)
            .add_edge(1, 2, 1.0);
        let g = b.build_symmetric();
        // 0<->1 combined weight 7, 1<->2 combined weight 1.
        assert_eq!(g.edge_weight_between(0, 1), Some(7.0));
        assert_eq!(g.edge_weight_between(1, 0), Some(7.0));
        assert_eq!(g.edge_weight_between(2, 1), Some(1.0));
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn duplicates_merge_and_loops_drop() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0)
            .add_edge(0, 1, 2.5)
            .add_edge(0, 0, 99.0);
        let g = b.build_directed();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight_between(0, 1), Some(3.5));
    }

    #[test]
    fn vertex_weights_default_and_explicit() {
        let g = triangle().build_directed();
        assert_eq!(g.vertex_weight(1), 1.0);
        assert_eq!(g.total_vertex_weight(), 3.0);
        let mut b = triangle();
        b.vertex_weights(vec![2.0, 3.0, 4.0]);
        let g = b.build_directed();
        assert_eq!(g.total_vertex_weight(), 9.0);
    }

    #[test]
    fn empty_graph_has_isolated_vertices() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(3).is_empty());
    }

    #[test]
    fn all_edges_enumerates_everything() {
        let g = triangle().build_directed();
        let edges: Vec<_> = g.all_edges().collect();
        assert_eq!(edges, vec![(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0)
            .add_edge(1, 2, 2.0)
            .add_edge(2, 3, 3.0)
            .add_edge(3, 4, 4.0);
        b.vertex_weights(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let g = b.build_symmetric();
        let sub = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(sub.num_vertices(), 3);
        // Only the 1-2 edge survives (3 links 2 and 4 but is excluded).
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(sub.edge_weight_between(0, 1), Some(2.0));
        assert_eq!(sub.vertex_weight(2), 5.0);
    }

    #[test]
    fn weighted_degree_sums_out_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2.0).add_edge(0, 2, 3.0);
        let g = b.build_directed();
        assert_eq!(g.weighted_degree(0), 5.0);
        assert_eq!(g.weighted_degree(1), 0.0);
    }
}
