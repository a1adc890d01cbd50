//! Frozen reference: the failure-masked rebuild as it stood before
//! masked route rows were built on demand (`fault::build_masked`).
//!
//! One BFS per terminal source over the surviving links fills that
//! source's row of the hop table and its forward route row, walked back
//! along the BFS parents; the reverse rows are the transpose of the
//! forward ones. It is written against the public `Topology` API, so
//! it ships in no production crate; only the masked differential test
//! includes it.
//!
//! One departure from the original: forward rows are kept only for the
//! sources `keep` accepts, so a Hopper-sized check holds a few rows
//! rather than the ≈ 0.5 GiB of every route. The hop table is always
//! complete, and a kept row is the one the original built.

use umpa::topology::Topology;

/// Router adjacency over surviving links, annotated with the channel
/// id each traversal direction uses.
struct MaskedAdjacency {
    offsets: Vec<u32>,
    nbr: Vec<u32>,
    chan: Vec<u32>,
}

impl MaskedAdjacency {
    /// Builds the adjacency from the topology's link enumeration,
    /// skipping links whose health `factor` is zero.
    fn build(topo: &Topology, factor: &[f64]) -> Self {
        let n = topo.num_routers();
        let mut deg = vec![0u32; n];
        topo.for_each_link(|l, a, b, _| {
            if factor[l as usize] > 0.0 {
                deg[a as usize] += 1;
                deg[b as usize] += 1;
            }
        });
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let total = offsets[n] as usize;
        let mut nbr = vec![0u32; total];
        let mut chan = vec![0u32; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        topo.for_each_link(|l, a, b, _| {
            if factor[l as usize] > 0.0 {
                for (from, to, reversed) in [(a, b, false), (b, a, true)] {
                    let i = cursor[from as usize] as usize;
                    cursor[from as usize] += 1;
                    nbr[i] = to;
                    chan[i] = Topology::channel(l, reversed);
                }
            }
        });
        Self { offsets, nbr, chan }
    }

    fn edges(&self, r: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.offsets[r as usize] as usize;
        let hi = self.offsets[r as usize + 1] as usize;
        self.nbr[lo..hi]
            .iter()
            .copied()
            .zip(self.chan[lo..hi].iter().copied())
    }
}

/// One router's routes to or from every terminal router, in CSR form.
pub struct Row {
    offsets: Vec<u32>,
    links: Vec<u32>,
}

impl Row {
    /// Builds router `own`'s row over peers `0..n`; `route(x, links)`
    /// appends the route to or from peer `x` (not called for `own`).
    fn build(n: usize, own: u32, mut route: impl FnMut(u32, &mut Vec<u32>)) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut links = Vec::new();
        offsets.push(0);
        for x in 0..n as u32 {
            if x != own {
                route(x, &mut links);
            }
            offsets.push(links.len() as u32);
        }
        Self { offsets, links }
    }

    /// The channel ids of the route to or from peer `x`.
    pub fn route(&self, x: u32) -> &[u32] {
        &self.links[self.offsets[x as usize] as usize..self.offsets[x as usize + 1] as usize]
    }
}

/// The masked hop table and the kept forward rows.
pub struct MaskedProducts {
    /// Number of terminal routers.
    pub n: usize,
    /// Row-major `n × n` hop counts (`u16::MAX` = cut off).
    pub table: Vec<u16>,
    /// Forward routes per source terminal router; `None` where not kept.
    pub rows_from: Vec<Option<Row>>,
}

impl MaskedProducts {
    /// The kept forward row of source `a`.
    pub fn row_from(&self, a: u32) -> &Row {
        self.rows_from[a as usize]
            .as_ref()
            .expect("forward row was not kept")
    }

    /// Reverse routes into `b`: the transpose of the forward rows, so
    /// every source must have been kept.
    pub fn row_to(&self, b: u32) -> Row {
        Row::build(self.n, b, |a, links| {
            links.extend_from_slice(self.row_from(a).route(b));
        })
    }
}

/// Runs the per-source BFS sweep over the links with a non-zero health
/// `factor`, keeping the forward rows of the sources `keep` accepts.
pub fn build_masked(topo: &Topology, factor: &[f64], keep: impl Fn(u32) -> bool) -> MaskedProducts {
    let n_all = topo.num_routers();
    let n = topo.num_terminal_routers();
    assert!(n_all < u16::MAX as usize);
    let adj = MaskedAdjacency::build(topo, factor);
    let mut table = vec![u16::MAX; n * n];
    let mut rows_from = Vec::with_capacity(n);
    let mut dist = vec![u32::MAX; n_all];
    let mut par_chan = vec![u32::MAX; n_all];
    let mut par = vec![u32::MAX; n_all];
    let mut queue = Vec::with_capacity(n_all);
    for s in 0..n as u32 {
        dist.fill(u32::MAX);
        queue.clear();
        dist[s as usize] = 0;
        queue.push(s);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            let dv = dist[v as usize];
            for (w, c) in adj.edges(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dv + 1;
                    par[w as usize] = v;
                    par_chan[w as usize] = c;
                    queue.push(w);
                }
            }
        }
        let row = &mut table[s as usize * n..(s as usize + 1) * n];
        for (d, slot) in row.iter_mut().enumerate() {
            let h = dist[d];
            *slot = if h == u32::MAX { u16::MAX } else { h as u16 };
        }
        // Walk the parent chain (channel ids back to front), then
        // reverse the just-appended segment in place.
        rows_from.push(keep(s).then(|| {
            Row::build(n, s, |d, links| {
                if dist[d as usize] != u32::MAX {
                    let start = links.len();
                    let mut v = d;
                    while v != s {
                        links.push(par_chan[v as usize]);
                        v = par[v as usize];
                    }
                    links[start..].reverse();
                }
            })
        }));
    }
    MaskedProducts {
        n,
        table,
        rows_from,
    }
}
