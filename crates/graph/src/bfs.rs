//! Multi-source BFS with a reusable, `O(1)`-reset workspace.
//!
//! Every `GETBESTNODE` call in Algorithm 1 and every candidate search in
//! Algorithms 2–3 is "a BFS on `Gm` from a seed set, consumed in level
//! order, aborted early". [`Bfs`] owns the queue and visit marks and is
//! driven as a pull-style iterator so callers can stop at any vertex or
//! at a level boundary without paying for the rest of the traversal.

use umpa_ds::EpochMarker;

use crate::csr::Graph;

/// One BFS step: a newly visited vertex and its level (sources are 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsEvent {
    /// The visited vertex.
    pub vertex: u32,
    /// BFS distance from the nearest source.
    pub level: u32,
}

/// Reusable multi-source BFS engine over any [`Graph`].
pub struct Bfs {
    queue: Vec<(u32, u32)>,
    head: usize,
    visited: EpochMarker,
}

impl Default for Bfs {
    /// An empty workspace; grow it with [`ensure`](Self::ensure).
    fn default() -> Self {
        Self::new(0)
    }
}

impl Bfs {
    /// Creates a workspace for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            queue: Vec::with_capacity(n),
            head: 0,
            visited: EpochMarker::new(n),
        }
    }

    /// Grows the workspace to cover graphs with up to `n` vertices
    /// (never shrinks); allocation-free when already large enough. Lets
    /// one warm engine serve machines and task graphs of any size.
    pub fn ensure(&mut self, n: usize) {
        self.visited.ensure_len(n);
        if self.queue.capacity() < n {
            self.queue.reserve(n - self.queue.len());
        }
    }

    /// Starts a new traversal from `sources` (level 0, duplicates
    /// ignored). Any traversal in flight is abandoned.
    pub fn start(&mut self, sources: impl IntoIterator<Item = u32>) {
        self.queue.clear();
        self.head = 0;
        self.visited.reset();
        for s in sources {
            if !self.visited.mark(s as usize) {
                self.queue.push((s, 0));
            }
        }
    }

    /// Advances one vertex in level order, expanding its neighbors.
    ///
    /// Returns `None` when the reachable set is exhausted. The sources
    /// themselves are yielded first (level 0).
    pub fn next(&mut self, g: &Graph) -> Option<BfsEvent> {
        if self.head >= self.queue.len() {
            return None;
        }
        let (v, level) = self.queue[self.head];
        self.head += 1;
        for &n in g.neighbors(v) {
            if !self.visited.mark(n as usize) {
                self.queue.push((n, level + 1));
            }
        }
        Some(BfsEvent { vertex: v, level })
    }

    /// Like [`next`](Self::next), but expands the popped vertex's
    /// neighbors only when its level is strictly below `cap`.
    ///
    /// For a consumer that stops at the end of level `cap` this yields
    /// exactly the same event sequence as [`next`](Self::next) — the
    /// suppressed children would all sit at levels `> cap` and are
    /// never popped — while skipping the neighbor scans of the final
    /// level. Mixing the two steppers in one traversal is fine as long
    /// as `cap` never decreases below a level already expanded.
    pub fn next_capped(&mut self, g: &Graph, cap: u32) -> Option<BfsEvent> {
        if self.head >= self.queue.len() {
            return None;
        }
        let (v, level) = self.queue[self.head];
        self.head += 1;
        if level < cap {
            for &n in g.neighbors(v) {
                if !self.visited.mark(n as usize) {
                    self.queue.push((n, level + 1));
                }
            }
        }
        Some(BfsEvent { vertex: v, level })
    }

    /// Whether `v` has been visited in the current traversal.
    #[inline]
    pub fn was_visited(&self, v: u32) -> bool {
        self.visited.is_marked(v as usize)
    }

    /// Collects every `(vertex, level)` reachable from `sources`.
    #[cfg(test)]
    fn levels_from(&mut self, g: &Graph, sources: impl IntoIterator<Item = u32>) -> Vec<BfsEvent> {
        self.start(sources);
        let mut out = Vec::new();
        while let Some(ev) = self.next(g) {
            out.push(ev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;

    /// 0-1-2-3 path plus isolated 4.
    fn path4() -> Graph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 3, 1.0);
        b.build_symmetric()
    }

    #[test]
    fn single_source_levels() {
        let g = path4();
        let mut bfs = Bfs::new(5);
        let evs = bfs.levels_from(&g, [0]);
        let lv: Vec<(u32, u32)> = evs.iter().map(|e| (e.vertex, e.level)).collect();
        assert_eq!(lv, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert!(!bfs.was_visited(4));
    }

    #[test]
    fn multi_source_takes_min_level() {
        let g = path4();
        let mut bfs = Bfs::new(5);
        let evs = bfs.levels_from(&g, [0, 3]);
        let level_of = |v: u32| evs.iter().find(|e| e.vertex == v).unwrap().level;
        assert_eq!(level_of(1), 1);
        assert_eq!(level_of(2), 1);
    }

    #[test]
    fn farthest_vertex_on_path() {
        // Level order ends at a vertex farthest from the sources.
        let g = path4();
        let mut bfs = Bfs::new(5);
        let far = *bfs.levels_from(&g, [0]).last().unwrap();
        assert_eq!((far.vertex, far.level), (3, 3));
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = path4();
        let mut bfs = Bfs::new(5);
        bfs.levels_from(&g, [0]);
        let evs = bfs.levels_from(&g, [3]);
        assert_eq!(evs[0].vertex, 3);
        assert_eq!(evs.last().unwrap().vertex, 0);
        assert_eq!(evs.last().unwrap().level, 3);
    }

    #[test]
    fn early_exit_leaves_engine_restartable() {
        let g = path4();
        let mut bfs = Bfs::new(5);
        bfs.start([0]);
        assert_eq!(bfs.next(&g).unwrap().vertex, 0);
        // Abandon mid-flight, restart elsewhere.
        bfs.start([2]);
        let all: Vec<u32> = std::iter::from_fn(|| bfs.next(&g).map(|e| e.vertex)).collect();
        assert_eq!(all, vec![2, 1, 3, 0]);
    }

    #[test]
    fn duplicate_sources_are_deduped() {
        let g = path4();
        let mut bfs = Bfs::new(5);
        let evs = bfs.levels_from(&g, [1, 1, 1]);
        assert_eq!(evs.iter().filter(|e| e.vertex == 1).count(), 1);
    }

    #[test]
    fn capped_stepper_matches_next_up_to_the_cap() {
        // Star-of-paths: compare full vs capped event streams through
        // the end of level 2, where the capped run must be identical.
        let mut b = GraphBuilder::new(8);
        b.add_edge(0, 1, 1.0)
            .add_edge(0, 2, 1.0)
            .add_edge(1, 3, 1.0)
            .add_edge(2, 4, 1.0)
            .add_edge(3, 5, 1.0)
            .add_edge(4, 6, 1.0)
            .add_edge(5, 7, 1.0);
        let g = b.build_symmetric();
        let mut full = Bfs::new(8);
        full.start([0]);
        let mut a = Vec::new();
        while let Some(ev) = full.next(&g) {
            if ev.level > 2 {
                break;
            }
            a.push(ev);
        }
        let mut capped = Bfs::new(8);
        capped.start([0]);
        let mut c = Vec::new();
        while let Some(ev) = capped.next_capped(&g, 2) {
            if ev.level > 2 {
                break;
            }
            c.push(ev);
        }
        assert_eq!(a, c);
        // And the capped engine never enqueued level-3 vertices.
        assert!(!capped.was_visited(5));
        assert!(!capped.was_visited(6));
    }

    #[test]
    fn capped_at_zero_yields_sources_only() {
        let g = path4();
        let mut bfs = Bfs::new(5);
        bfs.start([1, 2]);
        let mut seen = Vec::new();
        while let Some(ev) = bfs.next_capped(&g, 0) {
            seen.push((ev.vertex, ev.level));
        }
        assert_eq!(seen, vec![(1, 0), (2, 0)]);
        assert!(!bfs.was_visited(0));
        assert!(!bfs.was_visited(3));
    }

    #[test]
    fn distances_helper_matches_levels() {
        // Levels from an interior source are hop distances; the
        // isolated vertex is never reached.
        let g = path4();
        let mut bfs = Bfs::new(5);
        let evs = bfs.levels_from(&g, [1]);
        let level_of = |v: u32| evs.iter().find(|e| e.vertex == v).map(|e| e.level);
        assert_eq!(level_of(0), Some(1));
        assert_eq!(level_of(3), Some(2));
        assert_eq!(level_of(4), None);
    }
}
