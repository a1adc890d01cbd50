//! [`MapperScratch`] — the reusable workspace of the mapping engine.
//!
//! Every hot-path algorithm (Algorithm 1 greedy growth, Algorithm 2 WH
//! refinement, Algorithm 3 congestion refinement) owns per-run buffers:
//! BFS queues and visit marks, indexed heaps, capacity vectors, slot
//! residency registries, routing and delta accumulators. Allocating
//! them per call dominates small-problem runtimes and defeats the
//! paper's headline speed claim. A [`MapperScratch`] owns all of them;
//! threading one warm scratch through
//! [`map_tasks_with`](crate::pipeline::map_tasks_with) makes the
//! steady-state mapping phase allocation-free — buffers grow to the
//! high-water mark of the problems seen and are then reused verbatim.
//!
//! Buffers are sized lazily: a scratch built for one machine/task-graph
//! shape serves any other shape (everything `reset`s on entry), so one
//! long-lived scratch per worker thread is the intended usage.

use crate::cong_refine::CongScratch;
use crate::greedy::GreedyScratch;
use crate::multilevel::MultilevelScratch;
use crate::remap::RemapScratch;
use crate::wh_refine::WhScratch;

/// Owns every per-run buffer of the mapping engine. See the module
/// docs; create one per worker thread and reuse it across requests.
#[derive(Default)]
pub struct MapperScratch {
    /// Algorithm 1 buffers.
    pub greedy: GreedyScratch,
    /// Algorithm 2 buffers.
    pub wh: WhScratch,
    /// Algorithm 3 buffers.
    pub cong: CongScratch,
    /// Multilevel coarsen–map–refine hierarchy and matching buffers.
    pub multilevel: MultilevelScratch,
    /// Incremental-remap repair buffers.
    pub remap: RemapScratch,
    /// Coarse-mapping buffer shared by the pipeline's phase 2.
    pub(crate) coarse: Vec<u32>,
}

impl MapperScratch {
    /// Creates an empty scratch; every buffer is sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
