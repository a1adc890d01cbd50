//! The greedy family's phase 2, written once: one greedy placement
//! (Algorithm 1), then at most one refinement picked by kind — none for
//! `UG`, Algorithm 2 for `UWH`, Algorithm 3 on volume for `UMC` and on
//! message counts for `UMMC`. The direct pipeline runs
//! [`greedy_then_refine`] on the phase-1 quotient graph; the multilevel
//! engine runs it on its coarsest level, then [`refine`] alone, under
//! per-level budgets, on every level on the way back up.

use umpa_graph::TaskGraph;
use umpa_topology::{Allocation, Machine};

use crate::cong_refine::{congestion_refine_scratch, CongRefineConfig, CongScratch};
use crate::greedy::{greedy_map_into, GreedyScratch};
use crate::pipeline::{MapperKind, PipelineConfig};
use crate::wh_refine::{wh_refine_scratch, WhRefineConfig, WhScratch};

/// The refinement settings a greedy-family kind picks from.
#[derive(Clone, Copy)]
pub(crate) struct Refinements {
    /// Algorithm 2 (`UWH`).
    pub(crate) wh: WhRefineConfig,
    /// Algorithm 3 on volume (`UMC`).
    pub(crate) cong_volume: CongRefineConfig,
    /// Algorithm 3 on message counts (`UMMC`).
    pub(crate) cong_messages: CongRefineConfig,
}

/// Greedy-family phase 2: Algorithm 1 on the volume graph `vol` into
/// `out`, then the kind's one refinement at the pipeline's full budget.
/// `cnt` is the message-count view of the same graph; only `UMMC`
/// reads it. Allocation-free once the scratches and `out` are warm.
/// Panics when greedy cannot place every task: the one such site of the
/// entry points that return a plain mapping (the service catches it).
#[allow(clippy::too_many_arguments)]
pub(crate) fn greedy_then_refine(
    kind: MapperKind,
    vol: &TaskGraph,
    cnt: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    cfg: &PipelineConfig,
    greedy: &mut GreedyScratch,
    wh: &mut WhScratch,
    cong: &mut CongScratch,
    out: &mut Vec<u32>,
) {
    if greedy_map_into(vol, machine, alloc, &cfg.greedy, greedy, out).is_none() {
        panic!("greedy could not place every task on the allocation");
    }
    let full = Refinements {
        wh: cfg.wh,
        cong_volume: cfg.cong_volume,
        cong_messages: cfg.cong_messages,
    };
    refine(kind, vol, cnt, machine, alloc, out, &full, wh, cong);
}

/// Runs `kind`'s one refinement on `mapping` (none for `UG`). `UMMC`
/// refines on the message-count view `cnt`, every other kind on `vol`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine(
    kind: MapperKind,
    vol: &TaskGraph,
    cnt: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    mapping: &mut [u32],
    budgets: &Refinements,
    wh: &mut WhScratch,
    cong: &mut CongScratch,
) {
    match kind {
        MapperKind::GreedyWh => {
            wh_refine_scratch(vol, machine, alloc, mapping, &budgets.wh, wh);
        }
        MapperKind::GreedyMc => {
            congestion_refine_scratch(vol, machine, alloc, mapping, &budgets.cong_volume, cong);
        }
        MapperKind::GreedyMmc => {
            congestion_refine_scratch(cnt, machine, alloc, mapping, &budgets.cong_messages, cong);
        }
        _ => {}
    }
}
