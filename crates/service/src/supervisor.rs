//! The churn-drift supervisor.
//!
//! Frontier-local repair is fast but only locally optimal: each repair
//! leaves a little WH on the table, and under *sustained* churn the
//! live mapping drifts away from what a from-scratch map of the
//! current (post-churn) machine would achieve — the PR-6 caveat. The
//! supervisor closes it: every `CHECK_EVERY` repairs (or on demand) it
//! compares the live mapping's WH against a cached from-scratch
//! baseline — refreshed only when the fault state or allocation
//! actually changed, detected via
//! [`FaultSnapshot`](umpa_topology::FaultSnapshot) equality — and when
//! drift exceeds `MAX_DRIFT` it polishes the live mapping in place
//! (full WH refinement, then a congestion polish). If polish alone
//! cannot close the gap it adopts the baseline mapping outright,
//! restoring the bound by construction. When greedy cannot place the
//! job on the current machine there is no baseline: the check is
//! skipped and the live mapping kept.

use umpa_core::greedy::weighted_hops;
use umpa_core::{
    congestion_refine_scratch, greedy_map_into, wh_refine_scratch, MapperScratch, PipelineConfig,
};
use umpa_graph::TaskGraph;
use umpa_topology::{Allocation, FaultSnapshot, Machine};

use crate::request::RepairReport;

/// Tolerated live-vs-baseline WH drift (15 %).
const MAX_DRIFT: f64 = 0.15;

/// Repairs between drift checks. The check may cost a from-scratch
/// baseline re-map, so it is rationed.
const CHECK_EVERY: u32 = 16;

/// Cached from-scratch reference mapping for the current machine
/// state.
#[derive(Debug)]
struct Baseline {
    /// Fault state the baseline was computed under.
    snapshot: FaultSnapshot,
    /// Allocation membership the baseline was computed under.
    alloc_nodes: Vec<u32>,
    /// Baseline weighted hops.
    wh: f64,
    /// Baseline mapping (adopted when polish cannot close the gap).
    mapping: Vec<u32>,
}

/// Drift-supervisor state for one resident job.
#[derive(Debug, Default)]
pub(crate) struct Supervisor {
    repairs_since_check: u32,
    baseline: Option<Baseline>,
}

impl Supervisor {
    /// Repairs since the last drift check — the only supervisor state
    /// that must survive a crash. The baseline cache is deliberately
    /// *not* persisted: it is a deterministic function of the fault
    /// state and allocation it is keyed on, so recovery recomputes it
    /// on demand and lands on bit-identical check outcomes.
    pub(crate) fn repairs_since_check(&self) -> u32 {
        self.repairs_since_check
    }

    /// Rebuilds supervisor state from a recovery snapshot (empty
    /// baseline cache, see [`Supervisor::repairs_since_check`]).
    pub(crate) fn restored(repairs_since_check: u32) -> Self {
        Supervisor {
            repairs_since_check,
            baseline: None,
        }
    }

    /// Called after each successful repair (and by `polish_now` with
    /// `force`). Rations the drift check to every `CHECK_EVERY`
    /// repairs; a partial (infeasible) mapping is never checked — there
    /// is no full placement to compare. Writes what the pass did into
    /// `report`'s `drift_checked`, `polished` and `adopted_baseline`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn after_repair(
        &mut self,
        pipeline: &PipelineConfig,
        tasks: &TaskGraph,
        machine: &Machine,
        alloc: &Allocation,
        mapping: &mut [u32],
        scratch: &mut MapperScratch,
        force: bool,
        report: &mut RepairReport,
    ) {
        self.repairs_since_check += 1;
        if !force && self.repairs_since_check < CHECK_EVERY {
            return;
        }
        if mapping.contains(&u32::MAX) {
            return;
        }
        self.repairs_since_check = 0;

        // Refresh the baseline only when the machine/allocation it was
        // computed under has changed — a from-scratch map is the
        // expensive part of the check.
        let snapshot = machine.fault_snapshot();
        let fresh = matches!(
            &self.baseline,
            Some(b) if b.snapshot == snapshot && b.alloc_nodes == alloc.nodes()
        );
        if !fresh {
            let mut base_map = self.baseline.take().map(|b| b.mapping).unwrap_or_default();
            let placed = greedy_map_into(
                tasks,
                machine,
                alloc,
                &pipeline.greedy,
                &mut scratch.greedy,
                &mut base_map,
            );
            if placed.is_none() {
                // Greedy cannot pack the job on this machine state: no
                // baseline, so the live mapping stays unchecked.
                return;
            }
            wh_refine_scratch(
                tasks,
                machine,
                alloc,
                &mut base_map,
                &pipeline.wh,
                &mut scratch.wh,
            );
            self.baseline = Some(Baseline {
                snapshot,
                alloc_nodes: alloc.nodes().to_vec(),
                wh: weighted_hops(tasks, machine, &base_map),
                mapping: base_map,
            });
        }
        let Some(base) = &self.baseline else {
            return;
        };

        report.drift_checked = true;
        let bound = base.wh * (1.0 + MAX_DRIFT);
        if weighted_hops(tasks, machine, mapping) <= bound {
            return;
        }

        // Over the bound: polish the live mapping in place.
        report.polished = true;
        wh_refine_scratch(
            tasks,
            machine,
            alloc,
            mapping,
            &pipeline.wh,
            &mut scratch.wh,
        );
        congestion_refine_scratch(
            tasks,
            machine,
            alloc,
            mapping,
            &pipeline.cong_volume,
            &mut scratch.cong,
        );
        if weighted_hops(tasks, machine, mapping) <= bound {
            return;
        }

        // Polish could not close the gap: adopt the baseline, which
        // satisfies the bound by construction (its WH *is* the
        // reference).
        mapping.copy_from_slice(&base.mapping);
        report.adopted_baseline = true;
    }
}
