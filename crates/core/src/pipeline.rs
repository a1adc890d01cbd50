//! The two-phase mapping pipeline of Section III-A.
//!
//! Phase 1 (common preprocessing): the fine MPI task graph is
//! partitioned into `|Va|` node groups — METIS's role in the paper —
//! with target weights equal to each node's processor count, and the
//! balance is fixed exactly with a single FM iteration so every group
//! fits its node. Phase 2 (the mapper under test): the coarse group
//! graph is mapped onto the allocated nodes by one of `DEF`, `TMAP`,
//! `SMAP`, `UG`, `UWH`, `UMC`, `UMMC`. The composed fine mapping is what
//! the metrics and simulators consume.
//!
//! Timing: `elapsed` covers phase 2 only — the paper's Figure 3 measures
//! mapping-algorithm time, with the partitioning phase shared by all
//! methods (and the refinement variants' time including the `UG` run
//! they start from).
//!
//! Serving shape: [`map_tasks_with`] threads a warm [`MapperScratch`]
//! through phase 2 so its hot path is allocation-free; a server keeps
//! one scratch per worker thread and maps each request on it.

use std::time::{Duration, Instant};

use umpa_graph::TaskGraph;
use umpa_partition::{fix_balance, recursive_bisection, MlConfig};
use umpa_topology::{Allocation, Machine};

use crate::baselines::{def_groups, def_mapping, smap_mapping, tmap_mapping};
use crate::cong_refine::CongRefineConfig;
use crate::greedy::GreedyConfig;
use crate::metrics::evaluate;
use crate::multilevel::{multilevel_map_into, MultilevelConfig};
use crate::phase2::greedy_then_refine;
use crate::scratch::MapperScratch;
use crate::wh_refine::{wh_refine_scratch, WhRefineConfig};

/// Seed of the `TMAP` and `SMAP` baselines' randomized bisections.
const BASELINE_SEED: u64 = 1;

/// The seven mapping algorithms of Figure 2, in the paper's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MapperKind {
    /// Hopper's default SMP-style placement.
    Def,
    /// LibTopoMap (best variant) with the DEF fallback rule.
    Tmap,
    /// Scotch-style dual recursive bipartitioning.
    Smap,
    /// Algorithm 1 (greedy, `UG`).
    Greedy,
    /// Algorithm 1 + Algorithm 2 (`UWH`).
    GreedyWh,
    /// Algorithm 1 + Algorithm 3 on volume congestion (`UMC`).
    GreedyMc,
    /// Algorithm 1 + Algorithm 3 on message congestion (`UMMC`).
    GreedyMmc,
}

impl MapperKind {
    /// All mappers in Figure 2's display order (D, T, S, G, WH, MC, MMC).
    pub fn all() -> [MapperKind; 7] {
        [
            MapperKind::Def,
            MapperKind::Tmap,
            MapperKind::Smap,
            MapperKind::Greedy,
            MapperKind::GreedyWh,
            MapperKind::GreedyMc,
            MapperKind::GreedyMmc,
        ]
    }

    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            MapperKind::Def => "DEF",
            MapperKind::Tmap => "TMAP",
            MapperKind::Smap => "SMAP",
            MapperKind::Greedy => "UG",
            MapperKind::GreedyWh => "UWH",
            MapperKind::GreedyMc => "UMC",
            MapperKind::GreedyMmc => "UMMC",
        }
    }
}

/// Pipeline configuration (paper defaults).
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Node-grouping partitioner settings (the "METIS" phase).
    pub ml: MlConfig,
    /// Algorithm 1 settings.
    pub greedy: GreedyConfig,
    /// Algorithm 2 settings.
    pub wh: WhRefineConfig,
    /// Algorithm 3 settings for the volume variant.
    pub cong_volume: CongRefineConfig,
    /// Algorithm 3 settings for the message variant.
    pub cong_messages: CongRefineConfig,
    /// Multilevel coarsen–map–refine settings (the
    /// [`map_multilevel_with`] engine for graphs far larger than the
    /// machine).
    pub multilevel: MultilevelConfig,
    /// Run Algorithm 2 on the *fine* task graph after composing (the
    /// §III-B alternative the paper declines by default: fine-level
    /// swaps can lower WH further but may increase the total internode
    /// volume, and cost more time). Applies to `GreedyWh` only.
    pub fine_wh_refine: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            ml: MlConfig::default(),
            greedy: GreedyConfig::default(),
            wh: WhRefineConfig::default(),
            cong_volume: CongRefineConfig::volume(),
            cong_messages: CongRefineConfig::messages(),
            multilevel: MultilevelConfig::default(),
            fine_wh_refine: false,
        }
    }
}

/// Result of the full pipeline.
#[derive(Clone, Debug)]
pub struct MappingOutcome {
    /// Node id per fine task (`Γ` composed through the grouping).
    pub fine_mapping: Vec<u32>,
    /// Node-group id per fine task (phase-1 output; for `DEF`, the
    /// consecutive-rank grouping).
    pub group_of: Vec<u32>,
    /// Wall time of phase 2 (the mapping algorithm itself).
    pub elapsed: Duration,
    /// Whether TMAP fell back to the DEF mapping (always `false` for
    /// other mappers).
    pub tmap_fell_back: bool,
}

/// Phase 1: groups the fine tasks into `|Va|` node groups with exact
/// balance (recursive bisection + one FM balance iteration).
pub fn group_tasks(fine: &TaskGraph, alloc: &Allocation, ml: &MlConfig) -> Vec<u32> {
    let targets: Vec<f64> = (0..alloc.num_nodes())
        .map(|s| f64::from(alloc.procs(s)))
        .collect();
    let g = fine.symmetric();
    let mut group = recursive_bisection(g, &targets, ml);
    fix_balance(g, &mut group, &targets, 0.0);
    group
}

/// Runs the full two-phase pipeline for one mapper.
///
/// # Examples
///
/// ```
/// use umpa_core::prelude::*;
/// use umpa_graph::TaskGraph;
/// use umpa_topology::{AllocSpec, Allocation, MachineConfig};
///
/// let machine = MachineConfig::small(&[4, 4], 1, 2).build();
/// let alloc = Allocation::generate(&machine, &AllocSpec::sparse(4, 7));
/// let tasks = TaskGraph::from_messages(
///     8,
///     (0..8u32).map(|i| (i, (i + 1) % 8, 1.0)),
///     None,
/// );
/// let out = map_tasks(
///     &tasks,
///     &machine,
///     &alloc,
///     MapperKind::GreedyWh,
///     &PipelineConfig::default(),
/// );
/// assert_eq!(out.fine_mapping.len(), 8);
/// let metrics = evaluate(&tasks, &machine, &out.fine_mapping);
/// assert!(metrics.wh >= 0.0);
/// ```
pub fn map_tasks(
    fine: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    kind: MapperKind,
    cfg: &PipelineConfig,
) -> MappingOutcome {
    map_tasks_with(fine, machine, alloc, kind, cfg, &mut MapperScratch::new())
}

/// [`map_tasks`] with a caller-owned [`MapperScratch`]: phase 2 (the
/// timed mapping algorithm) reuses the scratch's buffers and performs
/// no heap allocations once the scratch is warm — the steady-state
/// serving path. Results are bit-identical to [`map_tasks`]. Panics
/// when greedy cannot place every task ([`greedy_map_into`] returns
/// `None`), which [`check_job`](crate::check_job) cannot rule out.
///
/// [`greedy_map_into`]: crate::greedy::greedy_map_into
pub fn map_tasks_with(
    fine: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    kind: MapperKind,
    cfg: &PipelineConfig,
    scratch: &mut MapperScratch,
) -> MappingOutcome {
    if kind == MapperKind::Def {
        let start = Instant::now(); // tidy-allow: determinism (wall-clock feeds MappingOutcome::elapsed reporting only, never a placement decision)
        let fine_mapping = def_mapping(fine, alloc);
        let elapsed = start.elapsed();
        return MappingOutcome {
            group_of: def_groups(fine, alloc),
            fine_mapping,
            elapsed,
            tmap_fell_back: false,
        };
    }
    // Phase 1 — common preprocessing (untimed, shared by all mappers).
    let group_of = group_tasks(fine, alloc, &cfg.ml);
    let n_groups = alloc.num_nodes();
    let coarse_vol = fine.group_quotient(&group_of, n_groups, false);
    // Phase 2 — the mapper under test. The greedy family runs through
    // the scratch (allocation-free once warm); the TMAP/SMAP baselines
    // allocate internally, as the systems they model do.
    let start = Instant::now(); // tidy-allow: determinism (wall-clock feeds MappingOutcome::elapsed reporting only, never a placement decision)
    let mut tmap_fell_back = false;
    match kind {
        MapperKind::Def => unreachable!(),
        MapperKind::Tmap => {
            let candidate = tmap_mapping(&coarse_vol, machine, alloc, BASELINE_SEED);
            // The paper's rule: compare MC against DEF; fall back if not
            // strictly better.
            let fine_candidate = compose(&group_of, &candidate);
            let def = def_mapping(fine, alloc);
            let cand_mc = evaluate(fine, machine, &fine_candidate).mc;
            let def_mc = evaluate(fine, machine, &def).mc;
            if cand_mc < def_mc {
                scratch.coarse.clear();
                scratch.coarse.extend_from_slice(&candidate);
            } else {
                tmap_fell_back = true;
                let elapsed = start.elapsed();
                return MappingOutcome {
                    group_of: def_groups(fine, alloc),
                    fine_mapping: def,
                    elapsed,
                    tmap_fell_back,
                };
            }
        }
        MapperKind::Smap => {
            let m = smap_mapping(&coarse_vol, machine, alloc, BASELINE_SEED);
            scratch.coarse.clear();
            scratch.coarse.extend_from_slice(&m);
        }
        MapperKind::Greedy
        | MapperKind::GreedyWh
        | MapperKind::GreedyMc
        | MapperKind::GreedyMmc => {
            // `UMMC` refines on the message-count quotient; no other
            // kind reads it.
            let coarse_cnt = (kind == MapperKind::GreedyMmc)
                .then(|| fine.group_quotient(&group_of, n_groups, true));
            greedy_then_refine(
                kind,
                &coarse_vol,
                coarse_cnt.as_ref().unwrap_or(&coarse_vol),
                machine,
                alloc,
                cfg,
                &mut scratch.greedy,
                &mut scratch.wh,
                &mut scratch.cong,
                &mut scratch.coarse,
            );
        }
    };
    let mut fine_mapping = compose(&group_of, &scratch.coarse);
    if cfg.fine_wh_refine && kind == MapperKind::GreedyWh {
        // §III-B fine-level refinement: swap individual tasks between
        // nodes. WH can only improve; internode volume may grow (the
        // reason the paper keeps this off by default).
        wh_refine_scratch(
            fine,
            machine,
            alloc,
            &mut fine_mapping,
            &cfg.wh,
            &mut scratch.wh,
        );
    }
    let elapsed = start.elapsed();
    MappingOutcome {
        fine_mapping,
        group_of,
        elapsed,
        tmap_fell_back,
    }
}

/// Runs the multilevel coarsen–map–refine engine for one mapper (see
/// [`crate::multilevel`]): coarsen by capacity-aware heavy-edge
/// matching, map the coarsest graph with the engine, then uncoarsen
/// with bounded per-level refinement. The strategy of choice when the
/// task graph dwarfs the machine; on machine-sized graphs it degrades
/// gracefully to a direct engine run.
///
/// The `DEF`/`TMAP`/`SMAP` baselines do not decompose over a hierarchy
/// and are routed through the direct [`map_tasks`] pipeline unchanged.
///
/// `elapsed` covers the whole multilevel run — coarsening here plays
/// phase 1's role, so unlike [`map_tasks`] there is no untimed
/// preprocessing. `group_of` is the composed fine-task → coarsest-vertex
/// assignment.
///
/// The hierarchy and every engine buffer live in the caller-owned
/// [`MapperScratch`], so a warm scratch makes the whole run
/// allocation-free apart from materializing the outcome (use
/// [`multilevel_map_into`] directly for the fully allocation-free
/// serving path); a warm run is bit-identical to a fresh one. Panics
/// where [`map_tasks_with`] does.
pub fn map_multilevel_with(
    fine: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    kind: MapperKind,
    cfg: &PipelineConfig,
    scratch: &mut MapperScratch,
) -> MappingOutcome {
    if matches!(kind, MapperKind::Def | MapperKind::Tmap | MapperKind::Smap) {
        return map_tasks_with(fine, machine, alloc, kind, cfg, scratch);
    }
    let start = Instant::now(); // tidy-allow: determinism (wall-clock feeds MappingOutcome::elapsed reporting only, never a placement decision)
    let mut fine_mapping = Vec::new();
    multilevel_map_into(fine, machine, alloc, kind, cfg, scratch, &mut fine_mapping);
    let elapsed = start.elapsed();
    MappingOutcome {
        fine_mapping,
        group_of: scratch.multilevel.group_of.clone(),
        elapsed,
        tmap_fell_back: false,
    }
}

/// Composes the fine mapping out of grouping and coarse placement.
fn compose(group_of: &[u32], coarse_mapping: &[u32]) -> Vec<u32> {
    group_of
        .iter()
        .map(|&g| coarse_mapping[g as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::weighted_hops;
    use crate::mapping::validate_mapping;
    use umpa_topology::{AllocSpec, MachineConfig};

    /// A ring of 32 fine tasks on 8 nodes × 4 procs.
    fn setup() -> (Machine, Allocation, TaskGraph) {
        let m = MachineConfig::small(&[4, 4], 1, 4).build();
        let alloc = Allocation::generate(&m, &AllocSpec::sparse(8, 2));
        let tg = TaskGraph::from_messages(
            32,
            (0..32u32).flat_map(|i| [(i, (i + 1) % 32, 4.0), (i, (i + 5) % 32, 1.0)]),
            None,
        );
        (m, alloc, tg)
    }

    #[test]
    fn all_mappers_produce_feasible_fine_mappings() {
        let (m, alloc, tg) = setup();
        let cfg = PipelineConfig::default();
        for kind in MapperKind::all() {
            let out = map_tasks(&tg, &m, &alloc, kind, &cfg);
            validate_mapping(&tg, &alloc, &out.fine_mapping)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_eq!(out.group_of.len(), tg.num_tasks());
        }
    }

    #[test]
    fn grouping_is_exactly_balanced() {
        let (_, alloc, tg) = setup();
        let group = group_tasks(&tg, &alloc, &MlConfig::default());
        let mut load = vec![0.0; alloc.num_nodes()];
        for (t, &g) in group.iter().enumerate() {
            load[g as usize] += tg.task_weight(t as u32);
        }
        for (s, &l) in load.iter().enumerate() {
            assert!(
                l <= f64::from(alloc.procs(s)) + 1e-9,
                "group {s} overloaded: {l}"
            );
        }
    }

    #[test]
    fn uwh_never_trails_ug_on_wh() {
        let (m, alloc, tg) = setup();
        let cfg = PipelineConfig::default();
        let ug = map_tasks(&tg, &m, &alloc, MapperKind::Greedy, &cfg);
        let uwh = map_tasks(&tg, &m, &alloc, MapperKind::GreedyWh, &cfg);
        let wh_ug = weighted_hops(&tg, &m, &ug.fine_mapping);
        let wh_uwh = weighted_hops(&tg, &m, &uwh.fine_mapping);
        assert!(
            wh_uwh <= wh_ug + 1e-9,
            "UWH WH {wh_uwh} worse than UG WH {wh_ug}"
        );
    }

    #[test]
    fn umc_never_trails_ug_on_mc() {
        let (m, alloc, tg) = setup();
        let cfg = PipelineConfig::default();
        let ug = map_tasks(&tg, &m, &alloc, MapperKind::Greedy, &cfg);
        let umc = map_tasks(&tg, &m, &alloc, MapperKind::GreedyMc, &cfg);
        let mc_ug = evaluate(&tg, &m, &ug.fine_mapping).mc;
        let mc_umc = evaluate(&tg, &m, &umc.fine_mapping).mc;
        assert!(mc_umc <= mc_ug + 1e-9, "UMC MC {mc_umc} vs UG MC {mc_ug}");
    }

    #[test]
    fn tmap_fallback_rule_holds() {
        let (m, alloc, tg) = setup();
        let cfg = PipelineConfig::default();
        let tmap = map_tasks(&tg, &m, &alloc, MapperKind::Tmap, &cfg);
        let def = map_tasks(&tg, &m, &alloc, MapperKind::Def, &cfg);
        let tmap_mc = evaluate(&tg, &m, &tmap.fine_mapping).mc;
        let def_mc = evaluate(&tg, &m, &def.fine_mapping).mc;
        // Either it improved MC or it *is* the DEF mapping.
        if tmap.tmap_fell_back {
            assert_eq!(tmap.fine_mapping, def.fine_mapping);
        } else {
            assert!(tmap_mc < def_mc);
        }
    }

    #[test]
    fn def_is_instant_and_consecutive() {
        let (m, alloc, tg) = setup();
        let out = map_tasks(&tg, &m, &alloc, MapperKind::Def, &PipelineConfig::default());
        // Ranks 0..3 share the first allocated node.
        for t in 0..4 {
            assert_eq!(out.fine_mapping[t], alloc.node(0));
        }
        let _ = m;
    }

    #[test]
    fn fine_level_refinement_never_raises_wh() {
        let (m, alloc, tg) = setup();
        let coarse_cfg = PipelineConfig::default();
        let fine_cfg = PipelineConfig {
            fine_wh_refine: true,
            ..PipelineConfig::default()
        };
        let coarse = map_tasks(&tg, &m, &alloc, MapperKind::GreedyWh, &coarse_cfg);
        let fine = map_tasks(&tg, &m, &alloc, MapperKind::GreedyWh, &fine_cfg);
        let wh_coarse = weighted_hops(&tg, &m, &coarse.fine_mapping);
        let wh_fine = weighted_hops(&tg, &m, &fine.fine_mapping);
        assert!(
            wh_fine <= wh_coarse + 1e-9,
            "fine refinement raised WH: {wh_coarse} -> {wh_fine}"
        );
        validate_mapping(&tg, &alloc, &fine.fine_mapping).unwrap();
    }

    #[test]
    fn pipeline_is_deterministic() {
        let (m, alloc, tg) = setup();
        let cfg = PipelineConfig::default();
        let a = map_tasks(&tg, &m, &alloc, MapperKind::GreedyWh, &cfg);
        let b = map_tasks(&tg, &m, &alloc, MapperKind::GreedyWh, &cfg);
        assert_eq!(a.fine_mapping, b.fine_mapping);
    }
}
