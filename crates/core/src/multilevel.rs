//! Multilevel coarsen–map–refine engine for task graphs far larger
//! than the machine.
//!
//! The paper evaluates its pipeline on task graphs sized to the
//! allocation; the direct pipeline's phase-1 partitioner is what limits
//! it — recursive bisection over a million-task graph costs minutes.
//! The standard route to quality-at-scale (Schulz & Woydt's
//! shared-memory hierarchical process mapping; Deveci et al.'s
//! geometric multilevel strategies) is multilevel:
//!
//! 1. **Coarsen** the task graph by heavy-edge matching into a
//!    hierarchy of quotient graphs until it is a small multiple of the
//!    allocation size. Matching is *capacity-aware*: a pair is merged
//!    only while the combined weight stays under `MAX_VERTEX_FRAC` of
//!    the largest allocated node capacity, so every coarse vertex still
//!    fits a node and the coarsest graph remains mappable.
//! 2. **Map** the coarsest graph with the existing engine: Algorithm 1
//!    greedy growth plus the kind's full-budget refinement (Algorithm 2
//!    for `UWH`, Algorithm 3 for `UMC`/`UMMC`). Coarsening has already
//!    played METIS's phase-1 role, so no separate grouping pass runs.
//! 3. **Uncoarsen** level by level: project the mapping through the
//!    matching (`mapping_fine[v] = mapping_coarse[map[v]]` — weights
//!    are exact sums, so feasibility is preserved verbatim) and run
//!    *bounded* refinement passes at each level (`REFINE_PASSES`,
//!    skipped above `REFINE_MAX_VERTICES`) using the incremental-gain
//!    fast path.
//!
//! Everything steady-state lives in a [`MultilevelScratch`] that
//! follows the [`MapperScratch`] discipline: the hierarchy's per-level
//! [`TaskGraph`]s rebuild in place through
//! [`umpa_graph::TaskGraphScratch`], matching buffers are reused, and a
//! warm run performs **zero heap allocations** (verified by
//! `tests/alloc_free.rs` on every topology backend, oracle on and off).

use umpa_graph::{TaskGraph, TaskGraphScratch};
use umpa_partition::coarsen::heavy_edge_matching;
use umpa_topology::{Allocation, Machine};

use crate::cong_refine::CongRefineConfig;
use crate::phase2::{greedy_then_refine, refine, Refinements};
use crate::pipeline::{MapperKind, PipelineConfig};
use crate::scratch::MapperScratch;
use crate::wh_refine::WhRefineConfig;

/// Coarsening stalls when a matching round shrinks the graph by less
/// than 5 % — the remaining structure (stars, isolated vertices,
/// capacity-blocked pairs) no longer pays for another level.
const STALL_FRACTION: f64 = 0.95;

/// Matched-pair weight cap as a fraction of the largest allocated node
/// capacity. Below 1.0 leaves packing slack for the coarsest greedy
/// placement; 0.5 keeps at least two coarse vertices per node's worth
/// of weight. Merging turns the coarsest placement into a bin-packing
/// problem; on nearly full allocations the slack clamp in
/// [`multilevel_map_into`] makes coarse vertices finer still.
const MAX_VERTEX_FRAC: f64 = 0.5;

/// Refinement budget per uncoarsening level: WH refinement runs at most
/// this many passes, and congestion refinement accepts at most
/// `REFINE_PASSES × |V_level|` moves (one "pass" moving every vertex
/// once). The coarsest level runs the kind's full budget instead.
const REFINE_PASSES: u32 = 2;

/// Levels with more vertices than this skip per-level refinement — the
/// per-level budget that keeps million-task runs fast.
const REFINE_MAX_VERTICES: usize = 1 << 16;

/// Heavy-edge matching seed (per-level seeds derive from it).
const MATCHING_SEED: u64 = 0x5EED;

/// Configuration of the multilevel engine (defaults tuned for the
/// million-task acceptance run on the Hopper preset).
#[derive(Clone, Debug)]
pub struct MultilevelConfig {
    /// Coarsening stops once a level has at most
    /// `coarsen_factor × |Va|` vertices. The default of 8 keeps enough
    /// placement granularity at the coarsest level for the greedy
    /// engine to pack communicating blocks onto same-router node pairs
    /// — pushing below ~4 measurably hurts WH (blocks get too big for
    /// swap refinement to repair), while raising it only costs coarsest
    /// mapping time.
    pub coarsen_factor: f64,
    /// …floored at this many vertices (small graphs skip coarsening
    /// entirely and are mapped directly).
    pub coarsen_min: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        Self {
            coarsen_factor: 8.0,
            coarsen_min: 64,
        }
    }
}

/// Shape of one finished multilevel run (for diagnostics, the perf
/// tracker and tests; the mapping itself goes to the caller's buffer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MultilevelStats {
    /// Hierarchy depth (0 = the graph was mapped directly).
    pub levels: usize,
    /// Vertices of the coarsest graph actually mapped.
    pub coarsest_tasks: usize,
}

/// One hierarchy level: the coarse graph, the fine→coarse vertex map
/// that produced it, and the node assignment filled in on the way back
/// up. All buffers are reused across runs.
#[derive(Default)]
struct Level {
    /// Quotient task graph at this level (volumes summed).
    tg: TaskGraph,
    /// Message-count view (`UMMC` refinement only; empty otherwise).
    cnt: TaskGraph,
    /// `map[v]` = this level's vertex id for the finer level's `v`.
    map: Vec<u32>,
    /// Node id per vertex of `tg` (filled during uncoarsening).
    mapping: Vec<u32>,
}

/// Owns every buffer of the multilevel engine: the level hierarchy,
/// matching workspaces and the [`TaskGraphScratch`] the quotient
/// rebuilds run through. Lives inside [`MapperScratch`]; one warm
/// scratch serves any problem shape (DESIGN.md §12).
#[derive(Default)]
pub struct MultilevelScratch {
    levels: Vec<Level>,
    /// Random matching order buffer.
    order: Vec<u32>,
    /// Matching partner per vertex (`u32::MAX` = unmatched).
    mate: Vec<u32>,
    /// Quotient/rebuild workspace shared by every level.
    tg: TaskGraphScratch,
    /// Composed fine-task → coarsest-vertex map of the last run.
    pub(crate) group_of: Vec<u32>,
    /// Fine-level message-count view (`UMMC` only).
    cnt0: TaskGraph,
}

impl MultilevelScratch {
    /// Creates an empty scratch; buffers are sized on first run.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Heavy-edge matching on `tg`'s symmetric view under the merged-weight
/// `cap`; writes the fine→coarse map and returns the coarse vertex
/// count. Deterministic per seed. The matching kernel itself is the
/// partitioner's [`heavy_edge_matching`] — the capacity cap rides in as
/// its admission predicate (the symmetric view's vertex weights are the
/// task weights, so the cap reads them directly).
fn match_level(
    tg: &TaskGraph,
    cap: f64,
    seed: u64,
    order: &mut Vec<u32>,
    mate: &mut Vec<u32>,
    map: &mut Vec<u32>,
) -> usize {
    let g = tg.symmetric();
    heavy_edge_matching(
        g,
        seed,
        |v, u| g.vertex_weight(v) + g.vertex_weight(u) <= cap,
        order,
        mate,
        map,
    )
}

/// Runs the full coarsen–map–refine engine for one of the greedy-family
/// mappers, writing the fine mapping into `out` (allocation-free once
/// `scratch` and `out` are warm). The composed fine→coarsest map of the
/// run is left in the scratch for the pipeline wrapper.
///
/// # Panics
///
/// Panics for the `DEF`/`TMAP`/`SMAP` baselines — those do not
/// decompose over a hierarchy; route them through the direct pipeline
/// (`map_multilevel_with` in [`crate::pipeline`] does so automatically).
/// Panics, too, when greedy cannot place every coarsest task.
pub fn multilevel_map_into(
    fine: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    kind: MapperKind,
    cfg: &PipelineConfig,
    scratch: &mut MapperScratch,
    out: &mut Vec<u32>,
) -> MultilevelStats {
    assert!(
        matches!(
            kind,
            MapperKind::Greedy
                | MapperKind::GreedyWh
                | MapperKind::GreedyMc
                | MapperKind::GreedyMmc
        ),
        "multilevel engine supports the greedy family, not {}",
        kind.name()
    );
    let MapperScratch {
        greedy,
        wh,
        cong,
        multilevel: ml,
        ..
    } = scratch;
    let mlcfg = &cfg.multilevel;
    let n = fine.num_tasks();
    ml.group_of.clear();
    ml.group_of.extend(0..n as u32);
    if n == 0 {
        out.clear();
        return MultilevelStats::default();
    }
    let want_counts = kind == MapperKind::GreedyMmc;
    if want_counts {
        // The `UMMC` view: every fine message counts 1, weights real.
        ml.cnt0.rebuild_from_messages(
            n,
            fine.messages().map(|(s, t, _)| (s, t, 1.0)),
            Some(fine.directed().vertex_weights()),
            &mut ml.tg,
        );
    }
    // --- Coarsening ----------------------------------------------------
    // Merged-weight cap. Beyond `MAX_VERTEX_FRAC` of the largest node,
    // the cap is clamped to `slack / |Va|`: if every coarse
    // vertex weighs at most that, a placement failure (every slot's
    // free capacity below the vertex weight) would need the total free
    // capacity to drop under the allocation's slack — impossible. This
    // makes the coarsest greedy placement provably packable whenever
    // the *fine* weights already are, at the cost of shallower
    // coarsening on nearly-full allocations (coarsening depth is
    // driven by the caller's fill factor).
    let max_cap = alloc.procs_all().iter().copied().max().unwrap_or(0);
    let total_weight: f64 = (0..n as u32).map(|t| fine.task_weight(t)).sum();
    let slack = f64::from(alloc.total_procs()) - total_weight;
    let cap = (MAX_VERTEX_FRAC * f64::from(max_cap)).min(slack / alloc.num_nodes().max(1) as f64);
    let target =
        ((mlcfg.coarsen_factor * alloc.num_nodes() as f64).ceil() as usize).max(mlcfg.coarsen_min);
    let mut active = 0usize;
    loop {
        let cur_n = if active == 0 {
            n
        } else {
            ml.levels[active - 1].tg.num_tasks()
        };
        if cur_n <= target {
            break;
        }
        if active == ml.levels.len() {
            ml.levels.push(Level::default());
        }
        let (built, rest) = ml.levels.split_at_mut(active);
        let level = &mut rest[0];
        let prev_tg: &TaskGraph = if active == 0 {
            fine
        } else {
            &built[active - 1].tg
        };
        let coarse_n = match_level(
            prev_tg,
            cap,
            MATCHING_SEED.wrapping_add(active as u64),
            &mut ml.order,
            &mut ml.mate,
            &mut level.map,
        );
        if coarse_n as f64 > STALL_FRACTION * cur_n as f64 {
            break;
        }
        prev_tg.group_quotient_into(&level.map, coarse_n, false, &mut level.tg, &mut ml.tg);
        if want_counts {
            let prev_cnt: &TaskGraph = if active == 0 {
                &ml.cnt0
            } else {
                &built[active - 1].cnt
            };
            prev_cnt.group_quotient_into(&level.map, coarse_n, false, &mut level.cnt, &mut ml.tg);
        }
        if active == 0 {
            ml.group_of.clear();
            ml.group_of.extend_from_slice(&level.map);
        } else {
            for g in ml.group_of.iter_mut() {
                *g = level.map[*g as usize];
            }
        }
        active += 1;
    }
    // --- Coarsest mapping (full-budget refinement) ---------------------
    let stats = MultilevelStats {
        levels: active,
        coarsest_tasks: if active == 0 {
            n
        } else {
            ml.levels[active - 1].tg.num_tasks()
        },
    };
    if active == 0 {
        // Nothing to coarsen: the graph is machine-sized (or refuses to
        // shrink) — map it directly with the engine.
        greedy_then_refine(
            kind, fine, &ml.cnt0, machine, alloc, cfg, greedy, wh, cong, out,
        );
        return stats;
    }
    let top = &mut ml.levels[active - 1];
    greedy_then_refine(
        kind,
        &top.tg,
        &top.cnt,
        machine,
        alloc,
        cfg,
        greedy,
        wh,
        cong,
        &mut top.mapping,
    );
    // --- Uncoarsening: project, then bounded refinement per level ------
    let wh_cfg = WhRefineConfig {
        max_passes: REFINE_PASSES,
        ..cfg.wh
    };
    for i in (0..active).rev() {
        let (built, rest) = ml.levels.split_at_mut(i);
        let level = &rest[0];
        // Project this level's node assignment onto the finer level.
        let (finer_tg, finer_cnt, finer_mapping): (&TaskGraph, &TaskGraph, &mut Vec<u32>) =
            if i == 0 {
                (fine, &ml.cnt0, &mut *out)
            } else {
                let below = &mut built[i - 1];
                (&below.tg, &below.cnt, &mut below.mapping)
            };
        finer_mapping.clear();
        finer_mapping.extend(level.map.iter().map(|&c| level.mapping[c as usize]));
        let n_level = finer_tg.num_tasks();
        if n_level > REFINE_MAX_VERTICES {
            continue;
        }
        // Algorithm 3 has no pass notion (it terminates when the most
        // congested link yields no swap), so its per-level budget caps
        // *accepted moves* at `REFINE_PASSES × |V_level|` under the
        // configured ceiling.
        let moves = REFINE_PASSES * n_level as u32;
        let cong_budget = |base: &CongRefineConfig| CongRefineConfig {
            max_moves: base.max_moves.min(moves),
            ..*base
        };
        let budgets = Refinements {
            wh: wh_cfg,
            cong_volume: cong_budget(&cfg.cong_volume),
            cong_messages: cong_budget(&cfg.cong_messages),
        };
        refine(
            kind,
            finer_tg,
            finer_cnt,
            machine,
            alloc,
            finer_mapping,
            &budgets,
            wh,
            cong,
        );
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::weighted_hops;
    use crate::mapping::validate_mapping;
    use umpa_topology::{AllocSpec, MachineConfig};

    fn big_ring(n: u32, weight: f64) -> TaskGraph {
        TaskGraph::from_messages(
            n as usize,
            (0..n).flat_map(|i| [(i, (i + 1) % n, 4.0), (i, (i + 7) % n, 1.0)]),
            Some(vec![weight; n as usize]),
        )
    }

    fn ml_cfg() -> PipelineConfig {
        PipelineConfig {
            multilevel: MultilevelConfig {
                coarsen_min: 8,
                coarsen_factor: 1.5,
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn hierarchy_forms_and_mapping_is_feasible() {
        let m = MachineConfig::small(&[4, 4], 1, 4).build();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(8, 3));
        let tg = big_ring(128, 0.125); // total weight 16 of 32 procs
        let cfg = ml_cfg();
        let mut scratch = MapperScratch::new();
        let mut out = Vec::new();
        let stats = multilevel_map_into(
            &tg,
            &m,
            &alloc,
            MapperKind::GreedyWh,
            &cfg,
            &mut scratch,
            &mut out,
        );
        assert!(stats.levels >= 2, "expected a real hierarchy: {stats:?}");
        assert!(stats.coarsest_tasks < 32);
        validate_mapping(&tg, &alloc, &out).unwrap();
        assert_eq!(scratch.multilevel.group_of.len(), 128);
        let max_group = scratch.multilevel.group_of.iter().max().copied().unwrap();
        assert_eq!(max_group as usize + 1, stats.coarsest_tasks);
    }

    #[test]
    fn matching_respects_the_weight_cap() {
        let tg = big_ring(64, 1.0);
        let (mut order, mut mate, mut map) = (Vec::new(), Vec::new(), Vec::new());
        let coarse_n = match_level(&tg, 2.0, 7, &mut order, &mut mate, &mut map);
        // Pairs of weight 2 at most: at least half the vertices remain.
        assert!(coarse_n >= 32);
        let mut w = vec![0.0; coarse_n];
        for v in 0..64u32 {
            w[map[v as usize] as usize] += tg.task_weight(v);
        }
        assert!(w.iter().all(|&x| x <= 2.0 + 1e-9));
    }

    #[test]
    fn warm_scratch_is_bit_identical_to_fresh() {
        let m = MachineConfig::small(&[4, 4], 1, 4).build();
        let cfg = ml_cfg();
        let mut scratch = MapperScratch::new();
        let mut warm = Vec::new();
        for seed in 0..4u64 {
            let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(8, seed));
            let tg = big_ring(96 + 16 * seed as u32, 0.2);
            multilevel_map_into(
                &tg,
                &m,
                &alloc,
                MapperKind::GreedyWh,
                &cfg,
                &mut scratch,
                &mut warm,
            );
            let mut fresh = Vec::new();
            multilevel_map_into(
                &tg,
                &m,
                &alloc,
                MapperKind::GreedyWh,
                &cfg,
                &mut MapperScratch::new(),
                &mut fresh,
            );
            assert_eq!(warm, fresh, "seed {seed}: warm scratch diverged");
        }
    }

    #[test]
    fn refined_multilevel_never_trails_projection_on_wh() {
        let m = MachineConfig::small(&[4, 4], 1, 4).build();
        let alloc = umpa_topology::Allocation::generate(&m, &AllocSpec::sparse(10, 5));
        let tg = big_ring(160, 0.2);
        let cfg = ml_cfg();
        let mut scratch = MapperScratch::new();
        let (mut ug, mut uwh) = (Vec::new(), Vec::new());
        multilevel_map_into(
            &tg,
            &m,
            &alloc,
            MapperKind::Greedy,
            &cfg,
            &mut scratch,
            &mut ug,
        );
        multilevel_map_into(
            &tg,
            &m,
            &alloc,
            MapperKind::GreedyWh,
            &cfg,
            &mut scratch,
            &mut uwh,
        );
        let wh_ug = weighted_hops(&tg, &m, &ug);
        let wh_uwh = weighted_hops(&tg, &m, &uwh);
        assert!(
            wh_uwh <= wh_ug + 1e-9,
            "UWH multilevel {wh_uwh} trails UG multilevel {wh_ug}"
        );
    }
}
