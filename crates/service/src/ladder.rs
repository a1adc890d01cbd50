//! The deadline degradation ladder.
//!
//! Each request carries a time budget (deadline minus time already
//! spent queued). The ladder picks the best rung the budget can afford,
//! walking `Full → Refined → GreedyOnly → Projection` (the `UMC → UWH →
//! UG → DEF` mappers) when the budget is tight or the queue is deep —
//! so overload degrades *quality*, never latency. Rung costs are
//! learned online: an EWMA of observed service times per rung, seeded
//! with conservative priors so the first requests under a tight
//! deadline degrade rather than gamble.

use std::sync::atomic::{AtomicU64, Ordering};

use umpa_core::MapperKind;

use crate::config::ServiceConfig;

/// Multiplier on a rung's cost estimate when checking it against the
/// remaining budget (headroom for estimate error).
const SAFETY_FACTOR: f64 = 2.0;

/// Which rung of the degradation ladder served a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LadderRung {
    /// Greedy + congestion refinement (`UMC`, top quality).
    Full,
    /// Greedy + WH refinement (`UWH`).
    Refined,
    /// Greedy placement only (`UG`).
    GreedyOnly,
    /// Rank projection (`DEF`) — the always-affordable floor.
    Projection,
}

impl LadderRung {
    /// Number of rungs.
    pub const COUNT: usize = 4;

    /// Dense index for per-rung counters (`Full` = 0 … `Projection` = 3).
    pub fn index(self) -> usize {
        match self {
            LadderRung::Full => 0,
            LadderRung::Refined => 1,
            LadderRung::GreedyOnly => 2,
            LadderRung::Projection => 3,
        }
    }

    /// The mapper this rung runs.
    pub(crate) fn kind(self) -> MapperKind {
        match self {
            LadderRung::Full => MapperKind::GreedyMc,
            LadderRung::Refined => MapperKind::GreedyWh,
            LadderRung::GreedyOnly => MapperKind::Greedy,
            LadderRung::Projection => MapperKind::Def,
        }
    }

    /// One rung down, or `None` from the floor.
    fn down(self) -> Option<Self> {
        Self::all().get(self.index() + 1).copied()
    }

    /// Stable snake_case label (bench metric suffixes).
    pub fn label(self) -> &'static str {
        match self {
            LadderRung::Full => "full",
            LadderRung::Refined => "refined",
            LadderRung::GreedyOnly => "greedy",
            LadderRung::Projection => "projection",
        }
    }

    /// All rungs, top to bottom.
    pub fn all() -> [LadderRung; Self::COUNT] {
        [
            LadderRung::Full,
            LadderRung::Refined,
            LadderRung::GreedyOnly,
            LadderRung::Projection,
        ]
    }
}

/// Online per-rung cost model: EWMA of observed service nanoseconds,
/// lock-free (a lost update under a store race just delays the
/// estimate by one observation).
#[derive(Debug)]
pub(crate) struct CostModel {
    est_ns: [AtomicU64; LadderRung::COUNT],
}

/// Conservative priors (ns) before any observation: roughly the
/// default-preset cost of each rung, erring high so cold-start
/// requests under tight deadlines step down instead of missing.
const SEED_NS: [u64; LadderRung::COUNT] = [4_000_000, 1_500_000, 600_000, 60_000];

impl CostModel {
    pub(crate) fn seeded() -> Self {
        Self {
            est_ns: SEED_NS.map(AtomicU64::new),
        }
    }

    /// Folds an observed service time into the rung's estimate
    /// (`new = 3/4·old + 1/4·obs`).
    pub(crate) fn observe(&self, rung: LadderRung, ns: u64) {
        let cell = &self.est_ns[rung.index()];
        let old = cell.load(Ordering::Relaxed);
        cell.store(old - old / 4 + ns / 4, Ordering::Relaxed);
    }

    /// Current estimate for a rung, nanoseconds.
    pub(crate) fn estimate_ns(&self, rung: LadderRung) -> u64 {
        self.est_ns[rung.index()].load(Ordering::Relaxed)
    }
}

/// Picks the rung that serves a request: start from the top, shed one
/// rung under queue pressure, then keep stepping down while the
/// (safety-padded) cost estimate exceeds the remaining budget.
/// `Projection` always serves — the ladder never rejects.
pub(crate) fn select_rung(
    budget_ns: u64,
    queue_depth: usize,
    cfg: &ServiceConfig,
    costs: &CostModel,
) -> LadderRung {
    let mut rung = LadderRung::Full;
    if queue_depth >= cfg.pressure_depth.max(1) {
        rung = LadderRung::Refined;
    }
    loop {
        let padded = (costs.estimate_ns(rung) as f64 * SAFETY_FACTOR) as u64;
        if padded <= budget_ns {
            return rung;
        }
        match rung.down() {
            Some(down) => rung = down,
            None => return rung,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServiceConfig {
        ServiceConfig {
            pressure_depth: 8,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn generous_budget_keeps_the_requested_kind() {
        let costs = CostModel::seeded();
        let rung = select_rung(u64::MAX, 0, &cfg(), &costs);
        assert_eq!(rung, LadderRung::Full);
        assert_eq!(rung.kind(), MapperKind::GreedyMc);
    }

    #[test]
    fn tight_budget_walks_down_to_projection() {
        let costs = CostModel::seeded();
        let rung = select_rung(1_000, 0, &cfg(), &costs);
        assert_eq!(rung, LadderRung::Projection);
        // A budget affording greedy (600 µs seed × 2 safety) but not WH.
        let rung = select_rung(1_400_000, 0, &cfg(), &costs);
        assert_eq!(rung, LadderRung::GreedyOnly);
    }

    #[test]
    fn queue_pressure_sheds_one_extra_rung() {
        let costs = CostModel::seeded();
        let rung = select_rung(u64::MAX, 8, &cfg(), &costs);
        assert_eq!(rung, LadderRung::Refined);
    }

    #[test]
    fn walk_reaches_projection_from_every_rung() {
        for rung in LadderRung::all() {
            let mut r = rung;
            let mut steps = 0;
            while let Some(next) = r.down() {
                assert_eq!(next.index(), r.index() + 1, "walk skips a rung");
                r = next;
                steps += 1;
            }
            assert_eq!(r, LadderRung::Projection, "floor from {}", rung.label());
            assert_eq!(steps, LadderRung::COUNT - 1 - rung.index());
        }
    }

    #[test]
    fn ewma_learns_observed_costs() {
        let costs = CostModel::seeded();
        let before = costs.estimate_ns(LadderRung::Full);
        for _ in 0..64 {
            costs.observe(LadderRung::Full, 100_000);
        }
        let after = costs.estimate_ns(LadderRung::Full);
        assert!(after < before / 4, "estimate should converge down: {after}");
        // A cheap observed Full rung now fits a budget it did not fit
        // cold.
        let rung = select_rung(1_000_000, 0, &cfg(), &costs);
        assert_eq!(rung, LadderRung::Full);
    }

    #[test]
    fn cold_estimates_are_the_seed_priors_and_one_observation_folds_in() {
        let costs = CostModel::seeded();
        for (rung, seed) in LadderRung::all().into_iter().zip(SEED_NS) {
            assert_eq!(costs.estimate_ns(rung), seed, "{}", rung.label());
        }
        // First observation folds at the EWMA weight, not a hard reset:
        // new = seed - seed/4 + obs/4.
        costs.observe(LadderRung::Full, 100_000);
        assert_eq!(
            costs.estimate_ns(LadderRung::Full),
            4_000_000 - 4_000_000 / 4 + 100_000 / 4
        );
    }

    #[test]
    fn pathological_service_times_never_wrap_the_estimate() {
        // Repeated worst-case observations drive the EWMA toward
        // u64::MAX; `old - old/4 + ns/4` must stay in range at the
        // fixed point (debug builds panic on wrap, so this test proves
        // it). The ladder keeps serving off the saturated estimate.
        let costs = CostModel::seeded();
        let mut prev = costs.estimate_ns(LadderRung::Projection);
        for _ in 0..256 {
            costs.observe(LadderRung::Projection, u64::MAX);
            let est = costs.estimate_ns(LadderRung::Projection);
            assert!(est >= prev, "saturating estimate regressed: {est} < {prev}");
            prev = est;
        }
        assert!(
            prev > u64::MAX / 2,
            "estimate should approach the observations"
        );
        let rung = select_rung(1_000, 0, &cfg(), &costs);
        assert_eq!(rung, LadderRung::Projection);
    }

    #[test]
    fn ladder_serves_the_floor_when_every_rung_exceeds_the_budget() {
        // Learn expensive costs into every rung, then ask with a budget
        // none of them fits: the walk must bottom out at Projection —
        // the ladder never rejects — instead of looping or panicking.
        let costs = CostModel::seeded();
        for rung in LadderRung::all() {
            for _ in 0..64 {
                costs.observe(rung, 10_000_000_000);
            }
        }
        for budget in [0, 1, 1_000_000] {
            let rung = select_rung(budget, 0, &cfg(), &costs);
            assert_eq!(rung, LadderRung::Projection, "budget {budget}");
        }
    }

    #[test]
    fn rung_indices_are_dense_and_labels_stable() {
        let mut seen = [false; LadderRung::COUNT];
        for r in LadderRung::all() {
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(LadderRung::Projection.kind(), MapperKind::Def);
        assert_eq!(LadderRung::Projection.label(), "projection");
    }
}
