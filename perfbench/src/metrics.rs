//! Metric names, units and the one-line JSON result.
//!
//! Every workload prints every metric of the list its run mode asks
//! for: the end-to-end list untraced, the per-layer list traced. A
//! per-layer metric a workload never exercises reads `0`.

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the mapping system sees, measured untraced.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("map_p50_ms", "ms"),
    m("map_p99_ms", "ms"),
    m("maps_per_s", "1/s"),
    m("wh_vs_def", "ratio"),
    m("mc_vs_def", "ratio"),
    m("reply_p50_ms", "ms"),
];

/// Per-layer self times and work counters from the traced run, plus
/// the workload-specific user-visible rows that only one workload
/// exercises.
pub const PER_LAYER: &[MetricDef] = &[
    m("partition.bisect_ms", "ms"),
    m("partition.balance_ms", "ms"),
    m("graph.symmetric_ms", "ms"),
    m("graph.quotient_ms", "ms"),
    m("phase1_share", "ratio"),
    m("core.pipeline.request_ms", "ms"),
    m("core.pipeline.unaccounted_ms", "ms"),
    m("core.greedy_ms", "ms"),
    m("core.greedy.probes", "count"),
    m("core.greedy.row_hits", "count"),
    m("core.wh_refine_ms", "ms"),
    m("core.cong_refine_ms", "ms"),
    m("core.cong_refine.probes", "count"),
    m("core.cong_refine.moves", "count"),
    m("core.cong_refine.route_hit_rate", "ratio"),
    m("core.multilevel_ms", "ms"),
    m("core.multilevel.levels", "count"),
    m("core.multilevel.coarsest_tasks", "count"),
    m("core.remap.displaced_mean", "count"),
    m("core.remap_ms", "ms"),
    m("topology.degrade_link_ms", "ms"),
    m("topology.oracle_rebuild_ms", "ms"),
    m("topology.route_cache_rebuild_ms", "ms"),
    m("service.admit_ms.p99", "ms"),
    m("service.queue_wait_ms.p50", "ms"),
    m("service.queue_wait_ms.p99", "ms"),
    m("service.map_ms.p50", "ms"),
    m("service.map_ms.p99", "ms"),
    m("service.reply_overhead_ms.p99", "ms"),
    m("service.ladder.full", "count"),
    m("service.ladder.refined", "count"),
    m("service.ladder.greedy", "count"),
    m("service.ladder.projection", "count"),
    m("service.shed", "count"),
    m("service.deadline_misses", "count"),
    m("service.max_queue_depth", "count"),
    m("service.apply_churn_ms.p50", "ms"),
    m("service.apply_churn_ms.p99", "ms"),
    m("service.apply_churn_ms.hard", "ms"),
    m("service.first_reply_ms", "ms"),
    m("service.drift.polishes", "count"),
    m("service.drift.adoptions", "count"),
    m("service.journal.appends", "count"),
    m("service.journal.bytes", "bytes"),
    m("service.snapshots", "count"),
    m("service.recover.frames_replayed", "count"),
    m("max_rate_rps", "1/s"),
    m("failed_frac", "ratio"),
    m("repair_p99_ms", "ms"),
    m("live_wh_vs_fresh", "ratio"),
    m("recover_ms", "ms"),
    m("link_fail_to_serve_ms", "ms"),
    m("reply_p99_ms", "ms"),
    m("bench.generator_late_ms.p99", "ms"),
    m("bench.trace_overhead", "ratio"),
];

/// One run's outcome: correctness tally plus metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, churn events, checks).
    pub attempted: u64,
    /// Operations that errored, were shed or missed a deadline where
    /// the workload promises neither, or failed a correctness check.
    pub failed: u64,
    /// Correctness checks that failed, with a reason each.
    pub broken: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one operation; `ok == false` counts it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Runs one correctness check: a failure counts as a failed
    /// operation and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok && self.broken.len() < 16 {
            self.broken.push(what());
        }
    }

    /// Whether every correctness check passed and every metric of
    /// `defs` is a finite number.
    pub fn correct(&self, defs: &[MetricDef]) -> bool {
        self.broken.is_empty()
            && defs
                .iter()
                .all(|d| self.values.get(d.name).is_none_or(|v| v.is_finite()))
    }

    /// The result line: every metric of `defs` with its unit. Missing
    /// values print as `0`.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    fmt_num(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(defs),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn fmt_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn json_line_carries_every_metric() {
        let mut r = Report::default();
        r.set("setup_s", 0.25);
        r.check(true, String::new);
        let line = r.to_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"map_p50_ms\": {\"value\": 0.0, \"unit\": \"ms\"}"));
    }
}
