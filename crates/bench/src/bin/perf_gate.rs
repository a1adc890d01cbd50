//! Perf regression gate: compares a fresh `perf` run against the
//! committed `BENCH_mapping.json` and fails on a median regression
//! beyond the tolerance in any engine row (`greedy`, `wh_refine`,
//! `cong_refine`, per backend).
//!
//! Usage:
//!
//! ```text
//! perf_gate <fresh.json> <baseline.json> [--tolerance 1.25] [--no-retry]
//! ```
//!
//! Exit status 0 when every gated row is within `tolerance ×` the
//! committed median (noise-tolerant: the default 1.25 admits 25 % of
//! scheduler jitter), 1 when any row regressed, 2 on usage/parse
//! errors. Rows present in only one file are reported and skipped —
//! adding a backend must not break the gate retroactively.
//!
//! **Noise hardening**: a row that fails the first pass is not failed
//! outright — the gate re-runs the sibling `perf` binary once for each
//! failing row's backend and judges the *best of the two* medians, so
//! a one-off scheduler hiccup on a shared CI runner does not page
//! anyone. A genuine regression fails both passes. `--no-retry`
//! restores single-shot behaviour (and a missing/failed `perf` binary
//! degrades to it gracefully). CI wires this behind a
//! `[skip-perf-gate]` commit-message escape hatch for intentional
//! trade-offs (see `.github/workflows/ci.yml`).

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Row stems the gate enforces (suffixed variants like
/// `wh_refine/fattree` are matched by their stem).
const GATED_STEMS: &[&str] = &[
    "greedy",
    "wh_refine",
    "cong_refine",
    "multilevel",
    "remap",
    "service",
];

/// Extracts `name → median_ns` from the hand-rolled perf JSON: one
/// benchmark per line, `"<name>": {"median_ns": <float>, ...}`.
fn parse_medians(src: &str, path: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for line in src.lines() {
        let line = line.trim();
        if !line.starts_with('"') || !line.contains("\"median_ns\":") {
            continue;
        }
        let name_end = line[1..]
            .find('"')
            .ok_or_else(|| format!("{path}: unterminated row name in {line:?}"))?;
        let name = &line[1..1 + name_end];
        let tail = &line[line.find("\"median_ns\":").unwrap() + "\"median_ns\":".len()..];
        let num: String = tail
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        let median: f64 = num
            .parse()
            .map_err(|e| format!("{path}: bad median for {name}: {e}"))?;
        out.insert(name.to_string(), median);
    }
    if out.is_empty() {
        return Err(format!("{path}: no benchmark rows found"));
    }
    Ok(out)
}

fn is_gated(row: &str) -> bool {
    let stem = row.split('/').next().unwrap_or(row);
    GATED_STEMS.contains(&stem)
}

/// Backend a row was measured on: rows carry a `/fattree`-style
/// suffix; unsuffixed rows are the torus (the PR-1 naming kept for
/// baseline continuity).
fn topo_of(row: &str) -> &str {
    row.split_once('/').map_or("torus", |(_, topo)| topo)
}

/// Re-measures the failing rows' backends with the sibling `perf`
/// binary (same target dir as this gate) and returns the merged
/// medians. `None` — with a note — when the binary is missing or a
/// run fails: the caller falls back to the first-pass verdict.
fn remeasure(topos: &BTreeSet<&str>) -> Option<BTreeMap<String, f64>> {
    let perf = std::env::current_exe().ok()?.with_file_name("perf");
    if !perf.exists() {
        eprintln!(
            "perf_gate: no sibling perf binary at {} — skipping the retry pass",
            perf.display()
        );
        return None;
    }
    let mut merged = BTreeMap::new();
    for topo in topos {
        let tmp = std::env::temp_dir().join(format!(
            "perf-gate-retry-{}-{topo}.json",
            std::process::id()
        ));
        let tmp_str = tmp.to_string_lossy().into_owned();
        eprintln!("perf_gate: re-measuring {topo} rows (best-of-2) ...");
        let status = Command::new(&perf)
            .args(["--preset", "default", "--topo", topo, "--out"])
            .arg(&tmp)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perf_gate: retry perf run for {topo} exited with {s} — skipping retry");
                return None;
            }
            Err(e) => {
                eprintln!("perf_gate: cannot launch retry perf run for {topo}: {e}");
                return None;
            }
        }
        let src = match std::fs::read_to_string(&tmp) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perf_gate: cannot read retry output {tmp_str}: {e}");
                return None;
            }
        };
        let _ = std::fs::remove_file(&tmp);
        match parse_medians(&src, &tmp_str) {
            Ok(m) => merged.extend(m),
            Err(e) => {
                eprintln!("perf_gate: {e}");
                return None;
            }
        }
    }
    Some(merged)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut positional: Vec<&String> = Vec::new();
    let mut tolerance = 1.25f64;
    let mut no_retry = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        if a == "--no-retry" {
            no_retry = true;
        } else if a == "--tolerance" {
            tolerance = match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => t,
                None => {
                    eprintln!("perf_gate: --tolerance needs a float value");
                    std::process::exit(2);
                }
            };
        } else if a.starts_with("--") {
            eprintln!("perf_gate: unknown flag {a}");
            std::process::exit(2);
        } else {
            positional.push(a);
        }
    }
    if positional.len() != 2 {
        eprintln!("usage: perf_gate <fresh.json> <baseline.json> [--tolerance 1.25] [--no-retry]");
        std::process::exit(2);
    }
    let (fresh_path, base_path) = (positional[0], positional[1]);
    let read = |p: &str| -> String {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("perf_gate: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let fresh = match parse_medians(&read(fresh_path), fresh_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            std::process::exit(2);
        }
    };
    let base = match parse_medians(&read(base_path), base_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            std::process::exit(2);
        }
    };

    // First pass: judge every gated row against the fresh run,
    // printing the measured-vs-committed ratio for each.
    let mut checked = 0usize;
    let mut failing: BTreeMap<&str, f64> = BTreeMap::new();
    for (row, &committed) in base.iter().filter(|(r, _)| is_gated(r)) {
        let Some(&measured) = fresh.get(row) else {
            eprintln!("perf_gate: row {row} missing from {fresh_path} — skipped");
            continue;
        };
        checked += 1;
        let ratio = measured / committed;
        let verdict = if ratio > tolerance {
            failing.insert(row, measured);
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{row:24} committed {committed:>14.1} ns  fresh {measured:>14.1} ns  ratio {ratio:>5.2}x  {verdict}"
        );
    }

    // Retry pass: failing rows get one re-measurement of their
    // backend and are judged on the best of the two medians, so a
    // single noisy sample cannot fail the gate on its own.
    let mut regressions = failing.len();
    if !failing.is_empty() && !no_retry {
        let topos: BTreeSet<&str> = failing.keys().map(|r| topo_of(r)).collect();
        if let Some(second) = remeasure(&topos) {
            regressions = 0;
            for (&row, &first) in &failing {
                let committed = base[row];
                let best = match second.get(row) {
                    Some(&again) => first.min(again),
                    None => {
                        eprintln!("perf_gate: row {row} missing from the retry run");
                        first
                    }
                };
                let ratio = best / committed;
                let verdict = if ratio > tolerance {
                    regressions += 1;
                    "REGRESSED"
                } else {
                    "ok (retry)"
                };
                println!(
                    "{row:24} committed {committed:>14.1} ns  best-of-2 {best:>11.1} ns  ratio {ratio:>5.2}x  {verdict}"
                );
            }
        }
    }
    for row in fresh.keys().filter(|r| is_gated(r)) {
        if !base.contains_key(row) {
            eprintln!("perf_gate: new row {row} has no committed baseline — skipped");
        }
    }
    if checked == 0 {
        eprintln!("perf_gate: no gated rows were comparable");
        std::process::exit(2);
    }
    if regressions > 0 {
        eprintln!(
            "perf_gate: {regressions} row(s) regressed beyond {tolerance}x; \
             commit with [skip-perf-gate] only for intentional trade-offs"
        );
        std::process::exit(1);
    }
    eprintln!("perf_gate: {checked} row(s) within {tolerance}x of the committed baseline");
}
