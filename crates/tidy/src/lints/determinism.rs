//! `determinism` — no nondeterminism sources in the engine crates.
//!
//! The engine's headline property is bit-identical mappings across
//! warm/cold scratch, oracle and route-cache configurations (the
//! differential harnesses in CI). The classic ways to lose it:
//!
//! * `std::collections::HashMap`/`HashSet` — `RandomState` seeds the
//!   hash per process, so iteration order differs run to run; one
//!   `for (k, v) in map` in a decision path silently breaks every
//!   differential test. Sorted vecs, dense arrays and the epoch-marker
//!   pattern (`umpa_ds::EpochMarker`) are the project's replacements.
//! * Wall-clock reads (`Instant::now`) feeding anything but reporting.
//! * Unseeded RNG construction — all randomness must flow from an
//!   explicit seed (the ChaCha shims take nothing else, but keep the
//!   patterns so a future real-`rand` build stays honest).

use crate::diag::Diagnostic;
use crate::lexer::SourceFile;
use crate::lints::find_token;

/// Crates whose `src/` trees must be deterministic (bench and the
/// test/bin crates are exempt, as are `#[cfg(test)]` regions anywhere).
const SCOPES: &[&str] = &[
    "crates/core/src/",
    "crates/topology/src/",
    "crates/graph/src/",
    "crates/partition/src/",
    "crates/ds/src/",
    // The service's decisions (ladder, retry, supervisor) must be a
    // pure function of seed + event stream + clock readings; the one
    // wall-clock anchor lives in clock.rs behind an allow.
    "crates/service/src/",
];

const PATTERNS: &[(&str, &str)] = &[
    ("HashMap", "iteration order is seeded per process"),
    ("HashSet", "iteration order is seeded per process"),
    ("Instant::now(", "wall-clock reads are nondeterministic"),
    ("SystemTime::now(", "wall-clock reads are nondeterministic"),
    ("thread_rng(", "unseeded RNG"),
    ("from_entropy(", "unseeded RNG"),
    ("rand::random", "unseeded RNG"),
];

/// Runs the lint over one file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if !SCOPES.iter().any(|s| file.rel_path.starts_with(s)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pat, why) in PATTERNS {
            if find_token(&line.code, pat).is_some() {
                out.push(Diagnostic::new(
                    "determinism",
                    &file.rel_path,
                    idx + 1,
                    format!(
                        "`{}` in a deterministic crate ({why}); use a sorted vec, dense \
                         array or epoch marker, or justify with an allow",
                        pat.trim_end_matches('(')
                    ),
                ));
                break;
            }
        }
    }
    out
}
