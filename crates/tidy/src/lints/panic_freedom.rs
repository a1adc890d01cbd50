//! `panic-freedom` — no panicking constructs in the never-panic files.
//!
//! `umpa_core::remap`, `umpa_topology::fault` and the whole of
//! `umpa_service` document a hard contract: incremental repair and
//! the serving loop **never panic** — infeasibility is a typed
//! `RemapOutcome::Infeasible` (the service's analog is a typed
//! `ServiceError`), not a crash in a serving process that just lost
//! hardware. This lint bans the panicking
//! constructs (`unwrap`/`expect`/`panic!`/`todo!`/asserts) plus a
//! heuristic for the sneakiest variant: direct slice indexing inside a
//! match arm, where a refactor of the matched shape turns a formerly
//! in-range index into a panic. `debug_assert*` stays legal — it
//! vanishes in release builds and documents invariants.

use crate::diag::Diagnostic;
use crate::lexer::SourceFile;
use crate::lints::{find_token, path_is_one_of};

/// Files whose documented contract is "never panics". Entries ending
/// in `/` scope a whole source tree: the service's worker loop and
/// supervisor serve requests in a long-running process, so the entire
/// crate carries the contract.
const NEVER_PANIC_FILES: &[&str] = &[
    "crates/core/src/greedy.rs",
    "crates/core/src/remap.rs",
    "crates/topology/src/fault.rs",
    "crates/service/src/",
];

const PATTERNS: &[&str] = &[
    ".unwrap(",
    ".expect(",
    "panic!(",
    "todo!(",
    "unimplemented!(",
    "unreachable!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

/// Runs the lint over one file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if !path_is_one_of(file, NEVER_PANIC_FILES) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut hit = None;
        for pat in PATTERNS {
            if find_token(&line.code, pat).is_some() {
                hit = Some(format!(
                    "panicking construct `{}` in a never-panic file; return a typed \
                     error/outcome instead, or justify with an allow",
                    pat.trim_end_matches('(')
                ));
                break;
            }
        }
        if hit.is_none() {
            if let Some(col) = match_arm_index(&line.code) {
                hit = Some(format!(
                    "direct slice index in a match arm (col {col}) can panic if the matched \
                     shape changes; use `get`, or justify with an allow"
                ));
            }
        }
        if let Some(msg) = hit {
            out.push(Diagnostic::new(
                "panic-freedom",
                &file.rel_path,
                idx + 1,
                msg,
            ));
        }
    }
    out
}

/// Heuristic: after a `=>` fat arrow, an identifier immediately
/// followed by `[` is a direct (panicking) index expression.
fn match_arm_index(code: &str) -> Option<usize> {
    let arrow = code.find("=>")?;
    let bytes = code.as_bytes();
    for i in arrow + 2..bytes.len().saturating_sub(1) {
        let c = bytes[i];
        if (c.is_ascii_alphanumeric() || c == b'_') && bytes[i + 1] == b'[' {
            return Some(i + 2); // 1-based column of the bracket
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::match_arm_index;

    #[test]
    fn arm_index_heuristic() {
        assert!(match_arm_index("Some(i) => table[i as usize],").is_some());
        assert!(match_arm_index("Some(i) => table.get(i),").is_none());
        assert!(match_arm_index("let x = table[i];").is_none()); // no arm
        assert!(match_arm_index("Some(i) => (i, j),").is_none());
    }
}
