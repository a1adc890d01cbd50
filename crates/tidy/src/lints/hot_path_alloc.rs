//! `hot-path-alloc` — no allocating constructs in warm-path modules.
//!
//! PR 1's contract: once a `MapperScratch` is warm, the engine performs
//! zero heap allocations (enforced dynamically by the counting
//! allocator in `tests/alloc_free.rs`). This lint enforces it at the
//! source level for the modules on that path: any allocating construct
//! outside a `tidy-cold-region` fence (scratch constructors,
//! `ensure_capacity`-style growth, convenience entry points) or a
//! per-line allow is a violation — *before* a test has to catch it on
//! a path the suite happens to cover.

use crate::diag::Diagnostic;
use crate::lexer::SourceFile;
use crate::lints::{find_token, path_is_one_of};

/// The engine's warm-path modules (DESIGN.md §8/§13/§14).
const WARM_MODULES: &[&str] = &[
    "crates/core/src/greedy.rs",
    "crates/core/src/wh_refine.rs",
    "crates/core/src/cong_refine.rs",
    "crates/core/src/remap.rs",
    "crates/core/src/gain.rs",
    "crates/core/src/multilevel.rs",
    "crates/core/src/phase2.rs",
];

/// Allocating constructs. `Vec::resize`/`reserve`/`extend` are absent
/// on purpose: they are the grow-on-`ensure` idiom the scratch design
/// is built on, and the counting allocator still guards their warm
/// behavior.
const PATTERNS: &[&str] = &[
    "Vec::new(",
    "Vec::with_capacity(",
    "vec![",
    ".collect(",
    ".collect::<",
    ".to_vec(",
    ".to_owned(",
    ".to_string(",
    "Box::new(",
    "format!(",
    "String::new(",
    "String::from(",
    ".clone(",
    "HashMap::new(",
    "BTreeMap::new(",
];

/// Runs the lint over one file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if !path_is_one_of(file, WARM_MODULES) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || line.in_cold {
            continue;
        }
        for pat in PATTERNS {
            if find_token(&line.code, pat).is_some() {
                out.push(Diagnostic::new(
                    "hot-path-alloc",
                    &file.rel_path,
                    idx + 1,
                    format!(
                        "allocating construct `{}` in a warm-path module; move it inside a \
                         cold-region fence or justify it with an allow",
                        pat.trim_end_matches('(')
                    ),
                ));
                break; // one diagnostic per line is enough to act on
            }
        }
    }
    out
}
