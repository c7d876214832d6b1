//! `opclint` — workspace-wide determinism & panic-safety static analysis.
//!
//! The repo's headline reproduction guarantee is *bit-identical results
//! at any `OPC_THREADS`, with every cache on or off*. PRs 1–3 enforce
//! that dynamically with determinism tests; this crate enforces it
//! statically, so a stray `HashMap` iteration or `thread_rng()` in an
//! untested path cannot reach `main` at all. It is deliberately
//! self-contained (own lexer, no dependencies — the build environment is
//! offline) and fast enough to run on every push.
//!
//! Layers:
//!
//! * [`lexer`] — a comment/string/raw-string-aware Rust token scanner, so
//!   rule patterns never fire inside literals or comments.
//! * [`rules`] — the rule engine: `unordered-iter`, `nondeterminism`,
//!   `float-cmp-unwrap`, `panic-budget`, plus `opclint: allow` waivers.
//! * [`baseline`] — the committed, shrink-only panic-budget ratchet.
//! * [`walk`] — workspace discovery (which files, which rule context).
//!
//! Run `cargo run -p opclint` for a report, `-- --check` for the CI gate
//! (nonzero exit on any finding), `-- --update-baseline` to tighten the
//! ratchet after removing panic paths.

#![warn(missing_docs)]

pub mod baseline;
pub mod lexer;
pub mod rules;
pub mod walk;

pub use baseline::BASELINE_FILE;
pub use lexer::{lex, Lexed, TokKind, Token};
pub use rules::{lint_file, FileCtx, FileReport, Finding, RULES};
pub use walk::{collect_sources, find_workspace_root, SourceFile};

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Result of linting a whole workspace.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceReport {
    /// All rule findings (without the baseline comparison).
    pub findings: Vec<Finding>,
    /// Per-crate panic-site counts (input to the ratchet).
    pub panic_counts: BTreeMap<String, usize>,
    /// Number of files scanned.
    pub files: usize,
}

/// Lints every library source file of the workspace rooted at `root`.
/// The baseline comparison is left to the caller (check vs update).
pub fn lint_workspace(root: &Path) -> Result<WorkspaceReport, String> {
    let sources = collect_sources(root)?;
    let mut report = WorkspaceReport {
        files: sources.len(),
        ..WorkspaceReport::default()
    };
    for s in &sources {
        let text = fs::read_to_string(&s.path)
            .map_err(|e| format!("cannot read {}: {e}", s.path.display()))?;
        let file_report = lint_file(&s.rel, &text);
        report.findings.extend(file_report.findings);
        *report
            .panic_counts
            .entry(s.ctx.crate_name.clone())
            .or_insert(0) += file_report.panic_count;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}
