//! simlint: workspace determinism & safety lints.
//!
//! Every headline result in this reproduction is gated on **bit-for-bit
//! determinism** — the run-to-run determinism suites, trace artifacts and
//! analysis reports all compare exact bytes — yet that invariant used to be enforced
//! only dynamically, after a run. simlint rejects the whole preventable bug
//! class statically: it is an offline, dependency-free scanner (a small
//! hand-rolled lexer, no syn, consistent with the vendored-only policy)
//! over the workspace's Rust sources with five rules wired to this
//! codebase's real invariants (see [`rules`]), deny/warn severities,
//! deterministic ordered diagnostics, a machine-readable JSON report, and
//! inline suppressions that *require* a written reason:
//!
//! ```text
//! // simlint: allow(unordered-collection, reason = "keyed lookups only; never iterated")
//! ```
//!
//! Run it over the workspace with `cargo run -p simlint -- check` (CI runs
//! it with `--json` and uploads the report). The golden fixture tests under
//! `tests/fixtures/` pin each rule's positive, suppressed, rejected-
//! suppression and clean behaviour byte for byte.

pub mod diag;
pub mod rules;
pub mod scan;
pub mod suppress;

pub use diag::{Diagnostic, Severity, Summary, SuppressionRecord};
pub use rules::FileCtx;

use std::path::{Path, PathBuf};

/// The outcome of linting one source file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Findings, in canonical order, suppressed ones included.
    pub diagnostics: Vec<Diagnostic>,
    /// Every parsed suppression, for the audit section of the report.
    pub suppressions: Vec<SuppressionRecord>,
}

/// Lints one file's source text under a workspace-relative `path` (the path
/// drives rule scoping — crate directory, test-ness, seam allowlists).
pub fn lint_source(path: &str, source: &str) -> FileOutcome {
    let ctx = FileCtx::from_path(path);
    let file = scan::scan(source);

    let (mut sups, malformed) = suppress::parse_suppressions(&file);
    let mut raw = malformed;
    rules::run_rules(&ctx, &file, &mut raw);

    let mut diagnostics = Vec::with_capacity(raw.len());
    for hit in raw {
        let mut suppressed = None;
        if hit.rule != rules::MALFORMED_SUPPRESSION {
            for sup in sups.iter_mut() {
                let applies = sup.rule == hit.rule
                    && match sup.scope {
                        suppress::Scope::File => true,
                        suppress::Scope::Line => sup.target == Some(hit.line),
                    };
                if applies {
                    sup.used = true;
                    suppressed = Some(sup.reason.clone());
                    break;
                }
            }
        }
        diagnostics.push(Diagnostic {
            path: ctx.path.clone(),
            line: hit.line + 1,
            column: hit.column,
            rule: hit.rule,
            severity: rules::severity_of(hit.rule),
            message: hit.message,
            suppressed,
        });
    }
    for sup in &sups {
        if !sup.used {
            diagnostics.push(Diagnostic {
                path: ctx.path.clone(),
                line: sup.line + 1,
                column: 1,
                rule: rules::UNUSED_SUPPRESSION,
                severity: rules::severity_of(rules::UNUSED_SUPPRESSION),
                message: format!(
                    "allow({}) matched no finding; remove it or fix its placement",
                    sup.rule
                ),
                suppressed: None,
            });
        }
    }
    diag::sort_diagnostics(&mut diagnostics);

    let suppressions = sups
        .into_iter()
        .map(|s| SuppressionRecord {
            path: ctx.path.clone(),
            line: s.line + 1,
            rule: s.rule,
            reason: s.reason,
            scope: match s.scope {
                suppress::Scope::Line => "line",
                suppress::Scope::File => "file",
            },
            used: s.used,
        })
        .collect();

    FileOutcome {
        diagnostics,
        suppressions,
    }
}

/// The outcome of linting a whole workspace tree.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings in canonical (path, line, column, rule) order.
    pub diagnostics: Vec<Diagnostic>,
    /// All suppressions in path, line order.
    pub suppressions: Vec<SuppressionRecord>,
}

impl WorkspaceReport {
    /// Whether the run must exit nonzero (any unsuppressed deny finding).
    pub fn failed(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.suppressed.is_none() && d.severity == Severity::Deny)
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        diag::render_report(&self.diagnostics)
    }

    /// Renders the machine-readable JSON report.
    pub fn render_json(&self) -> String {
        let rules: Vec<_> = rules::REGISTRY.to_vec();
        diag::render_json_report(
            &rules,
            self.files_scanned,
            &self.diagnostics,
            &self.suppressions,
        )
    }
}

/// Directories never scanned: build output, vendored third-party code, VCS
/// metadata, and simlint's own rule fixtures (which are deliberate
/// violations).
const SKIP_DIRS: [&str; 3] = ["target", "vendor", ".git"];
const SKIP_PREFIXES: [&str; 1] = ["crates/simlint/tests/fixtures"];

/// Lints every workspace `.rs` file under `root`.
pub fn lint_workspace(root: &Path) -> Result<WorkspaceReport, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)
        .map_err(|e| format!("walking {}: {e}", root.display()))?;
    files.sort();

    let mut report = WorkspaceReport::default();
    for rel in files {
        let full = root.join(&rel);
        let source = std::fs::read_to_string(&full)
            .map_err(|e| format!("reading {}: {e}", full.display()))?;
        let outcome = lint_source(&rel, &source);
        report.files_scanned += 1;
        report.diagnostics.extend(outcome.diagnostics);
        report.suppressions.extend(outcome.suppressions);
    }
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .map_err(|e| std::io::Error::other(e.to_string()))?
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            if SKIP_PREFIXES.iter().any(|p| rel == *p) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppressed_finding_counts_as_allowed_not_deny() {
        let out = lint_source(
            "crates/ftl-base/src/x.rs",
            "use std::collections::HashMap; // simlint: allow(unordered-collection, \
             reason = \"keyed lookups only\")\n",
        );
        assert_eq!(out.diagnostics.len(), 1);
        assert!(out.diagnostics[0].suppressed.is_some());
        assert!(out.suppressions[0].used);
        let report = WorkspaceReport {
            files_scanned: 1,
            diagnostics: out.diagnostics,
            suppressions: out.suppressions,
        };
        assert!(!report.failed());
    }

    #[test]
    fn reasonless_allow_is_rejected_and_the_finding_survives() {
        let out = lint_source(
            "crates/ftl-base/src/x.rs",
            "use std::collections::HashMap; // simlint: allow(unordered-collection)\n",
        );
        let rules: Vec<_> = out.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&rules::MALFORMED_SUPPRESSION));
        assert!(rules.contains(&rules::UNORDERED_COLLECTION));
        assert!(out.diagnostics.iter().all(|d| d.suppressed.is_none()));
    }

    #[test]
    fn file_scope_allow_covers_every_hit_of_its_rule() {
        let out = lint_source(
            "crates/ftl-base/src/x.rs",
            "// simlint: allow-file(unordered-collection, reason = \"lookup-only maps\")\n\
             use std::collections::HashMap;\nstruct S { m: HashMap<u8, u8> }\n",
        );
        assert_eq!(out.diagnostics.len(), 2);
        assert!(out.diagnostics.iter().all(|d| d.suppressed.is_some()));
    }

    #[test]
    fn unused_allow_warns_but_does_not_fail() {
        let out = lint_source(
            "crates/ftl-base/src/x.rs",
            "// simlint: allow(wall-clock, reason = \"nothing here\")\nlet x = 1;\n",
        );
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, rules::UNUSED_SUPPRESSION);
        assert_eq!(out.diagnostics[0].severity, Severity::Warn);
    }
}
