//! The rule registry: the five workspace invariants simlint enforces.
//!
//! Rules are token-level checks over the scanner's code view (comments and
//! literal contents already blanked), each wired to a real invariant of this
//! reproduction:
//!
//! 1. `unordered-collection` — the headline results are gated on bit-for-bit
//!    determinism across processes; `HashMap`/`HashSet`
//!    iteration order is seeded per process and has already caused one
//!    shipped bug (the PR 1 CMT `HashMap`→`BTreeMap` fix).
//! 2. `wall-clock` — simulated time must be a pure function of the workload;
//!    host-clock reads belong in the one profiling seam
//!    (`crates/ssd-sim/src/wallclock.rs`).
//! 3. `unseeded-rng` — workloads and tests must be replayable; randomness
//!    comes from seeded constructors, never OS entropy.
//! 4. `unsafe-without-safety-comment` — every `unsafe` needs an adjacent
//!    `// SAFETY:` justification (only the opt-in counting allocator should
//!    carry any).
//! 5. `float-order` — float summation/comparison order can diverge between
//!    runs that merge the same values in a different order; metrics and
//!    result paths stay on integers or total orders.

use crate::scan::ScannedFile;
use crate::Severity;

/// Crates whose state feeds simulated results (scope of `unordered-collection`).
pub const SIM_STATE_CRATES: [&str; 7] = [
    "baselines",
    "core",
    "ftl-base",
    "ftl-shard",
    "learned-index",
    "ssd-sched",
    "ssd-sim",
];

/// Crates whose aggregation feeds reported numbers (scope of `float-order`).
pub const FLOAT_ORDER_CRATES: [&str; 2] = ["harness", "metrics"];

/// The single module allowed to read the host clock.
pub const WALLCLOCK_SEAM: &str = "crates/ssd-sim/src/wallclock.rs";

/// Rule name constants, shared with suppression parsing.
pub const UNORDERED_COLLECTION: &str = "unordered-collection";
/// See [`UNORDERED_COLLECTION`].
pub const WALL_CLOCK: &str = "wall-clock";
/// See [`UNORDERED_COLLECTION`].
pub const UNSEEDED_RNG: &str = "unseeded-rng";
/// See [`UNORDERED_COLLECTION`].
pub const UNSAFE_WITHOUT_SAFETY: &str = "unsafe-without-safety-comment";
/// See [`UNORDERED_COLLECTION`].
pub const FLOAT_ORDER: &str = "float-order";
/// Engine rule: a `simlint:` comment that does not parse or lacks a reason.
pub const MALFORMED_SUPPRESSION: &str = "malformed-suppression";
/// Engine rule: an allow that matched no finding.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// Name, severity and one-line description of every rule, in registry order.
pub const REGISTRY: [(&str, Severity, &str); 7] = [
    (
        UNORDERED_COLLECTION,
        Severity::Deny,
        "HashMap/HashSet in simulation-state crates: iteration order is \
         nondeterministic across processes and can leak into results",
    ),
    (
        WALL_CLOCK,
        Severity::Deny,
        "Instant::now/SystemTime outside the wallclock profiling seam: \
         simulated time must be a pure function of the workload",
    ),
    (
        UNSEEDED_RNG,
        Severity::Deny,
        "randomness from OS entropy: all RNGs must use seeded constructors \
         so runs are replayable",
    ),
    (
        UNSAFE_WITHOUT_SAFETY,
        Severity::Deny,
        "unsafe block/impl/fn without an adjacent // SAFETY: comment",
    ),
    (
        FLOAT_ORDER,
        Severity::Deny,
        "order-sensitive float accumulation or comparison in metrics/result \
         paths: summation order can diverge across backends",
    ),
    (
        MALFORMED_SUPPRESSION,
        Severity::Deny,
        "simlint allow comment that does not parse or carries no reason",
    ),
    (
        UNUSED_SUPPRESSION,
        Severity::Warn,
        "simlint allow comment that matched no finding",
    ),
];

/// Looks up a rule's default severity.
pub fn severity_of(rule: &str) -> Severity {
    REGISTRY
        .iter()
        .find(|(name, _, _)| *name == rule)
        .map(|&(_, severity, _)| severity)
        .unwrap_or(Severity::Deny)
}

/// Whether `rule` names a registered (suppressible) source rule.
pub fn is_known_rule(rule: &str) -> bool {
    [
        UNORDERED_COLLECTION,
        WALL_CLOCK,
        UNSEEDED_RNG,
        UNSAFE_WITHOUT_SAFETY,
        FLOAT_ORDER,
    ]
    .contains(&rule)
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The `crates/<dir>` component, or empty for root-level sources.
    pub crate_dir: String,
    /// Whether the file is test-only (under a `tests/` or `benches/` dir).
    pub is_test_file: bool,
}

impl FileCtx {
    /// Derives the context from a workspace-relative path.
    pub fn from_path(path: &str) -> FileCtx {
        let crate_dir = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("")
            .to_string();
        let is_test_file =
            path.contains("/tests/") || path.contains("/benches/") || path.starts_with("tests/");
        FileCtx {
            path: path.to_string(),
            crate_dir,
            is_test_file,
        }
    }
}

/// A rule match before suppression processing (0-based line).
#[derive(Debug, Clone)]
pub struct RawHit {
    /// 0-based line index of the match.
    pub line: usize,
    /// 1-based byte column of the match.
    pub column: usize,
    /// The rule that fired.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Byte offsets of whole-word occurrences of `pat` (an identifier or a
/// `::`-path pattern) in `code`: the match must not be flanked by
/// identifier characters, so `FxHashMap` and `unsafe_code` never match
/// `HashMap` resp. `unsafe`, while `std::collections::HashMap` does.
fn occurrences(code: &str, pat: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let end = at + pat.len();
        let after_ok = end >= bytes.len() || {
            let b = bytes[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            found.push(at);
        }
        from = at + pat.len().max(1);
    }
    found
}

/// Runs every rule over one scanned file.
pub fn run_rules(ctx: &FileCtx, file: &ScannedFile, out: &mut Vec<RawHit>) {
    unordered_collection(ctx, file, out);
    wall_clock(ctx, file, out);
    unseeded_rng(ctx, file, out);
    unsafe_without_safety(ctx, file, out);
    float_order(ctx, file, out);
}

fn in_scope_non_test(ctx: &FileCtx, file: &ScannedFile, line: usize) -> bool {
    !ctx.is_test_file && !file.test_region.get(line).copied().unwrap_or(false)
}

fn unordered_collection(ctx: &FileCtx, file: &ScannedFile, out: &mut Vec<RawHit>) {
    if !SIM_STATE_CRATES.contains(&ctx.crate_dir.as_str()) {
        return;
    }
    for (li, line) in file.lines.iter().enumerate() {
        if !in_scope_non_test(ctx, file, li) {
            continue;
        }
        for ident in ["HashMap", "HashSet"] {
            for col in occurrences(&line.code, ident) {
                out.push(RawHit {
                    line: li,
                    column: col + 1,
                    rule: UNORDERED_COLLECTION,
                    message: format!(
                        "{ident} in simulation-state crate '{}': iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet or add a justified allow \
                         proving iteration order never reaches results",
                        ctx.crate_dir
                    ),
                });
            }
        }
    }
}

fn wall_clock(ctx: &FileCtx, file: &ScannedFile, out: &mut Vec<RawHit>) {
    if ctx.path == WALLCLOCK_SEAM {
        return;
    }
    for (li, line) in file.lines.iter().enumerate() {
        for pat in ["Instant::now", "SystemTime", "UNIX_EPOCH"] {
            for col in occurrences(&line.code, pat) {
                out.push(RawHit {
                    line: li,
                    column: col + 1,
                    rule: WALL_CLOCK,
                    message: format!(
                        "{pat} outside the profiling seam ({WALLCLOCK_SEAM}): go through \
                         ssd_sim::wallclock::WallTimer so sim-path code cannot read the \
                         host clock"
                    ),
                });
            }
        }
    }
}

fn unseeded_rng(_ctx: &FileCtx, file: &ScannedFile, out: &mut Vec<RawHit>) {
    for (li, line) in file.lines.iter().enumerate() {
        for pat in [
            "thread_rng",
            "ThreadRng",
            "from_entropy",
            "OsRng",
            "getrandom",
            "rand::random",
        ] {
            for col in occurrences(&line.code, pat) {
                out.push(RawHit {
                    line: li,
                    column: col + 1,
                    rule: UNSEEDED_RNG,
                    message: format!(
                        "{pat}: OS-entropy randomness makes runs unreplayable; construct \
                         RNGs from a fixed seed (e.g. StdRng::seed_from_u64)"
                    ),
                });
            }
        }
    }
}

/// `unsafe` must carry a `// SAFETY:` on the same line or in the contiguous
/// comment/attribute block directly above it — one justification per unsafe
/// item, so an `unsafe fn` inside an `unsafe impl` cannot ride on the
/// impl's comment.
fn unsafe_without_safety(_ctx: &FileCtx, file: &ScannedFile, out: &mut Vec<RawHit>) {
    for (li, line) in file.lines.iter().enumerate() {
        for col in occurrences(&line.code, "unsafe") {
            let mut justified = line.comment.contains("SAFETY:");
            let mut up = li;
            while !justified && up > 0 {
                up -= 1;
                let above = &file.lines[up];
                if !above.is_passive() {
                    break;
                }
                justified = above.comment.contains("SAFETY:");
            }
            if !justified {
                out.push(RawHit {
                    line: li,
                    column: col + 1,
                    rule: UNSAFE_WITHOUT_SAFETY,
                    message: "unsafe without an adjacent // SAFETY: comment: state the \
                              invariant that makes this sound directly above the unsafe \
                              item"
                        .to_string(),
                });
            }
        }
    }
}

fn float_order(ctx: &FileCtx, file: &ScannedFile, out: &mut Vec<RawHit>) {
    if !FLOAT_ORDER_CRATES.contains(&ctx.crate_dir.as_str()) {
        return;
    }
    for (li, line) in file.lines.iter().enumerate() {
        if !in_scope_non_test(ctx, file, li) {
            continue;
        }
        for pat in [
            "partial_cmp",
            "sum::<f64>",
            "sum::<f32>",
            "product::<f64>",
            "product::<f32>",
        ] {
            for col in occurrences(&line.code, pat) {
                out.push(RawHit {
                    line: li,
                    column: col + 1,
                    rule: FLOAT_ORDER,
                    message: format!(
                        "{pat} in a metrics/result path: float accumulation and \
                         NaN-partial comparisons depend on evaluation order, which \
                         differs across backends; accumulate in integers or use a \
                         total order"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn hits(path: &str, src: &str) -> Vec<RawHit> {
        let ctx = FileCtx::from_path(path);
        let file = scan(src);
        let mut out = Vec::new();
        run_rules(&ctx, &file, &mut out);
        out
    }

    #[test]
    fn whole_word_matching_rejects_super_and_substrings() {
        assert!(occurrences("FxHashMap::default()", "HashMap").is_empty());
        assert!(occurrences("forbid(unsafe_code)", "unsafe").is_empty());
        assert_eq!(occurrences("let m: HashMap<u8, u8>;", "HashMap"), vec![7]);
        assert_eq!(
            occurrences("std::collections::HashMap::new()", "HashMap"),
            vec![18]
        );
        assert_eq!(
            occurrences("std::time::Instant::now()", "Instant::now"),
            vec![11]
        );
        assert!(occurrences("MyInstant::nower", "Instant::now").is_empty());
    }

    #[test]
    fn unordered_collection_scopes_to_sim_crates_and_skips_tests() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n    \
                   use std::collections::HashSet;\n}\n";
        let in_scope = hits("crates/ftl-base/src/x.rs", src);
        assert_eq!(in_scope.len(), 1);
        assert_eq!(in_scope[0].line, 0);
        assert!(hits("crates/metrics/src/x.rs", src).is_empty());
        assert!(hits("crates/ftl-base/tests/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_allows_only_the_seam() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(hits("crates/harness/src/runner.rs", src).len(), 1);
        assert!(hits("crates/ssd-sim/src/wallclock.rs", src).is_empty());
    }

    #[test]
    fn unsafe_requires_its_own_adjacent_safety_comment() {
        let with = "// SAFETY: delegates to System.\nunsafe impl A for B {}\n";
        assert!(hits("crates/harness/src/x.rs", with).is_empty());
        let inherited = "// SAFETY: impl-level only.\nunsafe impl A for B {\n    \
                         unsafe fn f() {}\n}\n";
        let h = hits("crates/harness/src/x.rs", inherited);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].line, 2);
    }

    #[test]
    fn float_order_flags_partial_cmp_and_float_sums() {
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\nlet s = \
                   v.iter().sum::<f64>();\n";
        assert_eq!(hits("crates/metrics/src/x.rs", src).len(), 2);
        assert!(hits("crates/ssd-sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn unseeded_rng_flags_entropy_sources_everywhere() {
        let src = "let mut rng = rand::thread_rng();\n";
        assert_eq!(hits("crates/workloads/tests/x.rs", src).len(), 1);
        assert!(hits("crates/workloads/src/x.rs", "StdRng::seed_from_u64(7);\n").is_empty());
    }
}
