//! Schema checker for the machine-readable `BENCH_*.json` wall-clock
//! benchmark artifacts (`fig27_throughput` writes the first one).
//!
//! A BENCH artifact records how fast the *simulator* ran — requests/sec and
//! trace events/sec of wall clock per (FTL, shards) configuration —
//! so later optimisation PRs have a trajectory to regress against. Unlike
//! `analysis.json` the numbers are inherently nondeterministic (they measure
//! the host), so CI validates the **shape** and the embedded self-consistency
//! verdicts rather than bytes: [`validate_bench_artifact`] checks the schema
//! tag, that every run carries finite non-negative rates and positive request
//! counts, and that every recorded `checks` flag is `true`.

use crate::json::{Json, JsonParser};

/// Schema tag required at the top of a BENCH artifact.
pub const BENCH_SCHEMA: &str = "learnedftl-bench-v1";

/// What [`validate_bench_artifact`] observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BenchArtifactSummary {
    /// Entries in the `runs` array.
    pub runs: usize,
    /// Sum of the runs' request counts.
    pub total_requests: u64,
    /// Self-consistency flags verified `true` (runs' plus top-level).
    pub checks_passed: usize,
}

fn numeric(v: Option<&Json>, what: &str) -> Result<f64, String> {
    v.and_then(Json::as_number)
        .filter(|n| n.is_finite() && *n >= 0.0)
        .ok_or_else(|| format!("missing finite non-negative numeric {what}"))
}

fn string(v: Option<&Json>, what: &str) -> Result<(), String> {
    if v.and_then(Json::as_str).is_some_and(|s| !s.is_empty()) {
        Ok(())
    } else {
        Err(format!("missing non-empty string {what}"))
    }
}

/// Counts the flags of a `checks` object, failing on the first one that is
/// not `true` (a benchmark must not ship an artifact whose own
/// self-consistency checks failed).
fn all_checks_true(v: Option<&Json>, what: &str) -> Result<usize, String> {
    let fields = v
        .and_then(Json::as_object)
        .ok_or_else(|| format!("missing {what} object"))?;
    for (key, value) in fields {
        if value.as_bool() != Some(true) {
            return Err(format!("{what}.{key} is not true"));
        }
    }
    Ok(fields.len())
}

/// Validates a `BENCH_*.json` document against the [`BENCH_SCHEMA`] shape.
///
/// # Errors
///
/// Returns a description of the first malformed construct or failed
/// self-consistency flag.
pub fn validate_bench_artifact(json: &str) -> Result<BenchArtifactSummary, String> {
    let doc = JsonParser::new(json).parse_document()?;
    if doc.get("schema").and_then(Json::as_str) != Some(BENCH_SCHEMA) {
        return Err(format!("schema must be {BENCH_SCHEMA:?}"));
    }
    string(doc.get("bench"), "bench")?;
    string(doc.get("scale"), "scale")?;
    numeric(doc.get("host_cores"), "host_cores")?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("missing runs array")?;
    if runs.is_empty() {
        return Err("runs array is empty".into());
    }
    let mut summary = BenchArtifactSummary {
        runs: runs.len(),
        ..BenchArtifactSummary::default()
    };
    for (i, run) in runs.iter().enumerate() {
        let at = |f: &str| format!("runs[{i}].{f}");
        string(run.get("ftl"), &at("ftl"))?;
        let shards = numeric(run.get("shards"), &at("shards"))?;
        if shards < 1.0 {
            return Err(format!("{}: must be >= 1", at("shards")));
        }
        let requests = numeric(run.get("requests"), &at("requests"))?;
        if requests < 1.0 {
            return Err(format!(
                "{}: benchmark run completed no requests",
                at("requests")
            ));
        }
        summary.total_requests += requests as u64;
        numeric(run.get("sim_elapsed_ns"), &at("sim_elapsed_ns"))?;
        numeric(run.get("wall_s"), &at("wall_s"))?;
        numeric(run.get("requests_per_sec"), &at("requests_per_sec"))?;
        numeric(run.get("traced_wall_s"), &at("traced_wall_s"))?;
        let events = numeric(run.get("trace_events"), &at("trace_events"))?;
        if events < requests {
            // Every completed request records at least its own host span.
            return Err(format!(
                "runs[{i}]: trace_events ({events}) < requests ({requests})"
            ));
        }
        numeric(run.get("events_per_sec"), &at("events_per_sec"))?;
        summary.checks_passed += all_checks_true(run.get("checks"), &at("checks"))?;
    }
    summary.checks_passed += all_checks_true(doc.get("checks"), "checks")?;
    Ok(summary)
}

/// Schema tag required at the top of a BENCH floors document.
pub const BENCH_FLOORS_SCHEMA: &str = "learnedftl-bench-floors-v1";

/// What [`check_bench_floors`] observed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BenchFloorSummary {
    /// Floors checked (every one matched a run and held).
    pub floors: usize,
    /// The smallest measured/floor ratio across them (`> 1` means head-room).
    pub tightest_margin: f64,
}

/// Shard counts are integral: normalise a parsed number before comparing so
/// a hand-edited `4.0` (or a formatter's `4.00000000001`) still matches an
/// artifact's `4`, instead of silently failing f64 equality and reporting a
/// misleading "stale floor".
fn integral_shards(n: f64, what: &str) -> Result<u64, String> {
    let rounded = n.round();
    if (n - rounded).abs() > 1e-6 || rounded < 0.0 {
        return Err(format!("{what}: shard count {n} is not an integer"));
    }
    Ok(rounded as u64)
}

/// The `(ftl, shards)` key a floor or a run is matched on.
fn run_key(entry: &Json) -> Option<(&str, u64)> {
    let ftl = entry.get("ftl").and_then(Json::as_str)?;
    let shards = entry
        .get("shards")
        .and_then(Json::as_number)
        .and_then(|n| integral_shards(n, "shards").ok())?;
    Some((ftl, shards))
}

/// Checks a BENCH artifact against a checked-in floors document. The floors
/// and the runs must pair up one to one by `(ftl, shards)`: every floor
/// matches exactly one run, every run is matched by exactly one floor, and
/// each run's `requests_per_sec` must be at or above its floor's
/// `min_requests_per_sec`. An empty floor list is rejected, so the gate can
/// never pass without checking anything.
///
/// This is the regression gate for the wall-clock trajectory: the floors are
/// deliberately conservative (CI hosts are shared and noisy), so a failure
/// means the simulator got *much* slower, not that a run was unlucky.
///
/// # Errors
///
/// Returns a description of the first malformed construct, unmatched floor,
/// ungated run, or floor violation.
pub fn check_bench_floors(artifact: &str, floors: &str) -> Result<BenchFloorSummary, String> {
    let artifact = JsonParser::new(artifact).parse_document()?;
    let doc = JsonParser::new(floors).parse_document()?;
    if doc.get("schema").and_then(Json::as_str) != Some(BENCH_FLOORS_SCHEMA) {
        return Err(format!("floors schema must be {BENCH_FLOORS_SCHEMA:?}"));
    }
    let artifact_bench = artifact.get("bench").and_then(Json::as_str);
    let floors_bench = doc.get("bench").and_then(Json::as_str);
    if artifact_bench != floors_bench || floors_bench.is_none() {
        return Err(format!(
            "floors are for bench {floors_bench:?} but the artifact is {artifact_bench:?}"
        ));
    }
    let runs = artifact
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("artifact has no runs array")?;
    let floor_list = doc
        .get("floors")
        .and_then(Json::as_array)
        .ok_or("missing floors array")?;
    if floor_list.is_empty() {
        return Err("floors array is empty: the gate would check nothing".into());
    }
    let describe = |key: Option<(&str, u64)>| match key {
        Some((ftl, shards)) => format!("({ftl}, shards={shards})"),
        None => "(?, shards=?)".to_string(),
    };
    let mut summary = BenchFloorSummary {
        floors: floor_list.len(),
        tightest_margin: f64::INFINITY,
    };
    let mut covered = vec![0usize; runs.len()];
    for (i, floor) in floor_list.iter().enumerate() {
        let at = |f: &str| format!("floors[{i}].{f}");
        let ftl = floor
            .get("ftl")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing {}", at("ftl")))?;
        let shards = integral_shards(numeric(floor.get("shards"), &at("shards"))?, &at("shards"))?;
        let min = numeric(
            floor.get("min_requests_per_sec"),
            &at("min_requests_per_sec"),
        )?;
        if min <= 0.0 {
            return Err(format!("{}: must be positive", at("min_requests_per_sec")));
        }
        let matches: Vec<usize> = (0..runs.len())
            .filter(|&r| run_key(&runs[r]) == Some((ftl, shards)))
            .collect();
        let run = match matches.as_slice() {
            [run] => *run,
            [] => {
                let available: Vec<String> = runs.iter().map(|r| describe(run_key(r))).collect();
                return Err(format!(
                    "floor ({ftl}, shards={shards}) matches no run — \
                     the floors file is stale; the artifact sweeps [{}]",
                    available.join(", ")
                ));
            }
            _ => {
                return Err(format!(
                    "floor ({ftl}, shards={shards}) matches {} runs",
                    matches.len()
                ))
            }
        };
        covered[run] += 1;
        let measured = numeric(
            runs[run].get("requests_per_sec"),
            "matched run requests_per_sec",
        )?;
        if measured < min {
            return Err(format!(
                "REGRESSION: ({ftl}, shards={shards}) ran at {measured:.0} \
                 requests/s, below the floor of {min:.0}"
            ));
        }
        summary.tightest_margin = summary.tightest_margin.min(measured / min);
    }
    for (run, &count) in runs.iter().zip(&covered) {
        match count {
            1 => {}
            0 => {
                return Err(format!(
                    "run {} has no floor — every run the artifact sweeps must be gated",
                    describe(run_key(run))
                ))
            }
            n => {
                return Err(format!(
                    "run {} is matched by {n} floors — list each configuration once",
                    describe(run_key(run))
                ))
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(run_tail: &str, top_checks: &str) -> String {
        format!(
            "{{\"schema\":\"{BENCH_SCHEMA}\",\"bench\":\"fig27_throughput\",\
             \"scale\":\"quick\",\"host_cores\":4,\"runs\":[{{\
             \"ftl\":\"learnedftl\",\"shards\":1,\
             \"requests\":800,\"sim_elapsed_ns\":123456,\"wall_s\":0.25,\
             \"requests_per_sec\":3200.0,\"traced_wall_s\":0.30,\
             \"trace_events\":9000,\"events_per_sec\":30000.0,{run_tail}}}],\
             \"checks\":{top_checks}}}"
        )
    }

    #[test]
    fn accepts_a_well_formed_artifact() {
        let json = artifact(
            "\"checks\":{\"traced_matches_untraced\":true,\"rates_finite\":true}",
            "{\"all_runs_checked\":true}",
        );
        let summary = validate_bench_artifact(&json).expect("valid artifact");
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.total_requests, 800);
        assert_eq!(summary.checks_passed, 3);
    }

    #[test]
    fn rejects_failed_self_consistency_checks() {
        let json = artifact(
            "\"checks\":{\"traced_matches_untraced\":false}",
            "{\"all_runs_checked\":true}",
        );
        let err = validate_bench_artifact(&json).unwrap_err();
        assert!(err.contains("traced_matches_untraced"), "{err}");
    }

    #[test]
    fn rejects_wrong_schema_and_shape() {
        assert!(validate_bench_artifact("{\"schema\":\"other\"}").is_err());
        assert!(validate_bench_artifact("not json").is_err());
        let no_runs = format!(
            "{{\"schema\":\"{BENCH_SCHEMA}\",\"bench\":\"b\",\"scale\":\"quick\",\
             \"host_cores\":1,\"runs\":[],\"checks\":{{}}}}"
        );
        assert!(validate_bench_artifact(&no_runs).is_err(), "empty runs");
    }

    fn floors(entries: &str) -> String {
        format!(
            "{{\"schema\":\"{BENCH_FLOORS_SCHEMA}\",\"bench\":\"fig27_throughput\",\
             \"floors\":[{entries}]}}"
        )
    }

    #[test]
    fn floors_pass_when_measured_rate_clears_them() {
        let artifact = artifact("\"checks\":{}", "{}");
        let floors = floors(
            "{\"ftl\":\"learnedftl\",\"shards\":1,\
             \"min_requests_per_sec\":1600.0}",
        );
        let summary = check_bench_floors(&artifact, &floors).expect("floor holds");
        assert_eq!(summary.floors, 1);
        assert!((summary.tightest_margin - 2.0).abs() < 1e-9, "3200 / 1600");
    }

    #[test]
    fn floors_fail_on_regression_or_staleness() {
        let artifact = artifact("\"checks\":{}", "{}");
        // The measured 3200 req/s is below a 4000 floor.
        let regressed = floors(
            "{\"ftl\":\"learnedftl\",\"shards\":1,\
             \"min_requests_per_sec\":4000.0}",
        );
        let err = check_bench_floors(&artifact, &regressed).unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
        // A floor naming a configuration the artifact no longer sweeps is a
        // stale-floors error, not a silent pass.
        let stale = floors(
            "{\"ftl\":\"learnedftl\",\"shards\":8,\
             \"min_requests_per_sec\":1.0}",
        );
        let err = check_bench_floors(&artifact, &stale).unwrap_err();
        assert!(err.contains("stale"), "{err}");
        // Wrong schema or mismatched bench name must be rejected outright.
        assert!(check_bench_floors(&artifact, "{\"schema\":\"other\"}").is_err());
        let wrong_bench = floors("").replace("fig27_throughput", "fig99");
        assert!(check_bench_floors(&artifact, &wrong_bench).is_err());
    }

    #[test]
    fn floors_reject_an_empty_floor_list() {
        let artifact = artifact("\"checks\":{}", "{}");
        let err = check_bench_floors(&artifact, &floors("")).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn floors_reject_a_run_no_floor_covers() {
        // A second run (shards=4) beside the helper's shards=1 run.
        let two_runs = artifact("\"checks\":{}", "{}").replace(
            "}],\"checks\"",
            "},{\"ftl\":\"learnedftl\",\"shards\":4,\"requests\":800,\
             \"sim_elapsed_ns\":1,\"wall_s\":0.25,\"requests_per_sec\":3200.0,\
             \"traced_wall_s\":0.30,\"trace_events\":9000,\"events_per_sec\":1.0,\
             \"checks\":{}}],\"checks\"",
        );
        validate_bench_artifact(&two_runs).expect("valid two-run artifact");
        let one = "{\"ftl\":\"learnedftl\",\"shards\":1,\"min_requests_per_sec\":1600.0}";
        let four = "{\"ftl\":\"learnedftl\",\"shards\":4,\"min_requests_per_sec\":1600.0}";
        // The shards=4 run has no floor: it must not go ungated.
        let err = check_bench_floors(&two_runs, &floors(one)).unwrap_err();
        assert!(
            err.contains("no floor") && err.contains("(learnedftl, shards=4)"),
            "{err}"
        );
        // Covering both runs once each passes.
        let both = floors(&format!("{one},{four}"));
        assert_eq!(
            check_bench_floors(&two_runs, &both).expect("gated").floors,
            2
        );
        // A run matched by two floors is a duplicated floor entry.
        let twice = floors(&format!("{one},{one},{four}"));
        let err = check_bench_floors(&two_runs, &twice).unwrap_err();
        assert!(err.contains("matched by 2 floors"), "{err}");
    }

    #[test]
    fn floors_match_shards_across_numeric_spellings() {
        // A hand-edited floors file writing `1.0` (or a float-formatter's
        // `1.00000000001`) must match the artifact's integral `1` instead of
        // silently failing f64 equality and claiming the floor is stale.
        let artifact = artifact("\"checks\":{}", "{}");
        for spelling in ["1.0", "1.00000000001", "0.9999999999"] {
            let floors = floors(&format!(
                "{{\"ftl\":\"learnedftl\",\
                 \"shards\":{spelling},\"min_requests_per_sec\":1600.0}}"
            ));
            let summary = check_bench_floors(&artifact, &floors)
                .unwrap_or_else(|e| panic!("shards={spelling} must match: {e}"));
            assert_eq!(summary.floors, 1);
        }
        // A genuinely non-integral shard count is a malformed floor, not a
        // stale one.
        let bad = floors(
            "{\"ftl\":\"learnedftl\",\"shards\":1.5,\
             \"min_requests_per_sec\":1600.0}",
        );
        let err = check_bench_floors(&artifact, &bad).unwrap_err();
        assert!(err.contains("not an integer"), "{err}");
        // The stale-floor message now names the artifact's configurations.
        let stale = floors(
            "{\"ftl\":\"learnedftl\",\"shards\":2,\
             \"min_requests_per_sec\":1.0}",
        );
        let err = check_bench_floors(&artifact, &stale).unwrap_err();
        assert!(
            err.contains("stale") && err.contains("(learnedftl, shards=1)"),
            "{err}"
        );
    }

    #[test]
    fn rejects_impossible_rates_and_counts() {
        // trace_events below requests is impossible for a traced run.
        let json =
            artifact("\"checks\":{}", "{}").replace("\"trace_events\":9000", "\"trace_events\":10");
        assert!(validate_bench_artifact(&json).is_err());
        // Infinite rate must be rejected even if formatted as a huge number
        // string; a missing field certainly is.
        let json = artifact("\"checks\":{}", "{}").replace("\"requests_per_sec\":3200.0,", "");
        assert!(validate_bench_artifact(&json).is_err());
    }
}
