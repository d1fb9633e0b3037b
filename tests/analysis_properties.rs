//! Property tests for the trace-analysis engine (`metrics::analysis`):
//! arbitrary traced workloads over the full FTL matrix must satisfy the
//! latency-decomposition invariant, and the rendered report must be a
//! deterministic pure function of the trace — identical across repeated
//! analyses.

use harness::experiments::{fio_qd_sharded_traced_run, ExperimentScale};
use learnedftl_suite::prelude::*;
use proptest::prelude::*;
use ssd_sim::Geometry;

/// Same sizing rationale as the trace-determinism suite: a device every
/// swept shard count divides cleanly, deeper for LearnedFTL's group rows.
fn device(kind: FtlKind) -> SsdConfig {
    let blocks = if kind == FtlKind::LearnedFtl { 16 } else { 8 };
    SsdConfig::tiny()
        .with_geometry(Geometry::new(4, 2, 1, blocks, 256, 4096))
        .with_op_ratio(0.4)
}

/// A smaller-than-quick measured phase: each proptest case pays for a full
/// warm-up plus a measured run, so the measured phase itself can be
/// short — the decomposition invariant is per-request, not statistical.
fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        warmup_io_pages: 32,
        warmup_overwrites: 1,
        ops_per_stream: 60,
        single_stream_ops: 500,
    }
}

fn kind_strategy() -> impl Strategy<Value = FtlKind> {
    prop_oneof![
        Just(FtlKind::Dftl),
        Just(FtlKind::Tpftl),
        Just(FtlKind::LeaFtl),
        Just(FtlKind::LearnedFtl),
        Just(FtlKind::Ideal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For an arbitrary (FTL, thread count, queue depth, shard count) traced
    /// workload: every request's decomposition components are individually
    /// bounded by and sum exactly to its measured latency, the analysis
    /// covers every completed request, and the rendered JSON is byte-stable
    /// across repeated analyses (which also pins the top-K exemplar
    /// selection as deterministic).
    #[test]
    fn prop_decomposition_sums_and_analysis_is_deterministic(
        kind in kind_strategy(),
        threads in 1usize..5,
        depth in 1usize..9,
        shards_idx in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shards_idx];
        let simulated = fio_qd_sharded_traced_run(
            kind,
            FioPattern::RandRead,
            threads,
            depth,
            shards,
            device(kind),
            tiny_scale(),
        );

        let analysis = metrics::analyze(&simulated.result.trace);
        prop_assert_eq!(
            analysis.requests.len() as u64,
            simulated.result.requests,
            "{} shards={}: analysis must cover every completed request",
            kind, shards
        );
        for r in &analysis.requests {
            let latency = r.latency_ns();
            prop_assert_eq!(
                r.components_sum_ns(), latency,
                "{} req {}: components must sum to measured latency",
                kind, r.req
            );
            for (name, value) in [
                ("queue_wait", r.queue_wait_ns),
                ("translation", r.translation_ns),
                ("nand", r.nand_ns),
                ("bus", r.bus_ns),
                ("gc", r.gc_ns),
            ] {
                prop_assert!(
                    value <= latency,
                    "{} req {}: {} component exceeds latency", kind, r.req, name
                );
            }
        }

        let json = metrics::analysis_json(&simulated.result.trace, "property");
        let validated = metrics::validate_analysis_json(&json);
        prop_assert!(validated.is_ok(), "analysis must validate: {:?}", validated);
        prop_assert_eq!(
            &json,
            &metrics::analysis_json(&simulated.result.trace, "property"),
            "repeated analysis of the same trace must be byte-identical"
        );

    }
}
