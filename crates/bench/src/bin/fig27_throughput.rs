//! Simulator throughput benchmark (extension figure 27): how fast the
//! *simulator itself* runs, as a machine-readable `BENCH_fig27.json`
//! artifact.
//!
//! Sweeps FTL × shard count over the same warmed QD16 random-read
//! protocol and records, per configuration:
//!
//! * host requests simulated per wall-clock second (untraced, best of
//!   [`TIMING_REPS`] freshly prepared runs — [`harness::SelfProfile`]),
//! * structured trace events recorded per wall-clock second (one traced
//!   run), so tracing overhead is visible next to the untraced rate,
//! * the per-phase allocation profile when built with
//!   `--features bench/alloc-profile` (the measurement half of the
//!   allocation-free hot-path roadmap item).
//!
//! Unlike the simulated-time figures these numbers measure the host, so the
//! artifact embeds its own self-consistency verdicts instead of promising
//! byte stability: the traced run must reproduce the untraced run's
//! simulated-time results exactly (tracing must observe, not perturb), the
//! recorded event count must match the trace length, and every rate must be finite.
//! `metrics::validate_bench_artifact` re-checks the written artifact (shape,
//! bounds, and that every verdict is `true`); the binary exits non-zero if
//! any check failed. CI runs `--quick` and uploads the artifact so later
//! optimisation PRs have a trajectory to regress against.

use bench::{print_header, print_table_with_verdict, shard_scaling_device, BenchArgs, Scale};
use ftl_base::Ftl;
use harness::alloc_profile::{self, Phase};
use harness::experiments::{warmed_sharded_fio_setup_with, ExperimentScale};
use harness::{FtlKind, Runner, ShardedRunResult};
use learnedftl::LearnedFtlConfig;
use metrics::Table;
use workloads::FioPattern;

const STREAMS: usize = 16;
const DEPTH: usize = 16;
const SHARD_COUNTS: [usize; 2] = [1, 4];
const KINDS: [FtlKind; 2] = [FtlKind::Dftl, FtlKind::LearnedFtl];

/// Untraced timing runs per configuration; the best (lowest-wall) one is
/// reported. Simulated-time results are deterministic, so any rep's
/// measurements can serve as the reference.
const TIMING_REPS: usize = 2;

/// The quick preset's per-stream count is sized for simulated-time smoke
/// checks; a wall-clock rate needs enough requests that the measured loop
/// dominates start-up.
fn throughput_scale(scale: Scale) -> ExperimentScale {
    let mut experiment = scale.experiment();
    experiment.ops_per_stream = experiment.ops_per_stream.max(2_000);
    experiment
}

/// One identically prepared frontend + measured workload.
/// `charge_training_time(false)` keeps LearnedFTL's simulated time a pure
/// function of the workload, which the traced-vs-untraced equivalence check
/// requires.
fn setup(
    kind: FtlKind,
    shards: usize,
    device: ssd_sim::SsdConfig,
    experiment: ExperimentScale,
) -> (
    harness::ShardedFtl<Box<dyn ftl_base::Ftl>>,
    workloads::FioWorkload,
) {
    warmed_sharded_fio_setup_with(
        kind,
        FioPattern::RandRead,
        STREAMS,
        shards,
        device,
        experiment,
        LearnedFtlConfig::default().with_charge_training_time(false),
    )
}

/// Simulated-time equality between two runs of the same configuration (the
/// wall clock is the only thing allowed to differ).
fn same_results(a: &ShardedRunResult, b: &ShardedRunResult) -> bool {
    let (a, b) = (&a.result, &b.result);
    a.requests == b.requests
        && a.elapsed == b.elapsed
        && a.latencies.mean() == b.latencies.mean()
        && a.latencies.max() == b.latencies.max()
        && a.clone().p99() == b.clone().p99()
        && a.device == b.device
}

/// One row of the artifact's `runs` array.
struct BenchRun {
    ftl: String,
    shards: usize,
    requests: u64,
    sim_elapsed_ns: u64,
    wall_s: f64,
    requests_per_sec: f64,
    traced_wall_s: f64,
    trace_events: u64,
    events_per_sec: f64,
    traced_matches_untraced: bool,
    profile_counts_trace: bool,
    rates_finite: bool,
}

impl BenchRun {
    fn checks_pass(&self) -> bool {
        self.traced_matches_untraced && self.profile_counts_trace && self.rates_finite
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"ftl\":\"{}\",\"shards\":{},\"requests\":{},\
             \"sim_elapsed_ns\":{},\"wall_s\":{:.6},\"requests_per_sec\":{:.3},\
             \"traced_wall_s\":{:.6},\"trace_events\":{},\"events_per_sec\":{:.3},\
             \"checks\":{{\"traced_matches_untraced\":{},\
             \"profile_counts_trace\":{},\"rates_finite\":{}}}}}",
            self.ftl,
            self.shards,
            self.requests,
            self.sim_elapsed_ns,
            self.wall_s,
            self.requests_per_sec,
            self.traced_wall_s,
            self.trace_events,
            self.events_per_sec,
            self.traced_matches_untraced,
            self.profile_counts_trace,
            self.rates_finite,
        )
    }
}

fn artifact_json(scale: Scale, cores: usize, runs: &[BenchRun]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"{}\",\"bench\":\"fig27_throughput\",\"scale\":\"{}\",\
         \"host_cores\":{cores},\"alloc_profile\":{{\"enabled\":{},\"phases\":[",
        metrics::bench_artifact::BENCH_SCHEMA,
        format!("{scale:?}").to_lowercase(),
        alloc_profile::enabled(),
    ));
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let stats = alloc_profile::phase_stats(*phase);
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"phase\":\"{}\",\"allocations\":{},\"bytes\":{}}}",
            phase.label(),
            stats.allocations,
            stats.bytes
        ));
    }
    out.push_str("]},\"runs\":[");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&run.to_json());
    }
    out.push_str(&format!(
        "],\"checks\":{{\"all_runs_checked\":{}}}}}\n",
        runs.iter().all(BenchRun::checks_pass),
    ));
    out
}

fn main() {
    alloc_profile::set_phase(Phase::Setup);
    let args = BenchArgs::from_env();
    let scale = args.scale();
    let device = shard_scaling_device(scale);
    let experiment = throughput_scale(scale);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    print_header(
        "Fig. 27 (extension) — simulator throughput (BENCH artifact)",
        "requests/s and trace events/s of wall clock per FTL x shards; \
         the traced run must reproduce the untraced run exactly",
        scale,
    );
    println!(
        "throughput device: {} | host cores: {cores} | streams={STREAMS} depth={DEPTH} \
         requests/stream={}",
        device.geometry, experiment.ops_per_stream
    );
    println!();

    let mut runs: Vec<BenchRun> = Vec::new();
    let mut analysis_source: Option<ShardedRunResult> = None;
    let mut table = Table::new(vec![
        "FTL",
        "shards",
        "wall (s)",
        "req/s",
        "traced wall (s)",
        "events/s",
        "checks",
    ]);

    for &kind in &KINDS {
        for &shards in &SHARD_COUNTS {
            // Untraced: best-of-reps wall clock for the request rate.
            let mut best: Option<ShardedRunResult> = None;
            for _ in 0..TIMING_REPS {
                alloc_profile::set_phase(Phase::Warmup);
                let (mut ftl, mut wl) = setup(kind, shards, device, experiment);
                alloc_profile::set_phase(Phase::Run);
                let run = Runner::new().run_sharded_qd(&mut ftl, &mut wl, DEPTH);
                alloc_profile::set_phase(Phase::Setup);
                best = match best {
                    Some(b) if b.result.profile.wall <= run.result.profile.wall => Some(b),
                    _ => Some(run),
                };
            }
            let untraced = best.expect("TIMING_REPS >= 1");

            // Traced: one run for the event rate and the
            // tracing-does-not-perturb check.
            alloc_profile::set_phase(Phase::Warmup);
            let (mut ftl, mut wl) = setup(kind, shards, device, experiment);
            ftl.set_tracing(true);
            alloc_profile::set_phase(Phase::Run);
            let traced = Runner::new().run_sharded_qd(&mut ftl, &mut wl, DEPTH);
            alloc_profile::set_phase(Phase::Setup);

            let traced_matches_untraced = same_results(&untraced, &traced);
            if !traced_matches_untraced {
                eprintln!("TRACING PERTURBED THE RUN: {kind} shards={shards}");
            }
            let profile_counts_trace = traced.result.profile.trace_events
                == traced.result.trace.len() as u64
                && traced.result.profile.requests == traced.result.requests;
            let untraced_profile = untraced.result.profile;
            let traced_profile = traced.result.profile;
            let rates = [
                untraced_profile.requests_per_sec(),
                traced_profile.events_per_sec(),
            ];
            let rates_finite = rates.iter().all(|r| r.is_finite() && *r >= 0.0)
                && (untraced_profile.wall.as_secs_f64() <= 0.0 || rates[0] > 0.0);

            let run = BenchRun {
                ftl: kind.label().to_string(),
                shards,
                requests: untraced.result.requests,
                sim_elapsed_ns: untraced.result.elapsed.as_nanos(),
                wall_s: untraced_profile.wall.as_secs_f64(),
                requests_per_sec: untraced_profile.requests_per_sec(),
                traced_wall_s: traced_profile.wall.as_secs_f64(),
                trace_events: traced_profile.trace_events,
                events_per_sec: traced_profile.events_per_sec(),
                traced_matches_untraced,
                profile_counts_trace,
                rates_finite,
            };
            table.add_row(vec![
                run.ftl.clone(),
                shards.to_string(),
                format!("{:.3}", run.wall_s),
                format!("{:.0}", run.requests_per_sec),
                format!("{:.3}", run.traced_wall_s),
                format!("{:.0}", run.events_per_sec),
                if run.checks_pass() { "ok" } else { "FAIL" }.to_string(),
            ]);
            runs.push(run);

            // The LearnedFTL sweep point at max shards is the designated
            // `--analyze-out` run (the richest trace).
            if kind == FtlKind::LearnedFtl {
                analysis_source = Some(traced);
            }
        }
    }

    alloc_profile::set_phase(Phase::Report);
    let all_checked = runs.iter().all(BenchRun::checks_pass);
    print_table_with_verdict(
        &table,
        &format!(
            "traced==untraced on every configuration: {}",
            if all_checked { "yes" } else { "NO" }
        ),
    );

    if let Some(traced) = &analysis_source {
        args.export_observability("fig27_throughput", &traced.result)
            .expect("writing observability output failed");
    }
    bench::print_alloc_profile();

    let path = args
        .bench_out
        .clone()
        .unwrap_or_else(|| "BENCH_fig27.json".to_string());
    let json = artifact_json(scale, cores, &runs);
    std::fs::write(&path, &json).expect("writing BENCH artifact failed");
    match metrics::validate_bench_artifact(&json) {
        Ok(summary) => println!(
            "bench: wrote {} runs ({} requests, {} checks passed) to {path}",
            summary.runs, summary.total_requests, summary.checks_passed
        ),
        Err(err) => {
            eprintln!("FAIL: BENCH artifact did not validate: {err}");
            std::process::exit(1);
        }
    }
    if let Some(floors_path) = &args.bench_floors {
        let floors = std::fs::read_to_string(floors_path).unwrap_or_else(|err| {
            eprintln!("FAIL: cannot read floors file {floors_path}: {err}");
            std::process::exit(1);
        });
        match metrics::check_bench_floors(&json, &floors) {
            Ok(summary) => println!(
                "bench: all {} floors hold (tightest margin {:.2}x) against {floors_path}",
                summary.floors, summary.tightest_margin
            ),
            Err(err) => {
                eprintln!("FAIL: BENCH floor check against {floors_path}: {err}");
                std::process::exit(1);
            }
        }
    }
    if !all_checked {
        eprintln!("FAIL: self-consistency checks failed");
        std::process::exit(1);
    }
}
