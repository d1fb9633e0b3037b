//! The four benchmark workloads: how each is built and warmed up, what its
//! measured phases issue, and the checks on what comes out.

use baselines::BaselineConfig;
use bench::{shard_scaling_device, Scale};
use ftl_base::{Ftl, FtlStats, GcMode};
use ftl_shard::ShardedFtl;
use harness::wallclock::WallTimer;
use harness::{FtlKind, Runner};
use learnedftl::LearnedFtlConfig;
use ssd_sim::{DeviceStats, SimTime, SsdConfig};
use workloads::{warmup, FioPattern, FioWorkload, SyntheticTrace, TraceKind, Workload};

use crate::mem;
use crate::timed::TimedWorkload;

/// Closed-loop streams of every workload.
pub const STREAMS: usize = 16;
/// Host queue depth of every workload.
pub const DEPTH: usize = 16;
/// Warm-up I/O size in pages (512 KiB, the paper's warm-up size).
const WARMUP_IO_PAGES: u32 = 128;
/// Random overwrite passes of the paper warm-up.
const WARMUP_OVERWRITES: u32 = 2;

/// What the measured phase issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Uniform random 1-page reads over the whole LBA space, after the paper
    /// warm-up.
    RandRead,
    /// A Systor'17-shaped synthetic trace after one sequential fill.
    MixedTrace,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// The FTL design under test.
    pub ftl: FtlKind,
    /// Shard count of the frontend.
    pub shards: usize,
    /// GC execution mode of every shard.
    pub gc_mode: GcMode,
    /// What the measured phase issues.
    pub shape: Shape,
    /// Structured tracing during the measured phase, analysed afterwards.
    pub observed: bool,
    /// Requests in one measured phase.
    pub requests: u64,
    /// Measured phases run back to back after each set-up.
    pub phases: u64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "randread-learned",
        ftl: FtlKind::LearnedFtl,
        shards: 1,
        gc_mode: GcMode::Blocking,
        shape: Shape::RandRead,
        observed: false,
        requests: 400_000,
        phases: 4,
    },
    Spec {
        name: "randread-tpftl",
        ftl: FtlKind::Tpftl,
        shards: 1,
        gc_mode: GcMode::Blocking,
        shape: Shape::RandRead,
        observed: false,
        requests: 400_000,
        phases: 1,
    },
    Spec {
        name: "mixed-gc-learned",
        ftl: FtlKind::LearnedFtl,
        shards: 4,
        gc_mode: GcMode::Scheduled,
        shape: Shape::MixedTrace,
        observed: false,
        requests: 96_000,
        phases: 1,
    },
    Spec {
        name: "randread-learned-observed",
        ftl: FtlKind::LearnedFtl,
        shards: 1,
        gc_mode: GcMode::Blocking,
        shape: Shape::RandRead,
        observed: true,
        requests: 200_000,
        phases: 4,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// The seeds of one run. Without `--seed` they are the experiments'
/// defaults; a given seed is mixed into each of them.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Random-overwrite pass of the paper warm-up.
    pub warmup: u64,
    /// Measured random-read streams.
    pub measured: u64,
    /// Synthetic trace of the mixed workload.
    pub trace: u64,
}

impl Seeds {
    /// The generator seeds of measured phase `phase` (phase 0 keeps these).
    pub fn for_phase(&self, phase: u64) -> Seeds {
        let step = phase.wrapping_mul(0xA076_1D64_78BD_642F);
        Seeds {
            warmup: self.warmup,
            measured: self.measured ^ step,
            trace: self.trace ^ step,
        }
    }

    /// Seeds for `seed` (`None`: `0xFEED` / `0xBEEF` / `0xD00D`).
    pub fn new(seed: Option<u64>) -> Self {
        let mix = seed.map_or(0, |s| s.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Seeds {
            warmup: 0xFEED ^ mix,
            measured: 0xBEEF ^ mix,
            trace: 0xD00D ^ mix,
        }
    }
}

/// The device every workload runs on.
pub fn device() -> SsdConfig {
    shard_scaling_device(Scale::Standard)
}

/// Builds the frontend of `spec` exactly as `FtlKind::build_sharded_with`
/// does, passing every shard through `wrap`.
pub fn build<F: Ftl>(spec: &Spec, wrap: impl Fn(Box<dyn Ftl>) -> F) -> ShardedFtl<F> {
    let shard_cfg = ShardedFtl::<F>::shard_config(device(), spec.shards);
    let baseline = BaselineConfig::default()
        .for_shard(spec.shards)
        .with_gc_mode(spec.gc_mode);
    // Charging the trainer's host time into simulated time would make the
    // simulated results depend on host speed.
    let learned = LearnedFtlConfig::default()
        .with_gc_mode(spec.gc_mode)
        .with_charge_training_time(false);
    let shards = (0..spec.shards)
        .map(|_| wrap(spec.ftl.build_with(shard_cfg, baseline, learned)))
        .collect();
    ShardedFtl::from_shards(shards)
}

/// Brings a freshly built frontend to the state the measured phase starts
/// from.
pub fn warm_up<F: Ftl>(spec: &Spec, seeds: &Seeds, ftl: &mut ShardedFtl<F>) {
    match spec.shape {
        Shape::RandRead => {
            warmup::paper_warmup(ftl, WARMUP_IO_PAGES, WARMUP_OVERWRITES, seeds.warmup);
        }
        Shape::MixedTrace => {
            warmup::sequential_fill(ftl, WARMUP_IO_PAGES, 1, SimTime::ZERO);
            ftl.drain_gc();
        }
    }
}

/// What the generated request stream should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Requests generated.
    pub requests: u64,
    /// Host pages read.
    pub read_pages: u64,
    /// Host pages written.
    pub write_pages: u64,
}

/// The measured-phase generator of `spec` and what it will generate.
pub fn measured_workload(
    spec: &Spec,
    seeds: &Seeds,
    logical: u64,
) -> (Box<dyn Workload>, Expected) {
    match spec.shape {
        Shape::RandRead => {
            let per_stream = spec.requests / STREAMS as u64;
            let wl = FioWorkload::new(
                FioPattern::RandRead,
                logical,
                STREAMS,
                1,
                per_stream,
                seeds.measured,
            );
            let requests = per_stream * STREAMS as u64;
            let expected = Expected {
                requests,
                read_pages: requests,
                write_pages: 0,
            };
            (Box::new(wl), expected)
        }
        Shape::MixedTrace => {
            let trace =
                SyntheticTrace::generate(TraceKind::Systor17, logical, spec.requests, seeds.trace);
            let mut expected = Expected {
                requests: trace.len() as u64,
                read_pages: 0,
                write_pages: 0,
            };
            for record in trace.records() {
                if record.is_read {
                    expected.read_pages += u64::from(record.pages);
                } else {
                    expected.write_pages += u64::from(record.pages);
                }
            }
            (Box::new(trace.into_workload(STREAMS)), expected)
        }
    }
}

/// The FTL counters a run must reproduce exactly (every `FtlStats` field
/// except the two host-time ones).
fn ftl_counters(s: &FtlStats) -> [u64; 24] {
    [
        s.host_read_pages,
        s.host_write_pages,
        s.cmt_hits,
        s.cmt_misses,
        s.model_hits,
        s.buffer_hits,
        s.unmapped_reads,
        s.single_reads,
        s.double_reads,
        s.triple_reads,
        s.data_page_writes,
        s.gc_page_writes,
        s.gc_page_reads,
        s.translation_writes,
        s.translation_reads,
        s.gc_count,
        s.blocks_erased,
        s.gc_events.len() as u64,
        s.gc_complete_events.len() as u64,
        s.gc_stalled_exits,
        s.gc_yields,
        s.gc_forced,
        s.models_trained,
        s.model_predictions,
    ]
}

/// The simulated results of one measured phase: everything here is a function
/// of the workload and its seeds alone, never of host speed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Requests completed.
    pub requests: u64,
    /// Host pages read, as the runner counted them.
    pub read_pages: u64,
    /// Host pages written, as the runner counted them.
    pub write_pages: u64,
    /// Simulated ns from first issue to last completion.
    pub elapsed_ns: u64,
    /// Simulated time the devices quiesce after the GC drain.
    pub drained_at_ns: u64,
    /// Request latency (arrival to completion): p50, p99, p99.9, max, mean.
    pub latency_ns: [u64; 5],
    /// Mean host-queue wait (arrival to issue).
    pub queue_wait_mean_ns: u64,
    /// Mean wait for a shard's translation engine.
    pub engine_wait_mean_ns: u64,
    /// Pieces dispatched through the shard engines.
    pub engine_dispatched: u64,
    /// FTL counters after the measured phase and its drain.
    pub ftl_counters: [u64; 24],
    /// Simulated time spent in GC flash operations.
    pub gc_flash_ns: u64,
    /// Device statistics after the measured phase and its drain.
    pub device: DeviceStats,
    /// Trace events recorded (observed workload only).
    pub trace_events: u64,
    /// Analysis components over all requests: queue wait, translation,
    /// NAND, bus, GC (observed workload only).
    pub components_ns: [u64; 5],
}

/// Host times and results of one measured phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The measured phase: the runner call plus the drain and analysis the
    /// workload owes.
    pub measured_ns: u64,
    /// The runner call alone.
    pub runner_ns: u64,
    /// The closing GC drain.
    pub drain_ns: u64,
    /// Trace analysis, JSON rendering and validation.
    pub analysis_ns: u64,
    /// What the generator was built to produce.
    pub expected: Expected,
    /// The simulated results.
    pub outcome: SimOutcome,
    /// FTL statistics after the measured phase and its drain (the counters
    /// are in `outcome`; this adds the host-time fields).
    pub stats: FtlStats,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
}

impl Phase {
    /// Host requests simulated per host second.
    pub fn req_per_s(&self) -> f64 {
        self.outcome.requests as f64 / (self.measured_ns as f64 / 1e9)
    }
}

/// A built and warmed-up frontend.
pub struct Setup<F: Ftl> {
    /// The frontend, ready for its first measured phase.
    pub ftl: ShardedFtl<F>,
    /// Host time of build plus warm-up.
    pub setup_ns: u64,
    /// Resident set right after set-up, KiB.
    pub rss_after_setup_kib: u64,
}

/// Builds `spec`'s frontend with every shard passed through `wrap` and
/// warms it up.
pub fn set_up<F: Ftl>(spec: &Spec, seeds: &Seeds, wrap: impl Fn(Box<dyn Ftl>) -> F) -> Setup<F> {
    let clock = WallTimer::start();
    let mut ftl = build(spec, wrap);
    warm_up(spec, seeds, &mut ftl);
    let setup_ns = clock.elapsed().as_nanos() as u64;
    Setup {
        ftl,
        setup_ns,
        rss_after_setup_kib: mem::status_kib("VmRSS"),
    }
}

/// Runs measured phase number `phase` on a set-up frontend (through a
/// [`TimedWorkload`] when `time_generator` is set, returned for the caller
/// to read), then drains and analyses. Phase `k` of a workload continues
/// from the state phase `k - 1` left, with its own generator seeds, so it
/// is the same simulation after every set-up.
pub fn measure<F: Ftl>(
    spec: &Spec,
    seeds: &Seeds,
    phase: u64,
    ftl: &mut ShardedFtl<F>,
    time_generator: bool,
) -> (Phase, Option<TimedWorkload>) {
    let seeds = seeds.for_phase(phase);
    let (mut plain, expected) = measured_workload(spec, &seeds, ftl.logical_pages());
    let mut timed = None;
    let wl: &mut dyn Workload = if time_generator {
        timed.insert(TimedWorkload::new(plain))
    } else {
        plain.as_mut()
    };
    if spec.observed {
        ftl.set_tracing(true);
    }

    let measured = WallTimer::start();
    let run = Runner::new().run_sharded_qd(ftl, wl, DEPTH);
    let runner_ns = measured.elapsed().as_nanos() as u64;
    let drain_start = measured.elapsed();
    let drained_at = ftl.drain_gc();
    let drain_ns = (measured.elapsed() - drain_start).as_nanos() as u64;
    let analysis_start = measured.elapsed();
    let mut failures = Vec::new();
    let mut components_ns = [0; 5];
    if spec.observed {
        let analysis = metrics::analyze(&run.result.trace);
        components_ns = analysis.component_totals_ns();
        let json = analysis.to_json(spec.name);
        match metrics::validate_analysis_json(&json) {
            Ok(summary) if summary.requests == run.result.requests => {}
            Ok(summary) => failures.push(format!(
                "analysis covers {} requests, the run completed {}",
                summary.requests, run.result.requests
            )),
            Err(err) => failures.push(format!("analysis JSON does not validate: {err}")),
        }
    }
    let analysis_ns = (measured.elapsed() - analysis_start).as_nanos() as u64;
    let measured_ns = measured.elapsed().as_nanos() as u64;

    let result = run.result;
    let mut latencies = result.latencies;
    let engines = ftl.engines().stats();
    let outcome = SimOutcome {
        requests: result.requests,
        read_pages: result.read_pages,
        write_pages: result.write_pages,
        elapsed_ns: result.elapsed.as_nanos(),
        drained_at_ns: drained_at.as_nanos(),
        latency_ns: [
            latencies.percentile(0.5).as_nanos(),
            latencies.p99().as_nanos(),
            latencies.p999().as_nanos(),
            latencies.max().as_nanos(),
            latencies.mean().as_nanos(),
        ],
        queue_wait_mean_ns: result.queueing.mean().as_nanos(),
        engine_wait_mean_ns: engines.waits.mean().as_nanos(),
        engine_dispatched: engines.dispatched.iter().sum(),
        ftl_counters: ftl_counters(ftl.stats()),
        gc_flash_ns: ftl.stats().gc_flash_time.as_nanos(),
        device: ftl.device_stats(),
        trace_events: result.trace.len() as u64,
        components_ns,
    };
    let stats = ftl.stats().clone();
    failures.extend(check(&expected, &outcome, &stats));
    let phase = Phase {
        measured_ns,
        runner_ns,
        drain_ns,
        analysis_ns,
        expected,
        outcome,
        stats,
        failures,
    };
    (phase, timed)
}

/// The correctness checks one measured phase must pass on its own.
fn check(expected: &Expected, o: &SimOutcome, s: &FtlStats) -> Vec<String> {
    let mut failures = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    require(
        o.requests == expected.requests,
        format!(
            "completed {} requests, generated {}",
            o.requests, expected.requests
        ),
    );
    require(
        o.read_pages == expected.read_pages && s.host_read_pages == expected.read_pages,
        format!(
            "read pages: generated {}, runner {}, FTL {}",
            expected.read_pages, o.read_pages, s.host_read_pages
        ),
    );
    require(
        o.write_pages == expected.write_pages && s.host_write_pages == expected.write_pages,
        format!(
            "write pages: generated {}, runner {}, FTL {}",
            expected.write_pages, o.write_pages, s.host_write_pages
        ),
    );
    let classified =
        s.single_reads + s.buffer_hits + s.double_reads + s.triple_reads + s.unmapped_reads;
    require(
        classified == s.host_read_pages,
        format!(
            "read classes sum to {classified}, host read pages {}",
            s.host_read_pages
        ),
    );
    require(
        o.latency_ns[0] > 0 && o.elapsed_ns > 0,
        "zero simulated latency or elapsed time".to_string(),
    );
    failures
}
