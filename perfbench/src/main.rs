//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Runs one named workload (see `perfbench/README.md`) and prints, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` repeats set-ups (build + warm-up), each followed
//! by the workload's measured phases, until `--seconds` have passed, and
//! reports the end-to-end metrics (medians over phases and set-ups).
//! `--trace 1` reports the per-layer metrics: one plain phase, the same
//! phase through the outside-in timing wrappers, a batch calibration of
//! each layer's per-op cost, and a ledger of count × cost against the plain
//! phase's host time per request. Exits 1 if any correctness check failed,
//! 2 on a usage error.

mod calib;
mod mem;
mod timed;
mod workload;

use std::fmt::Write as _;

use harness::wallclock::WallTimer;

use calib::UnitCosts;
use timed::TimedFtl;
use workload::{Phase, Seeds, Spec};

/// Set-ups of an untraced run, however short `--seconds` is.
const MIN_SETUPS: usize = 3;

struct Args {
    spec: Spec,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
    let name = workload.ok_or_else(|| format!("--workload is required: one of {names:?}"))?;
    let spec = workload::spec(&name)
        .ok_or_else(|| format!("unknown workload {name}: one of {names:?}"))?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

/// Metrics in output order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Names of metrics whose value is NaN or infinite.
    fn non_finite(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|(_, value, _)| !value.is_finite())
            .map(|&(name, _, _)| name)
            .collect()
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value is not JSON; `non_finite` fails the run.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `part / whole`, or 0 when `whole` is 0.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The end-to-end metrics every workload reports: host rates are medians
/// over every measured phase, set-up time the median over set-ups, and the
/// simulated results those of phase 0.
fn end_to_end(phases: &[Phase], setup_ns: &[u64], peak_rss_kib: u64) -> Metrics {
    let first = &phases[0];
    let o = &first.outcome;
    let s = &first.stats;
    let mut m = Metrics::default();
    m.put(
        "req_per_s",
        median(phases.iter().map(Phase::req_per_s).collect()),
        "req/s",
    );
    m.put(
        "setup_s",
        median(setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect()),
        "s",
    );
    m.put("peak_rss_mb", mem::mib(peak_rss_kib), "MiB");
    m.put("sim_p50_us", o.latency_ns[0] as f64 / 1e3, "sim_us");
    m.put("sim_p99_us", o.latency_ns[1] as f64 / 1e3, "sim_us");
    m.put("sim_p999_us", o.latency_ns[2] as f64 / 1e3, "sim_us");
    m.put(
        "sim_kiops",
        ratio(o.requests as f64, o.elapsed_ns as f64 / 1e9) / 1e3,
        "kreq/sim_s",
    );
    m.put(
        "double_read_pct",
        100.0
            * ratio(
                (s.double_reads + s.triple_reads) as f64,
                s.host_read_pages as f64,
            ),
        "%",
    );
    m
}

/// Every check a run's measured phases failed, and the requests those
/// phases covered. `phases` holds `per_setup` phases per set-up, in order;
/// every set-up must reproduce the first one's simulated results exactly.
fn failures(phases: &[Phase], per_setup: usize) -> (Vec<String>, u64) {
    let mut lines = Vec::new();
    let mut failed = 0;
    for (i, phase) in phases.iter().enumerate() {
        let mut bad = phase.failures.clone();
        if phase.outcome != phases[i % per_setup].outcome {
            bad.push(format!(
                "simulated results differ from phase {} of the first set-up",
                i % per_setup
            ));
        }
        if !bad.is_empty() {
            failed += phase.expected.requests;
        }
        lines.extend(
            bad.into_iter()
                .map(|b| format!("set-up {} phase {}: {b}", i / per_setup, i % per_setup)),
        );
    }
    (lines, failed)
}

/// Percentile `q` of sorted `values` (nearest rank).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Measured phases the traced run runs on each of its two frontends.
const TRACED_PHASES: u64 = 2;

/// What a traced run collects: the same measured phases on a plain
/// frontend and on one with every shard and the generator wrapped, run
/// pairwise (plain phase `k`, then timed phase `k`).
struct Traced {
    plain: Vec<Phase>,
    timed: Vec<Phase>,
    /// Host ns of every wrapped shard `read`/`write`, over all timed phases.
    calls_ns: Vec<u64>,
    /// `next_request` calls over all timed phases.
    generator_calls: u64,
    /// Host ns inside `next_request` over all timed phases.
    generator_ns: u64,
    /// VmRSS after the plain set-up, the first in the process.
    rss_setup_kib: u64,
    /// VmHWM growth over plain phase 0.
    run_growth_kib: u64,
}

fn traced_run(spec: &Spec, seeds: &Seeds) -> Traced {
    let mut plain = workload::set_up(spec, seeds, |shard| shard);
    let rss_setup_kib = plain.rss_after_setup_kib;
    let first = workload::measure(spec, seeds, 0, &mut plain.ftl, false).0;
    let run_growth_kib = mem::status_kib("VmHWM").saturating_sub(rss_setup_kib);
    let mut timed = workload::set_up(spec, seeds, TimedFtl::new);
    let mut out = Traced {
        plain: vec![first],
        timed: Vec::new(),
        calls_ns: Vec::new(),
        generator_calls: 0,
        generator_ns: 0,
        rss_setup_kib,
        run_growth_kib,
    };
    for k in 0..TRACED_PHASES {
        if k > 0 {
            out.plain
                .push(workload::measure(spec, seeds, k, &mut plain.ftl, false).0);
        }
        let (mut phase, generator) = workload::measure(spec, seeds, k, &mut timed.ftl, true);
        let generator = generator.expect("a timed phase times its generator");
        if generator.generated != phase.expected.requests {
            phase.failures.push(format!(
                "generator handed out {} requests, expected {}",
                generator.generated, phase.expected.requests
            ));
        }
        out.generator_calls += generator.calls;
        out.generator_ns += generator.total_ns;
        for i in 0..timed.ftl.shard_count() {
            out.calls_ns
                .extend_from_slice(timed.ftl.shard(i).calls_ns());
        }
        out.timed.push(phase);
    }
    out
}

/// The per-layer metrics of a traced run. Host times come from all its
/// phases; exact counts and memory from plain phase 0.
fn per_layer(spec: &Spec, t: &mut Traced, costs: &UnitCosts) -> Metrics {
    let o = &t.plain[0].outcome;
    let s = &t.plain[0].stats;
    let d = &o.device;
    let req = o.requests as f64;
    let per_req = |count: u64| ratio(count as f64, req);
    let per_kreq = |count: u64| 1e3 * per_req(count);
    let pct = |part: u64, whole: u64| 100.0 * ratio(part as f64, whole as f64);
    let us = |ns: u64| ns as f64 / 1e3;
    let sum = |phases: &[Phase], f: fn(&Phase) -> u64| phases.iter().map(f).sum::<u64>() as f64;
    let phases = t.timed.len() as f64;
    let timed_requests = sum(&t.timed, |p| p.outcome.requests);
    let mut m = Metrics::default();

    // Host time, timed around calls from outside.
    let calls_ns = &mut t.calls_ns;
    calls_ns.sort_unstable();
    let calls_total: u64 = calls_ns.iter().sum();
    m.put(
        "workloads.next_request_ns",
        ratio(t.generator_ns as f64, t.generator_calls as f64),
        "ns",
    );
    m.put(
        "ftl.call_ns_mean",
        ratio(calls_total as f64, calls_ns.len() as f64),
        "ns",
    );
    m.put("ftl.call_ns_p50", percentile(calls_ns, 0.5), "ns");
    m.put("ftl.call_ns_p99", percentile(calls_ns, 0.99), "ns");
    m.put(
        "ftl.call_ns_max",
        calls_ns.last().copied().unwrap_or(0) as f64,
        "ns",
    );
    m.put(
        "ftl.calls_per_req",
        ratio(calls_ns.len() as f64, timed_requests),
        "calls/req",
    );
    let inside = (calls_total + t.generator_ns) as f64;
    m.put(
        "harness.self_ns_per_req",
        ratio(sum(&t.timed, |p| p.runner_ns) - inside, timed_requests),
        "ns",
    );
    m.put(
        "gc.drain_ms",
        sum(&t.timed, |p| p.drain_ns) / phases / 1e6,
        "ms",
    );
    let analysis_ns = sum(&t.timed, |p| p.analysis_ns);
    m.put("analysis.ms", analysis_ns / phases / 1e6, "ms");
    m.put(
        "analysis.ns_per_event",
        ratio(analysis_ns, sum(&t.timed, |p| p.outcome.trace_events)),
        "ns",
    );
    m.put(
        "trace.events_per_req",
        per_req(o.trace_events),
        "events/req",
    );
    let plain_phases = t.plain.len() as f64;
    m.put(
        "core.train_wall_ms",
        sum(&t.plain, |p| p.stats.train_wall_time.as_nanos() as u64) / plain_phases / 1e6,
        "ms",
    );
    m.put(
        "core.sort_wall_ms",
        sum(&t.plain, |p| p.stats.sort_wall_time.as_nanos() as u64) / plain_phases / 1e6,
        "ms",
    );
    let overheads = t
        .plain
        .iter()
        .zip(&t.timed)
        .map(|(p, w)| 100.0 * (w.measured_ns as f64 / p.measured_ns as f64 - 1.0))
        .collect();
    m.put("bench.trace_overhead_pct", median(overheads), "%");

    // Per-op unit costs.
    m.put("ssd-sim.read_page_ns", costs.read_page, "ns");
    m.put("ssd-sim.read_page_traced_ns", costs.read_page_traced, "ns");
    m.put("ssd-sim.program_page_ns", costs.program_page, "ns");
    m.put("ssd-sim.erase_block_ns", costs.erase_block, "ns");
    m.put(
        "ftl-base.pagenode_lookup_hit_ns",
        costs.pagenode_lookup_hit,
        "ns",
    );
    m.put(
        "ftl-base.pagenode_insert_batch_ns",
        costs.pagenode_insert_batch,
        "ns",
    );
    m.put("ftl-base.gtd_location_ns", costs.gtd_location, "ns");
    m.put("core.model_predict_ns", costs.model_predict, "ns");
    m.put(
        "core.model_train_ns_per_point",
        costs.model_train_per_point,
        "ns",
    );
    m.put(
        "learned-index.plr_fit_ns_per_point",
        costs.plr_fit_per_point,
        "ns",
    );
    m.put("metrics.hist_record_ns", costs.hist_record, "ns");
    m.put(
        "ssd-sched.queuepair_submit_ns",
        costs.queuepair_submit,
        "ns",
    );
    m.put("ssd-sched.engine_submit_ns", costs.engine_submit, "ns");
    m.put("workloads.next_request_batch_ns", costs.next_request, "ns");
    m.put("bench.clock_read_ns", costs.clock_read, "ns");
    // Summed over the plain phases, so each phase's counts meet its own
    // measured time.
    let explained: f64 = t.plain.iter().map(|p| ledger_ns(spec, p, costs)).sum();
    let plain_requests = sum(&t.plain, |p| p.outcome.requests);
    let ledger = ratio(explained, plain_requests);
    let measured = ratio(sum(&t.plain, |p| p.measured_ns), plain_requests);
    m.put("ledger.measured_ns_per_req", measured, "ns");
    m.put("ledger.explained_pct", 100.0 * ratio(ledger, measured), "%");
    m.put("ledger.residue_ns_per_req", measured - ledger, "ns");

    // Exact counts from public statistics.
    m.put("ssd-sim.reads_per_req", per_req(d.reads), "reads/req");
    m.put(
        "ssd-sim.programs_per_req",
        per_req(d.programs),
        "programs/req",
    );
    m.put("ssd-sim.erases_per_kreq", per_kreq(d.erases), "erases/kreq");
    m.put(
        "ssd-sim.translation_reads_per_req",
        per_req(d.translation_reads),
        "reads/req",
    );
    m.put(
        "ssd-sim.translation_programs_per_req",
        per_req(d.translation_programs),
        "programs/req",
    );
    m.put(
        "ftl-base.cmt_hit_pct",
        pct(s.cmt_hits, s.host_read_pages),
        "%",
    );
    m.put(
        "core.model_hit_pct",
        pct(s.model_hits, s.host_read_pages),
        "%",
    );
    m.put("ftl-base.gc_per_kreq", per_kreq(s.gc_count), "gc/kreq");
    m.put(
        "ftl-base.gc_page_writes_per_req",
        per_req(s.gc_page_writes),
        "pages/req",
    );
    m.put(
        "core.models_trained_per_kreq",
        per_kreq(s.models_trained),
        "models/kreq",
    );
    m.put(
        "ssd-sched.gc_yields_per_kreq",
        per_kreq(s.gc_yields),
        "yields/kreq",
    );
    m.put(
        "ssd-sched.gc_forced_per_kreq",
        per_kreq(s.gc_forced),
        "forced/kreq",
    );
    m.put(
        "ftl-shard.engine_wait_us_mean",
        us(o.engine_wait_mean_ns),
        "sim_us",
    );
    m.put(
        "harness.sim_queue_wait_us_mean",
        us(o.queue_wait_mean_ns),
        "sim_us",
    );
    let total: u64 = o.components_ns.iter().sum();
    for (name, part) in [
        "analysis.queue_wait_pct",
        "analysis.translation_pct",
        "analysis.nand_pct",
        "analysis.bus_pct",
        "analysis.gc_pct",
    ]
    .into_iter()
    .zip(o.components_ns)
    {
        m.put(name, pct(part, total), "%");
    }
    m.put("waf", s.write_amplification(), "ratio");

    // Memory of plain phase 0, the first phase in this process.
    m.put("rss.setup_mb", mem::mib(t.rss_setup_kib), "MiB");
    m.put("rss.run_growth_mb", mem::mib(t.run_growth_kib), "MiB");
    m.put(
        "rss.bytes_per_req",
        per_req(t.run_growth_kib * 1024),
        "B/req",
    );
    m
}

/// Host ns of the untraced phase `phase` that calibrated unit costs times
/// exact operation counts explain.
fn ledger_ns(spec: &Spec, phase: &Phase, c: &UnitCosts) -> f64 {
    let o = &phase.outcome;
    let s = &phase.stats;
    let d = &o.device;
    let read_page = if spec.observed {
        c.read_page_traced
    } else {
        c.read_page
    };
    let terms = [
        (d.reads, read_page),
        (d.programs, c.program_page),
        (d.erases, c.erase_block),
        // Every mapped host read page looks the CMT up first.
        (s.cmt_hits + s.cmt_misses, c.pagenode_lookup_hit),
        // A double or triple read loads its translation page into the CMT.
        (s.double_reads + s.triple_reads, c.pagenode_insert_batch),
        (d.translation_reads, c.gtd_location),
        (s.model_predictions, c.model_predict),
        (
            s.models_trained * calib::MAPPINGS_PER_PAGE,
            c.model_train_per_point,
        ),
        // The runner records a latency and a queue wait per request; the
        // engine's own wait record is inside `engine_submit`.
        (2 * o.requests, c.hist_record),
        (o.requests, c.queuepair_submit),
        (o.engine_dispatched, c.engine_submit),
        (o.requests, c.next_request),
    ];
    terms.iter().map(|&(count, cost)| count as f64 * cost).sum()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let spec = args.spec;
    let seeds = Seeds::new(args.seed);
    let clock = WallTimer::start();

    let (mut metrics, phases, per_setup) = if args.trace {
        let mut traced = traced_run(&spec, &seeds);
        let costs = calib::calibrate(&spec, &seeds);
        let metrics = per_layer(&spec, &mut traced, &costs);
        // Timed phase `k` must reproduce plain phase `k` bit for bit.
        let phases = traced.plain.into_iter().chain(traced.timed).collect();
        (metrics, phases, TRACED_PHASES as usize)
    } else {
        let mut setup_ns = Vec::new();
        let mut phases: Vec<Phase> = Vec::new();
        // Peak memory of the first set-up and its phases. Later set-ups
        // reuse a heap the earlier ones fragmented, and how many of them
        // fit in the budget depends on host speed.
        let mut peak_rss_kib = 0;
        loop {
            let mut setup = workload::set_up(&spec, &seeds, |shard| shard);
            setup_ns.push(setup.setup_ns);
            for k in 0..spec.phases {
                let (phase, _) = workload::measure(&spec, &seeds, k, &mut setup.ftl, false);
                eprintln!(
                    "perfbench: set-up {} ({:.3} s) phase {k}: {:.3} s, {:.0} req/s",
                    setup_ns.len() - 1,
                    setup.setup_ns as f64 / 1e9,
                    phase.measured_ns as f64 / 1e9,
                    phase.req_per_s()
                );
                phases.push(phase);
            }
            if setup_ns.len() == 1 {
                peak_rss_kib = mem::status_kib("VmHWM");
            }
            drop(setup);
            let elapsed = clock.elapsed().as_secs_f64();
            let per_setup = elapsed / setup_ns.len() as f64;
            if setup_ns.len() >= MIN_SETUPS && elapsed + per_setup > args.seconds {
                break;
            }
        }
        let metrics = end_to_end(&phases, &setup_ns, peak_rss_kib);
        (metrics, phases, spec.phases as usize)
    };

    let (mut lines, failed) = failures(&phases, per_setup);
    lines.extend(
        metrics
            .non_finite()
            .into_iter()
            .map(|name| format!("metric {name} is not a finite number")),
    );
    let attempted: u64 = phases.iter().map(|p| p.expected.requests).sum();
    for line in &lines {
        eprintln!("perfbench: CHECK FAILED: {line}");
    }
    eprintln!(
        "perfbench: {} seed={:?} trace={} phases={} wall={:.2}s",
        spec.name,
        args.seed,
        u8::from(args.trace),
        phases.len(),
        clock.elapsed().as_secs_f64()
    );
    if args.trace {
        metrics.put(
            "fail_pct",
            100.0 * ratio(failed as f64, attempted as f64),
            "%",
        );
    }
    let correct = lines.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
