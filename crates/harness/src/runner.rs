//! The host models. Every [`Runner`] entry point drives the same event
//! loop; they differ only in how requests are admitted to the FTL.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ftl_base::{Ftl, FtlStats, HostOp, HostRequest};
use ftl_shard::{ShardMap, ShardedFtl};
use metrics::LatencyHistogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssd_sched::{QueuePair, TenantArbiter, TenantClass, TenantPolicy};
use ssd_sim::{Duration, SimTime, TraceData, TraceEvent};
use workloads::{TenantSet, Workload};

use crate::result::{
    RunResult, SelfProfile, ShardLane, ShardedRunResult, TenantLane, TenantRunResult,
};

/// Appends the GC trigger/complete instants recorded in `stats`, each kind
/// sorted by time so shard merge order cannot leak into the trace.
pub(crate) fn push_gc_instants(trace: &mut Vec<TraceEvent>, stats: &FtlStats) {
    for (times, data) in [
        (&stats.gc_events, TraceData::GcTrigger),
        (&stats.gc_complete_events, TraceData::GcComplete),
    ] {
        let mut times = times.clone();
        times.sort_unstable();
        trace.extend(times.into_iter().map(|at| TraceEvent {
            start: at,
            end: at,
            shard: 0,
            data,
        }));
    }
}

/// One lane's share of a run: a serving shard's, or a tenant's under tenant
/// admission.
#[derive(Default)]
struct Lane {
    requests: u64,
    read_pages: u64,
    write_pages: u64,
    latencies: LatencyHistogram,
}

/// A request the admission policy hands to the FTL.
struct Admitted {
    req: HostRequest,
    /// When the request reached the host; its latency counts from here.
    arrival: SimTime,
    /// The earliest instant it may issue (a closed loop's queue pair may
    /// hold it back further).
    dispatch: SimTime,
    /// The issuing stream, or under tenant admission the dispatching shard.
    slot: usize,
}

/// How host requests reach the FTL: the one thing the host models differ in.
enum Admission<'w> {
    /// Closed-loop streams: every stream (FIO thread) issues its next
    /// request as soon as its previous one completes, the stream whose
    /// previous request finished earliest going first, and each request
    /// takes a slot of `queue`.
    Closed {
        workload: &'w mut dyn Workload,
        queue: QueuePair,
        /// Each live stream, keyed by the instant it is ready to issue.
        ready: BinaryHeap<Reverse<(SimTime, usize)>>,
        /// Whether `queue` bounds the host. Without a bound every stream has
        /// its own slot, nothing queues and no queueing is recorded.
        bounded: bool,
        /// Whether trace spans report serving shards as their lanes rather
        /// than issuing streams.
        shard_spans: bool,
    },
    /// Open-loop arrivals on a seeded Poisson process, cycling round-robin
    /// over the workload's streams, with no host queue.
    Open {
        workload: &'w mut dyn Workload,
        rng: StdRng,
        mean: Duration,
        arrival: SimTime,
        stream: usize,
    },
    /// Per-shard tenant backlogs.
    Tenants(Backlogs<'w>),
}

impl<'w> Admission<'w> {
    fn closed(workload: &'w mut dyn Workload, depth: Option<usize>, shard_spans: bool) -> Self {
        Admission::Closed {
            queue: QueuePair::new(depth.unwrap_or(workload.streams().max(1))),
            ready: BinaryHeap::new(),
            bounded: depth.is_some(),
            workload,
            shard_spans,
        }
    }

    /// Sets the admission clocks to the run's first instant.
    fn begin(&mut self, start: SimTime) {
        match self {
            Admission::Closed {
                workload, ready, ..
            } => ready.extend((0..workload.streams()).map(|s| Reverse((start, s)))),
            Admission::Open { arrival, .. } => *arrival = start,
            Admission::Tenants(backlogs) => {
                backlogs.free_at.fill(start);
                for t in 0..backlogs.next.len() {
                    backlogs.arrive(t, start);
                }
            }
        }
    }

    /// The next request to serve, or `None` once every source is exhausted.
    fn next(&mut self, map: ShardMap) -> Option<Admitted> {
        match self {
            Admission::Closed {
                workload, ready, ..
            } => {
                while let Some(Reverse((arrival, stream))) = ready.pop() {
                    // An exhausted stream is not re-queued.
                    if let Some(req) = workload.next_request(stream) {
                        return Some(Admitted {
                            req,
                            arrival,
                            dispatch: arrival,
                            slot: stream,
                        });
                    }
                }
                None
            }
            Admission::Open {
                workload,
                rng,
                mean,
                arrival,
                stream,
            } => {
                let streams = workload.streams();
                for _ in 0..streams {
                    let issuing = *stream;
                    *stream = (issuing + 1) % streams;
                    if let Some(req) = workload.next_request(issuing) {
                        let at = *arrival;
                        *arrival += exponential(rng, *mean);
                        return Some(Admitted {
                            req,
                            arrival: at,
                            dispatch: at,
                            slot: issuing,
                        });
                    }
                }
                None
            }
            Admission::Tenants(backlogs) => backlogs.next(map),
        }
    }

    /// Serves `admitted` on `ftl` (the one place any host model submits)
    /// and returns its issue and completion instants.
    fn serve<F: Ftl + ?Sized>(&mut self, ftl: &mut F, admitted: &Admitted) -> (SimTime, SimTime) {
        let mut submit = |issue| ftl.submit(admitted.req, issue);
        let dispatch = admitted.dispatch;
        match self {
            Admission::Closed { queue, ready, .. } => {
                let (issue, completion) = queue.submit(admitted.arrival, submit);
                ready.push(Reverse((completion, admitted.slot)));
                (issue, completion)
            }
            Admission::Open { .. } => (dispatch, submit(dispatch)),
            Admission::Tenants(backlogs) => {
                let completion = submit(dispatch);
                backlogs.free_at[admitted.slot] = completion;
                (dispatch, completion)
            }
        }
    }
}

/// Tenant admission: per-tenant Poisson arrival streams merge in arrival
/// order into per-shard per-tenant backlogs, and each shard dispatches one
/// request at a time, at `max(shard free, earliest queued arrival)`. The
/// next tenant is picked by weighted arbitration (one [`TenantArbiter`] per
/// shard, every backlogged tenant contending) or, without arbiters, in
/// plain FIFO arrival order. The shard pacing clock is the FTL's completion
/// time for the shard's previous request, which both variants share,
/// keeping the isolated-vs-FIFO comparison apples-to-apples.
struct Backlogs<'w> {
    tenants: &'w mut TenantSet,
    /// One arbiter per shard; empty for FIFO admission.
    arbiters: Vec<TenantArbiter>,
    yielded: Vec<usize>,
    /// Each tenant's next arrival, not yet backlogged.
    next: Vec<Option<(SimTime, HostRequest)>>,
    /// Per-shard per-tenant queues, each in arrival order.
    queues: Vec<Vec<VecDeque<(SimTime, HostRequest)>>>,
    /// When each shard may dispatch again.
    free_at: Vec<SimTime>,
}

impl<'w> Backlogs<'w> {
    fn new(tenants: &'w mut TenantSet, shards: usize, isolate: bool) -> Self {
        let n = tenants.num_tenants();
        // One foreground class per tenant (its spec's weight and starvation
        // bound) plus the mandatory background GC class, which is never
        // presented: host-level arbitration only ranks tenants.
        let classes = (0..n).map(|t| {
            let spec = tenants.spec(t);
            TenantClass {
                weight: spec.weight.max(1),
                starvation_bound: spec.starvation_bound,
            }
        });
        let background = TenantClass::background(u32::MAX);
        let policy = TenantPolicy::new(classes.chain([background]).collect());
        let arbiters = if isolate {
            (0..shards).map(|_| TenantArbiter::new(&policy)).collect()
        } else {
            Vec::new()
        };
        Backlogs {
            arbiters,
            yielded: Vec::new(),
            next: vec![None; n],
            queues: (0..shards).map(|_| vec![VecDeque::new(); n]).collect(),
            free_at: vec![SimTime::ZERO; shards],
            tenants,
        }
    }

    /// Draws tenant `t`'s next arrival, `after` its previous one.
    fn arrive(&mut self, t: usize, after: SimTime) {
        self.next[t] = self
            .tenants
            .next_request(t)
            .map(|(gap, req)| (after + gap, req));
    }

    fn next(&mut self, map: ShardMap) -> Option<Admitted> {
        loop {
            // The next arrival across tenants (earliest time, lowest tenant).
            let arrival = self
                .next
                .iter()
                .enumerate()
                .filter_map(|(t, next)| next.map(|(at, _)| (at, t)))
                .min();
            // The next dispatch opportunity across shards (earliest time,
            // lowest shard).
            let dispatch = self
                .queues
                .iter()
                .enumerate()
                .filter_map(|(s, queues)| {
                    let earliest = queues
                        .iter()
                        .filter_map(|q| q.front().map(|&(at, _)| at))
                        .min()?;
                    Some((self.free_at[s].max(earliest), s))
                })
                .min();
            match (arrival, dispatch) {
                // Arrivals first on ties, so every request arriving at or
                // before a dispatch instant is backlogged (and eligible) by
                // the time the pick happens.
                (Some((at, t)), d) if d.is_none_or(|(d, _)| at <= d) => {
                    let (_, req) = self.next[t].take().expect("arrival slot is present");
                    self.queues[map.shard_of(req.lpn)][t].push_back((at, req));
                    self.arrive(t, at);
                }
                (_, Some((d, s))) => {
                    // The tenants whose queue head has arrived by `d`.
                    let queues = &self.queues[s];
                    let eligible = |t: usize| {
                        let head = queues.get(t)?.front()?.0;
                        (head <= d).then_some((head, t))
                    };
                    let (_, first) = (0..queues.len())
                        .filter_map(eligible)
                        .min()
                        .expect("a tenant is eligible at dispatch time");
                    let winner = match self.arbiters.get_mut(s) {
                        // Host-level admission is one slot per shard: every
                        // eligible tenant contends for it.
                        Some(arbiter) => {
                            let present = |c| eligible(c).is_some();
                            let picked = arbiter.decide(present, |_, _| true, &mut self.yielded);
                            picked.expect("an eligible tenant wins").winner
                        }
                        None => first,
                    };
                    let (arrival, req) = self.queues[s][winner]
                        .pop_front()
                        .expect("winner has a head");
                    return Some(Admitted {
                        req,
                        arrival,
                        dispatch: d,
                        slot: s,
                    });
                }
                _ => return None,
            }
        }
    }
}

/// The host event loop behind every [`Runner`] entry point. `map` names the
/// shard that serves each request (a one-shard map for a plain [`Ftl`]);
/// returns the run and its lanes.
fn drive<F: Ftl + ?Sized>(
    ftl: &mut F,
    map: ShardMap,
    mut admission: Admission<'_>,
) -> (RunResult, Vec<Lane>) {
    ftl.reset_stats();
    ftl.reset_device_stats();
    // Never issue the first requests "in the past" of a device that is
    // still draining warm-up traffic: that would bill warm-up queueing to
    // the measured phase.
    let start = ftl.drain_time();
    let page_size = ftl.device().geometry().page_size;
    let tracing = ftl.tracing();
    let wall = crate::wallclock::WallTimer::start();
    admission.begin(start);
    // Whether a host queue bounds the run, how many lanes it has (one per
    // tenant under tenant admission, per serving shard otherwise) and
    // whether spans report serving shards rather than slots as lanes.
    let by_tenant = matches!(admission, Admission::Tenants(_));
    let (bounded, lanes, shard_spans) = match &admission {
        Admission::Closed {
            bounded,
            shard_spans,
            ..
        } => (*bounded, map.shards(), *shard_spans),
        Admission::Open { .. } => (false, map.shards(), false),
        Admission::Tenants(backlogs) => (true, backlogs.next.len(), true),
    };
    let mut lanes: Vec<Lane> = (0..lanes).map(|_| Lane::default()).collect();
    let mut queueing = LatencyHistogram::new();
    let mut spans: Vec<TraceEvent> = Vec::new();
    let mut last_completion = start;

    while let Some(admitted) = admission.next(map) {
        let (issue, completion) = admission.serve(ftl, &admitted);
        let Admitted { req, arrival, .. } = admitted;
        let shard = map.shard_of(req.lpn);
        let lane = if by_tenant {
            req.tenant as usize
        } else {
            shard
        };
        let lane = &mut lanes[lane];
        lane.requests += 1;
        lane.latencies.record(completion - arrival);
        match req.op {
            HostOp::Read => lane.read_pages += u64::from(req.pages),
            HostOp::Write => lane.write_pages += u64::from(req.pages),
        }
        if bounded {
            queueing.record(issue - arrival);
        }
        if tracing {
            spans.push(TraceEvent {
                start: arrival,
                end: completion,
                // The exporters rebase each shard's timeline onto its own
                // epoch, so a span must ride its serving shard's (shard 0
                // where the runner drives a plain `Ftl`).
                shard: shard as u32,
                data: TraceData::HostRequest {
                    req: spans.len() as u64,
                    lane: if shard_spans { shard } else { admitted.slot } as u32,
                    write: req.op == HostOp::Write,
                    pages: req.pages,
                    tenant: req.tenant,
                    issue,
                },
            });
        }
        last_completion = last_completion.max(completion);
    }

    let wall = wall.elapsed();
    // The FTL's device/scheduler/GC events, the GC instants and one
    // flow-linked span per served request, stably sorted by start time so
    // identical inputs produce byte-identical traces.
    let mut trace = Vec::new();
    if tracing {
        trace = ftl.take_trace();
        push_gc_instants(&mut trace, ftl.stats());
        trace.append(&mut spans);
        trace.sort_by_key(|e| e.start);
    }
    // Sorting each lane first makes every merge a linear pass.
    let mut latencies = LatencyHistogram::new();
    for lane in &mut lanes {
        lane.latencies.finalize();
        latencies.merge(&lane.latencies);
    }
    let requests = lanes.iter().map(|l| l.requests).sum();
    let read_pages: u64 = lanes.iter().map(|l| l.read_pages).sum();
    let write_pages: u64 = lanes.iter().map(|l| l.write_pages).sum();
    let result = RunResult {
        ftl_name: ftl.name().to_string(),
        requests,
        read_pages,
        write_pages,
        bytes: (read_pages + write_pages) * u64::from(page_size),
        elapsed: last_completion - start,
        latencies,
        queueing,
        stats: ftl.stats().clone(),
        device: ftl.device_stats(),
        profile: SelfProfile {
            wall,
            requests,
            trace_events: trace.len() as u64,
        },
        trace,
    };
    (result, lanes)
}

/// Drives a [`Workload`] against an [`Ftl`] with the host models of the
/// paper's evaluation. Every entry point resets the FTL and device
/// statistics first, so a result covers only its measured phase, and starts
/// once the device has drained earlier traffic.
#[derive(Debug, Clone, Default)]
pub struct Runner;

impl Runner {
    /// Creates a runner.
    pub fn new() -> Self {
        Runner
    }

    /// Runs the workload to completion in the closed loop and collects the
    /// measurements: every stream (FIO thread) issues its next request as
    /// soon as its previous one completes, and the runner always advances
    /// the stream whose previous request finished earliest. Each stream has
    /// its own host slot, so nothing queues at the host and
    /// [`RunResult::queueing`] stays empty.
    pub fn run(&self, ftl: &mut dyn Ftl, workload: &mut dyn Workload) -> RunResult {
        let admission = Admission::closed(workload, None, false);
        drive(ftl, ShardMap::new(1), admission).0
    }

    /// Runs the workload with a bounded host queue of `depth` slots, the
    /// NVMe-style model behind the queue-depth sweeps: every stream produces
    /// its next request when its previous one completes (closed loop), but at
    /// most `depth` requests are in flight against the FTL at once. A request
    /// that arrives while every slot is busy queues until the earliest
    /// in-flight request completes ([`ssd_sched::QueuePair`]).
    ///
    /// Each request records two latencies: total (arrival → completion, into
    /// [`RunResult::latencies`]) and queueing (arrival → issue, into
    /// [`RunResult::queueing`]). With `depth >= workload.streams()` no request
    /// ever queues and the results match [`Runner::run`] exactly; with
    /// `depth == 1` every request serialises through a single slot, which
    /// reproduces the legacy blocking path bit for bit on a single-stream
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn run_qd(
        &self,
        ftl: &mut dyn Ftl,
        workload: &mut dyn Workload,
        depth: usize,
    ) -> RunResult {
        let admission = Admission::closed(workload, Some(depth), false);
        drive(ftl, ShardMap::new(1), admission).0
    }

    /// Runs the workload through a sharded FTL frontend with a bounded host
    /// queue, recording a per-shard breakdown on top of everything
    /// [`Runner::run_qd`] measures.
    ///
    /// The host model is [`Runner::run_qd`]'s — `depth` slots shared by all
    /// streams, recycled at the earliest completion — but each request is
    /// also attributed to the shard that owns its first LPN, so the result
    /// exposes per-shard request counts and latency distributions (the
    /// aggregate histogram is their merge). Shard imbalance and per-engine
    /// queueing are exactly what the shard-scaling experiment
    /// (`fig23_shard_scaling`) needs to explain its curves.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn run_sharded_qd<F: Ftl>(
        &self,
        ftl: &mut ShardedFtl<F>,
        workload: &mut dyn Workload,
        depth: usize,
    ) -> ShardedRunResult {
        let map = *ftl.map();
        let (result, lanes) = drive(ftl, map, Admission::closed(workload, Some(depth), true));
        let lanes = lanes
            .into_iter()
            .enumerate()
            .map(|(shard, lane)| ShardLane {
                shard,
                requests: lane.requests,
                latencies: lane.latencies,
            })
            .collect();
        ShardedRunResult { result, lanes }
    }

    /// Runs the workload with *open-loop* arrivals: requests arrive on a
    /// seeded Poisson process (exponential inter-arrival times with the given
    /// mean) independent of when earlier requests complete, cycling
    /// round-robin over the workload's streams.
    ///
    /// Where the closed-loop runners measure *saturation* throughput, this
    /// measures latency at an *offered load* (`1 / mean_interarrival`
    /// requests per second): below saturation latencies sit near service
    /// time, and as the offered load approaches the device's capacity the
    /// queueing in the device and the FTL frontend blows the tail up. There
    /// is no host queue bound — arrivals are exogenous — so
    /// [`RunResult::queueing`] stays empty; frontend waiting is part of each
    /// request's latency.
    ///
    /// The arrival process is deterministic for a given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interarrival` is zero.
    pub fn run_open_loop<F: Ftl>(
        &self,
        ftl: &mut ShardedFtl<F>,
        workload: &mut dyn Workload,
        mean_interarrival: Duration,
        seed: u64,
    ) -> RunResult {
        assert!(
            mean_interarrival > Duration::ZERO,
            "mean inter-arrival time must be positive"
        );
        let map = *ftl.map();
        let admission = Admission::Open {
            workload,
            rng: StdRng::seed_from_u64(seed),
            mean: mean_interarrival,
            arrival: SimTime::ZERO,
            stream: 0,
        };
        drive(ftl, map, admission).0
    }

    /// Runs a multi-tenant [`TenantSet`] against a sharded FTL with
    /// per-shard tenant admission: tenant arrival streams merge by arrival
    /// time, each shard serves one request at a time, and the next tenant is
    /// picked by weighted per-tenant arbitration (`isolate = true`: each
    /// tenant's spec weight and starvation bound, one [`TenantArbiter`] per
    /// shard) or in plain FIFO arrival order (`isolate = false`: the no-QoS
    /// baseline a namespace-oblivious host would get).
    ///
    /// Per-tenant latencies are measured from the *true* arrival, so
    /// backlog queueing behind other tenants counts — compare a victim
    /// tenant's p99 across the two modes to quantify noisy-neighbour
    /// interference and what the weighted scheduler buys back.
    pub fn run_tenants<F: Ftl>(
        &self,
        ftl: &mut ShardedFtl<F>,
        tenants: &mut TenantSet,
        isolate: bool,
    ) -> TenantRunResult {
        let map = *ftl.map();
        let backlogs = Backlogs::new(tenants, map.shards(), isolate);
        let (result, lanes) = drive(ftl, map, Admission::Tenants(backlogs));
        let tenants = lanes
            .into_iter()
            .zip(0..)
            .map(|(lane, tenant)| TenantLane {
                tenant,
                requests: lane.requests,
                read_pages: lane.read_pages,
                write_pages: lane.write_pages,
                latencies: lane.latencies,
            })
            .collect();
        TenantRunResult { result, tenants }
    }
}

/// Draws one exponentially distributed inter-arrival gap with the given mean
/// (the increment of a Poisson arrival process), never shorter than 1 ns so
/// the arrival clock always advances.
fn exponential(rng: &mut StdRng, mean: Duration) -> Duration {
    let u: f64 = rng.gen();
    // u is uniform in [0, 1); 1-u is in (0, 1], so ln is finite.
    let gap = -(1.0 - u).ln() * mean.as_nanos() as f64;
    Duration::from_nanos((gap as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::FtlKind;
    use ssd_sim::SsdConfig;
    use workloads::{FioPattern, FioWorkload};

    #[test]
    fn runner_completes_every_request() {
        let mut ftl = FtlKind::Ideal.build(SsdConfig::tiny());
        let mut wl = FioWorkload::new(FioPattern::SeqWrite, 1000, 4, 2, 25, 1);
        let result = Runner::new().run(ftl.as_mut(), &mut wl);
        assert_eq!(result.requests, 100);
        assert_eq!(result.write_pages, 200);
        assert_eq!(result.read_pages, 0);
        assert!(result.elapsed > ssd_sim::Duration::ZERO);
        assert_eq!(result.latencies.count(), 100);
    }

    #[test]
    fn more_streams_increase_throughput_on_reads() {
        let run = |streams: usize| {
            let mut ftl = FtlKind::Ideal.build(SsdConfig::tiny());
            // Populate first.
            let mut fill = FioWorkload::new(FioPattern::SeqWrite, 4000, 1, 8, 500, 1);
            Runner::new().run(ftl.as_mut(), &mut fill);
            let mut wl = FioWorkload::new(
                FioPattern::RandRead,
                4000,
                streams,
                1,
                400 / streams as u64,
                2,
            );
            Runner::new().run(ftl.as_mut(), &mut wl).mib_per_sec()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four > one * 1.5,
            "parallel streams must raise read throughput ({one} vs {four})"
        );
    }

    #[test]
    fn reset_before_run_isolates_the_measured_phase() {
        let mut ftl = FtlKind::Dftl.build(SsdConfig::tiny());
        let mut fill = FioWorkload::new(FioPattern::SeqWrite, 1000, 1, 8, 50, 1);
        Runner::new().run(ftl.as_mut(), &mut fill);
        let mut reads = FioWorkload::new(FioPattern::SeqRead, 400, 1, 8, 50, 1);
        let result = Runner::new().run(ftl.as_mut(), &mut reads);
        assert_eq!(
            result.stats.host_write_pages, 0,
            "warm-up writes must not leak"
        );
        assert_eq!(result.stats.host_read_pages, 400);
    }

    fn warmed_ftl(kind: FtlKind) -> Box<dyn ftl_base::Ftl> {
        let mut ftl = kind.build(SsdConfig::tiny());
        let mut fill = FioWorkload::new(FioPattern::SeqWrite, 4000, 1, 8, 500, 1);
        Runner::new().run(ftl.as_mut(), &mut fill);
        ftl
    }

    #[test]
    fn qd1_single_stream_matches_legacy_run_bit_for_bit() {
        let wl = || FioWorkload::new(FioPattern::RandRead, 4000, 1, 1, 300, 11);
        let mut legacy_ftl = warmed_ftl(FtlKind::Dftl);
        let legacy = Runner::new().run(legacy_ftl.as_mut(), &mut wl());
        let mut qd_ftl = warmed_ftl(FtlKind::Dftl);
        let qd = Runner::new().run_qd(qd_ftl.as_mut(), &mut wl(), 1);
        assert_eq!(qd.requests, legacy.requests);
        assert_eq!(qd.elapsed, legacy.elapsed);
        assert_eq!(qd.latencies.mean(), legacy.latencies.mean());
        assert_eq!(qd.latencies.max(), legacy.latencies.max());
        assert_eq!(qd.stats.host_read_pages, legacy.stats.host_read_pages);
        assert_eq!(qd.device.reads, legacy.device.reads);
        assert_eq!(
            qd.queueing.max(),
            ssd_sim::Duration::ZERO,
            "QD1/1-stream never queues"
        );
    }

    #[test]
    fn qd_equal_to_streams_matches_unbounded_run() {
        let wl = || FioWorkload::new(FioPattern::RandRead, 4000, 4, 1, 100, 13);
        let mut a = warmed_ftl(FtlKind::Ideal);
        let unbounded = Runner::new().run(a.as_mut(), &mut wl());
        let mut b = warmed_ftl(FtlKind::Ideal);
        let qd = Runner::new().run_qd(b.as_mut(), &mut wl(), 4);
        assert_eq!(qd.elapsed, unbounded.elapsed);
        assert_eq!(qd.latencies.mean(), unbounded.latencies.mean());
        assert_eq!(qd.queueing.max(), ssd_sim::Duration::ZERO);
    }

    #[test]
    fn deeper_queues_raise_read_throughput() {
        let run = |depth: usize| {
            let mut ftl = warmed_ftl(FtlKind::Ideal);
            let mut wl = FioWorkload::new(FioPattern::RandRead, 4000, 16, 1, 50, 17);
            Runner::new().run_qd(ftl.as_mut(), &mut wl, depth)
        };
        let shallow = run(1);
        let deep = run(16);
        assert!(
            deep.iops() > shallow.iops() * 1.5,
            "QD16 must beat QD1 on random reads ({} vs {})",
            deep.iops(),
            shallow.iops()
        );
        assert!(
            shallow.mean_queueing() > deep.mean_queueing(),
            "a shallow queue must show more queueing delay"
        );
    }

    fn warmed_sharded(kind: FtlKind, shards: usize) -> ShardedFtl<Box<dyn Ftl>> {
        let mut ftl = kind.build_sharded(SsdConfig::tiny(), shards);
        let mut fill = FioWorkload::new(FioPattern::SeqWrite, 4000, 1, 8, 500, 1);
        Runner::new().run(&mut ftl, &mut fill);
        ftl
    }

    /// A device every kind can shard two ways: 4 channels, and a 2-chip
    /// channel-group shard still spans one full translation page per block
    /// row (LearnedFTL's group allocation needs 512 mappings per row).
    fn shard_friendly_device() -> SsdConfig {
        SsdConfig::tiny()
            .with_geometry(ssd_sim::Geometry::new(4, 2, 1, 16, 256, 4096))
            .with_op_ratio(0.4)
    }

    fn warmed_sharded_on(
        device: SsdConfig,
        kind: FtlKind,
        shards: usize,
    ) -> ShardedFtl<Box<dyn Ftl>> {
        let mut ftl = kind.build_sharded(device, shards);
        let mut fill = FioWorkload::new(FioPattern::SeqWrite, 4000, 1, 8, 500, 1);
        Runner::new().run(&mut ftl, &mut fill);
        ftl
    }

    #[test]
    fn sharded_qd1_single_stream_matches_legacy_bit_for_bit() {
        // The shards=1 mirror of qd1_single_stream_matches_legacy_run: one
        // shard, one stream, depth 1 must reproduce the plain FTL's blocking
        // closed loop exactly — the sharding layer adds no distortion.
        let wl = || FioWorkload::new(FioPattern::RandRead, 4000, 1, 1, 300, 11);
        let mut legacy_ftl = warmed_ftl(FtlKind::Dftl);
        let legacy = Runner::new().run(legacy_ftl.as_mut(), &mut wl());
        let mut sharded_ftl = warmed_sharded(FtlKind::Dftl, 1);
        let sharded = Runner::new().run_sharded_qd(&mut sharded_ftl, &mut wl(), 1);
        let qd = &sharded.result;
        assert_eq!(qd.requests, legacy.requests);
        assert_eq!(qd.elapsed, legacy.elapsed);
        assert_eq!(qd.latencies.mean(), legacy.latencies.mean());
        assert_eq!(qd.latencies.max(), legacy.latencies.max());
        assert_eq!(qd.stats.host_read_pages, legacy.stats.host_read_pages);
        assert_eq!(qd.stats.cmt_hits, legacy.stats.cmt_hits);
        assert_eq!(qd.stats.double_reads, legacy.stats.double_reads);
        assert_eq!(qd.device.reads, legacy.device.reads);
        assert_eq!(sharded.lanes.len(), 1);
        assert_eq!(sharded.lanes[0].requests, legacy.requests);
    }

    #[test]
    fn run_sharded_qd_agrees_with_run_qd_on_the_same_frontend() {
        // run_sharded_qd is run_qd plus lane bookkeeping: driving identical
        // sharded frontends through both paths must measure the same run.
        // Regression (PR 4): this used to cover only DFTL, which let the
        // other designs' sharded accounting drift unnoticed — loop over
        // every FtlKind.
        for kind in FtlKind::all() {
            let wl = || FioWorkload::new(FioPattern::RandRead, 4000, 4, 1, 100, 13);
            let mut a = warmed_sharded_on(shard_friendly_device(), kind, 2);
            let plain = Runner::new().run_qd(&mut a, &mut wl(), 4);
            let mut b = warmed_sharded_on(shard_friendly_device(), kind, 2);
            let sharded = Runner::new().run_sharded_qd(&mut b, &mut wl(), 4);
            assert_eq!(sharded.result.requests, plain.requests, "{kind}");
            assert_eq!(sharded.result.elapsed, plain.elapsed, "{kind}");
            assert_eq!(
                sharded.result.latencies.mean(),
                plain.latencies.mean(),
                "{kind}"
            );
            assert_eq!(
                sharded.result.latencies.max(),
                plain.latencies.max(),
                "{kind}"
            );
            let lane_total: u64 = sharded.lanes.iter().map(|l| l.requests).sum();
            assert_eq!(lane_total, plain.requests, "{kind}");
            assert!(sharded.lane_imbalance() >= 1.0, "{kind}");
        }
    }

    #[test]
    fn sharded_one_shard_matches_unsharded_under_scheduled_gc() {
        // The shards=1 transparency guarantee was only pinned under blocking
        // GC; scheduled GC routes flash work through a per-FTL IoScheduler,
        // which must not disturb it either. Write traffic forces collections
        // during the measured phase, so the scheduled engine really runs.
        use baselines::BaselineConfig;
        use ftl_base::GcMode;
        use learnedftl::LearnedFtlConfig;

        // Small blocks so the measured churn forces collections quickly; a
        // 2-chip × 256-page block row still spans one translation page for
        // LearnedFTL's groups.
        let device = SsdConfig::tiny()
            .with_geometry(ssd_sim::Geometry::new(2, 2, 1, 16, 256, 4096))
            .with_op_ratio(0.4);
        for kind in [FtlKind::Dftl, FtlKind::LearnedFtl] {
            let baseline = BaselineConfig::default().with_gc_mode(GcMode::Scheduled);
            let learned = LearnedFtlConfig::default()
                .with_gc_mode(GcMode::Scheduled)
                .with_charge_training_time(false);
            let wl = |pages: u64| FioWorkload::new(FioPattern::RandWrite, pages, 1, 4, 1500, 11);

            let mut plain_ftl = kind.build_with(device, baseline, learned);
            workloads::warmup::sequential_fill(plain_ftl.as_mut(), 32, 1, SimTime::ZERO);
            plain_ftl.drain_gc();
            let pages = plain_ftl.logical_pages();
            let legacy = Runner::new().run(plain_ftl.as_mut(), &mut wl(pages));

            let mut sharded_ftl =
                kind.build_sharded_with(device, 1, baseline.for_shard(1), learned);
            workloads::warmup::sequential_fill(&mut sharded_ftl, 32, 1, SimTime::ZERO);
            sharded_ftl.drain_gc();
            let sharded = Runner::new().run_sharded_qd(&mut sharded_ftl, &mut wl(pages), 1);

            let qd = &sharded.result;
            assert_eq!(qd.requests, legacy.requests, "{kind}");
            assert_eq!(qd.elapsed, legacy.elapsed, "{kind}");
            assert_eq!(qd.latencies.mean(), legacy.latencies.mean(), "{kind}");
            assert_eq!(qd.latencies.max(), legacy.latencies.max(), "{kind}");
            assert_eq!(qd.stats.gc_count, legacy.stats.gc_count, "{kind}");
            assert_eq!(qd.stats.gc_yields, legacy.stats.gc_yields, "{kind}");
            assert_eq!(qd.stats.gc_forced, legacy.stats.gc_forced, "{kind}");
            assert_eq!(qd.device.programs, legacy.device.programs, "{kind}");
            assert_eq!(qd.device.erases, legacy.device.erases, "{kind}");
            assert!(
                legacy.stats.gc_count > 0,
                "{kind}: the measured phase must actually collect"
            );
        }
    }

    #[test]
    fn two_shards_outperform_one_at_depth() {
        let run = |shards: usize| {
            let mut ftl = warmed_sharded(FtlKind::Dftl, shards);
            let mut wl = FioWorkload::new(FioPattern::RandRead, 4000, 8, 1, 50, 17);
            Runner::new().run_sharded_qd(&mut ftl, &mut wl, 8)
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two.result.iops() > one.result.iops(),
            "two translation engines must beat one at depth 8 ({} vs {})",
            two.result.iops(),
            one.result.iops()
        );
    }

    #[test]
    fn open_loop_latency_grows_with_offered_load() {
        let run = |mean_us: u64| {
            let mut ftl = warmed_sharded(FtlKind::Ideal, 1);
            let mut wl = FioWorkload::new(FioPattern::RandRead, 4000, 4, 1, 250, 23);
            Runner::new().run_open_loop(&mut ftl, &mut wl, Duration::from_micros(mean_us), 42)
        };
        // 1 request per 400us is far below tiny's capacity; 1 per 5us is far
        // above it (a 4-chip device serves roughly one read per 10us).
        let light = run(400);
        let heavy = run(5);
        assert_eq!(light.requests, heavy.requests);
        assert!(
            heavy.latencies.mean() > light.latencies.mean().saturating_mul(3),
            "offered load beyond capacity must inflate latency ({} vs {})",
            heavy.latencies.mean(),
            light.latencies.mean()
        );
        assert!(
            light.latencies.max() < Duration::from_millis(1),
            "light load must stay near service time, saw {}",
            light.latencies.max()
        );
        assert_eq!(light.queueing.count(), 0, "open loop has no host queue");
    }

    #[test]
    fn exponential_gaps_never_collapse_to_zero() {
        // Regression: with a sub-nanosecond mean almost every raw draw
        // truncates to 0 ns, which would freeze the arrival clock and create
        // spurious simultaneous arrivals at high offered load. The sampler
        // clamps every gap to >= 1 ns, so the arrival sequence is strictly
        // increasing no matter how heavy the offered load is.
        let mut rng = StdRng::seed_from_u64(99);
        let mean = Duration::from_nanos(1);
        let mut arrival = SimTime::ZERO;
        for _ in 0..10_000 {
            let gap = exponential(&mut rng, mean);
            assert!(gap >= Duration::from_nanos(1), "gap must never be zero");
            let next = arrival + gap;
            assert!(next > arrival, "arrivals must strictly increase");
            arrival = next;
        }
        // Sanity at a realistic mean too: gaps stay positive and average
        // near the configured mean.
        let mean = Duration::from_micros(10);
        let mut total = Duration::ZERO;
        for _ in 0..10_000 {
            let gap = exponential(&mut rng, mean);
            assert!(gap >= Duration::from_nanos(1));
            total += gap;
        }
        let avg_ns = total.as_nanos() as f64 / 10_000.0;
        assert!(
            (avg_ns - 10_000.0).abs() < 1_000.0,
            "mean gap should be near 10us, got {avg_ns} ns"
        );
    }

    #[test]
    fn open_loop_arrivals_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut ftl = warmed_sharded(FtlKind::Ideal, 1);
            let mut wl = FioWorkload::new(FioPattern::RandRead, 4000, 2, 1, 200, 29);
            Runner::new().run_open_loop(&mut ftl, &mut wl, Duration::from_micros(50), seed)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.latencies.mean(), b.latencies.mean());
        assert_eq!(a.latencies.max(), b.latencies.max());
        let c = run(8);
        assert!(
            c.elapsed != a.elapsed || c.latencies.mean() != a.latencies.mean(),
            "a different seed must produce a different arrival process"
        );
    }

    fn tenant_mix(requests: u64) -> workloads::TenantSet {
        use workloads::TenantSpec;
        let specs = vec![
            TenantSpec::write_heavy(Duration::from_micros(40), requests),
            TenantSpec::read_mostly(Duration::from_micros(20), requests).with_weight(4),
            TenantSpec::read_mostly(Duration::from_micros(20), requests).with_weight(4),
        ];
        workloads::TenantSet::new(specs, 4000, 0xBEEF)
    }

    #[test]
    fn tenant_run_attributes_every_request_to_its_lane() {
        let mut ftl = warmed_sharded(FtlKind::Dftl, 2);
        let mut set = tenant_mix(200);
        let run = Runner::new().run_tenants(&mut ftl, &mut set, true);
        assert_eq!(run.tenants.len(), 3);
        for lane in &run.tenants {
            assert_eq!(lane.requests, 200, "tenant {}", lane.tenant);
            assert_eq!(lane.latencies.count(), 200);
            assert_eq!(
                lane.read_pages + lane.write_pages,
                200,
                "single-page requests"
            );
        }
        assert_eq!(run.result.requests, 600);
        assert_eq!(run.result.latencies.count(), 600);
        assert_eq!(run.result.queueing.count(), 600);
        assert!(
            run.tenants[0].write_pages > run.tenants[0].read_pages,
            "tenant 0 is the write-heavy aggressor"
        );
        assert!(
            run.tenants[1].read_pages > run.tenants[1].write_pages,
            "tenant 1 is read-mostly"
        );
    }

    #[test]
    fn tenant_run_is_deterministic() {
        let run = |isolate: bool| {
            let mut ftl = warmed_sharded(FtlKind::Dftl, 2);
            let mut set = tenant_mix(150);
            Runner::new().run_tenants(&mut ftl, &mut set, isolate)
        };
        let a = run(true);
        let b = run(true);
        assert_eq!(a.result.elapsed, b.result.elapsed);
        assert_eq!(a.result.latencies.mean(), b.result.latencies.mean());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.latencies.mean(), y.latencies.mean());
            assert_eq!(x.latencies.max(), y.latencies.max());
        }
        // The FIFO baseline serves the same requests (arrival processes are
        // admission-independent), just in a different order.
        let fifo = run(false);
        assert_eq!(fifo.result.requests, a.result.requests);
        for (x, y) in fifo.tenants.iter().zip(&a.tenants) {
            assert_eq!(x.requests, y.requests);
            assert_eq!(x.read_pages, y.read_pages);
            assert_eq!(x.write_pages, y.write_pages);
        }
    }
}
