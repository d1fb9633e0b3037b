//! In-memory trace analysis: latency attribution, GC-interference forensics,
//! resource utilisation and tail exemplars — computed directly from the
//! merged [`TraceEvent`] stream, no JSON round-trip.
//!
//! The engine answers the questions the raw trace only displays:
//!
//! * **Where did each request's time go?** [`RequestBreakdown`] splits every
//!   flow-linked host request's wall time into queue-wait, translation, NAND,
//!   channel-bus and GC-interference components that *sum exactly* to the
//!   measured latency (integer nanoseconds, test-enforced).
//! * **How much host latency is GC's fault?** [`GcTax`] aggregates the GC
//!   component per shard and across the FTL.
//! * **How busy was the hardware?** [`PlaneUse`]/[`ChannelUse`] report busy
//!   time, GC share, utilisation against the shard's traced window, and idle
//!   gaps per plane and channel.
//! * **What do the slowest requests look like?** [`Exemplar`]s carry the
//!   top-K tail requests with a reconstructed span tree of the shard's
//!   device activity while each was in flight (fig21/fig24 forensics).
//!
//! # Attribution model
//!
//! The trace stream carries no request id on flash or scheduler events (a
//! plane span does not know which host request caused it), so attribution is
//! by **time-window overlap on the request's shard**: the service window
//! `[issue, completion]` is partitioned by what the shard's hardware was
//! doing at each instant, with a fixed precedence when activities overlap —
//! GC-flagged work (the interference being measured) over channel-bus
//! transfers over NAND plane occupancy; uncovered remainder is charged to
//! translation/compute. Queue-wait is `issue − arrival`, taken from the host
//! span itself. The components therefore sum to the measured latency *by
//! construction*, and the report is a pure function of the event stream:
//! byte-identical across runs whenever the trace is.
//!
//! [`TraceAnalysis::to_json`] renders the deterministic `analysis.json`
//! artifact (same byte-identical discipline as
//! [`crate::chrome_trace_json`]); [`validate_analysis_json`] shape-checks it
//! for CI.

use crate::json::{Json, JsonParser};
use crate::sim_trace::shard_epochs;
use ssd_sim::{FlashOp, TraceData, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How many slowest-request exemplars [`analyze`] keeps.
pub const EXEMPLAR_TOP_K: usize = 5;

/// How many device-activity nodes one exemplar's span tree may carry before
/// truncation (the count is recorded in [`Exemplar::truncated_spans`]).
const EXEMPLAR_SPAN_CAP: usize = 48;

/// Schema tag written into (and required from) `analysis.json`.
pub const ANALYSIS_SCHEMA: &str = "learnedftl-analysis-v1";

fn op_label(op: FlashOp) -> &'static str {
    match op {
        FlashOp::Read => "read",
        FlashOp::Program => "program",
        FlashOp::Erase => "erase",
    }
}

/// One host request's latency decomposition. All timestamps are rebased onto
/// the request's shard epoch (see [`crate::sim_trace`] on why shard clocks
/// can drift apart before tracing starts); all durations are exact integer
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestBreakdown {
    /// Dense request index in dispatch order (the flow id in the Chrome
    /// trace).
    pub req: u64,
    /// Shard that served the request.
    pub shard: u32,
    /// Host lane the request arrived on.
    pub lane: u32,
    /// Tenant (namespace) the request belongs to (0 for single-tenant
    /// workloads).
    pub tenant: u32,
    /// Whether the request was a write.
    pub write: bool,
    /// Pages transferred.
    pub pages: u32,
    /// Arrival time (shard-epoch-rebased nanoseconds).
    pub arrival_ns: u64,
    /// Dispatch time (≥ arrival).
    pub issue_ns: u64,
    /// Completion time (≥ issue).
    pub completion_ns: u64,
    /// Time queued in the host model before dispatch (`issue − arrival`).
    pub queue_wait_ns: u64,
    /// Service-window time not covered by any traced device activity:
    /// translation, mapping lookups and other compute.
    pub translation_ns: u64,
    /// Service-window time under host NAND plane occupancy.
    pub nand_ns: u64,
    /// Service-window time under host channel-bus transfer (and no higher
    /// precedence activity).
    pub bus_ns: u64,
    /// Service-window time blocked behind `Priority::Gc` work on the
    /// request's shard (GC-flagged plane or bus activity).
    pub gc_ns: u64,
}

impl RequestBreakdown {
    /// The measured request latency (arrival to completion).
    pub fn latency_ns(&self) -> u64 {
        self.completion_ns - self.arrival_ns
    }

    /// Sum of the five components; equals [`Self::latency_ns`] by
    /// construction (the property test pins this).
    pub fn components_sum_ns(&self) -> u64 {
        self.queue_wait_ns + self.translation_ns + self.nand_ns + self.bus_ns + self.gc_ns
    }
}

/// GC's cost to the host, aggregated over one shard or the whole FTL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcTax {
    /// Total host request time attributed to GC interference.
    pub host_wait_ns: u64,
    /// Requests with a non-zero GC component.
    pub affected_requests: u64,
    /// The worst single request's GC component.
    pub max_request_ns: u64,
    /// Plane time occupied by GC charge replay.
    pub gc_plane_busy_ns: u64,
    /// Channel-bus time occupied by GC charge replay.
    pub gc_bus_busy_ns: u64,
}

impl GcTax {
    fn fold(&mut self, other: &GcTax) {
        self.host_wait_ns += other.host_wait_ns;
        self.affected_requests += other.affected_requests;
        self.max_request_ns = self.max_request_ns.max(other.max_request_ns);
        self.gc_plane_busy_ns += other.gc_plane_busy_ns;
        self.gc_bus_busy_ns += other.gc_bus_busy_ns;
    }
}

/// Busy/idle accounting of one plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneUse {
    /// Shard the plane belongs to.
    pub shard: u32,
    /// Flat chip index within the shard.
    pub chip: u32,
    /// Plane index within the chip.
    pub plane: u32,
    /// NAND operations traced on the plane.
    pub ops: u64,
    /// Total plane occupancy (plane ops never overlap on one plane).
    pub busy_ns: u64,
    /// The GC share of that occupancy.
    pub gc_ns: u64,
    /// Idle gaps between consecutive operations.
    pub idle_gaps: u64,
    /// Total idle time inside those gaps.
    pub idle_ns: u64,
    /// The longest single idle gap.
    pub max_idle_ns: u64,
}

/// Busy/idle accounting of one channel bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelUse {
    /// Shard the channel belongs to.
    pub shard: u32,
    /// Channel index within the shard.
    pub channel: u32,
    /// Bus transfers traced on the channel.
    pub xfers: u64,
    /// Total bus occupancy.
    pub busy_ns: u64,
    /// The GC share of that occupancy.
    pub gc_ns: u64,
    /// Idle gaps between consecutive transfers.
    pub idle_gaps: u64,
    /// Total idle time inside those gaps.
    pub idle_ns: u64,
    /// The longest single idle gap.
    pub max_idle_ns: u64,
}

/// Per-shard rollup: traced window, request count, GC tax and resource
/// utilisation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: u32,
    /// The shard's traced window (first event start to last event end).
    pub span_ns: u64,
    /// Host requests served by the shard.
    pub requests: u64,
    /// GC tax over the shard's requests and device.
    pub gc_tax: GcTax,
    /// Planes observed in the shard's stream.
    pub planes: u64,
    /// Total plane busy time across them.
    pub plane_busy_ns: u64,
    /// Channels observed in the shard's stream.
    pub channels: u64,
    /// Total bus busy time across them.
    pub bus_busy_ns: u64,
}

impl ShardReport {
    /// Plane utilisation: busy fraction of `planes × span`.
    pub fn plane_util(&self) -> f64 {
        let denom = self.span_ns.saturating_mul(self.planes);
        if denom == 0 {
            0.0
        } else {
            self.plane_busy_ns as f64 / denom as f64
        }
    }

    /// Bus utilisation: busy fraction of `channels × span`.
    pub fn bus_util(&self) -> f64 {
        let denom = self.span_ns.saturating_mul(self.channels);
        if denom == 0 {
            0.0
        } else {
            self.bus_busy_ns as f64 / denom as f64
        }
    }
}

/// Per-tenant rollup: request mix, latency aggregates and component sums
/// for one tenant (namespace) in a multi-tenant trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantReport {
    /// The tenant (namespace) index.
    pub tenant: u32,
    /// Host requests attributed to the tenant.
    pub requests: u64,
    /// Read requests among them.
    pub reads: u64,
    /// Write requests among them.
    pub writes: u64,
    /// Sum of the tenant's request latencies.
    pub total_latency_ns: u64,
    /// The tenant's slowest request.
    pub max_latency_ns: u64,
    /// Nearest-rank p99 of the tenant's request latencies.
    pub p99_latency_ns: u64,
    /// Component sums over the tenant's requests, in the order queue-wait,
    /// translation, NAND, bus, GC.
    pub components_ns: [u64; 5],
}

impl TenantReport {
    /// Mean request latency (0 for an empty tenant).
    pub fn mean_latency_ns(&self) -> u64 {
        self.total_latency_ns
            .checked_div(self.requests)
            .unwrap_or(0)
    }
}

/// One node of an exemplar's reconstructed span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExemplarSpan {
    /// A scheduler command lifecycle overlapping the request's service
    /// window, with the plane operations it issued nested inside.
    Cmd {
        /// Flat chip index the command targeted.
        chip: u32,
        /// The flash operation.
        op: FlashOp,
        /// Whether the command ran in the GC priority class.
        gc: bool,
        /// Submission time (shard-epoch-rebased).
        start_ns: u64,
        /// Dispatch time.
        issued_ns: u64,
        /// Completion time.
        end_ns: u64,
        /// Plane occupancy spans on the command's chip that started inside
        /// its dispatch window.
        planes: Vec<ExemplarPlane>,
    },
    /// A channel-bus transfer overlapping the service window.
    Bus {
        /// Channel index.
        channel: u32,
        /// The flash operation the burst belongs to.
        op: FlashOp,
        /// Whether it was GC charge replay.
        gc: bool,
        /// Transfer start (shard-epoch-rebased).
        start_ns: u64,
        /// Transfer end.
        end_ns: u64,
    },
}

/// A plane-occupancy leaf in an exemplar's span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExemplarPlane {
    /// Plane index within the chip.
    pub plane: u32,
    /// The flash operation occupying the plane.
    pub op: FlashOp,
    /// Whether it was GC charge replay.
    pub gc: bool,
    /// Occupancy start (shard-epoch-rebased).
    pub start_ns: u64,
    /// Occupancy end.
    pub end_ns: u64,
}

/// One of the top-K slowest requests, with its decomposition and the span
/// tree of everything its shard's device was doing while it was in flight.
///
/// The tree is a **time-window reconstruction**: the trace carries no
/// request id on device events, so the children are the shard's command /
/// plane / bus spans overlapping the request's service window — the full
/// contention picture a tail request experienced, not a causal slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The request's decomposition (also present in
    /// [`TraceAnalysis::requests`]).
    pub breakdown: RequestBreakdown,
    /// Device activity overlapping the service window, in start order.
    pub spans: Vec<ExemplarSpan>,
    /// Activity nodes dropped by the per-exemplar cap.
    pub truncated_spans: u64,
}

/// Everything [`analyze`] computed from one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAnalysis {
    /// Events in the input stream.
    pub events: u64,
    /// Every host request's decomposition, in dispatch (`req`) order.
    pub requests: Vec<RequestBreakdown>,
    /// Per-shard rollups, in shard order.
    pub shards: Vec<ShardReport>,
    /// Per-tenant rollups, in tenant order. Single-tenant traces produce one
    /// entry for tenant 0; a trace with no host requests produces none.
    pub tenants: Vec<TenantReport>,
    /// Per-plane accounting, in (shard, chip, plane) order.
    pub planes: Vec<PlaneUse>,
    /// Per-channel accounting, in (shard, channel) order.
    pub channels: Vec<ChannelUse>,
    /// The top-K slowest requests (latency descending, request index
    /// ascending on ties), each with its reconstructed span tree.
    pub exemplars: Vec<Exemplar>,
}

/// What overlapping device activity a service-window instant is charged to,
/// in ascending precedence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Charge {
    Nand = 0,
    Bus = 1,
    Gc = 2,
}

/// One covered segment of a shard's timeline: `[start_ns, end_ns)` charged
/// to `charge`. Segments are disjoint and sorted.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start_ns: u64,
    end_ns: u64,
    charge: Charge,
}

/// Builds the disjoint charged segments of one shard's timeline from its
/// class intervals via a boundary sweep: at every instant the active charge
/// is the highest-precedence class with a live interval.
fn charged_segments(intervals: &[(u64, u64, Charge)]) -> Vec<Segment> {
    // (time, class index, +1/-1), processed in time order with all deltas at
    // one instant applied before emitting the next segment.
    let mut bounds: Vec<(u64, usize, i64)> = Vec::with_capacity(intervals.len() * 2);
    for &(s, e, c) in intervals {
        if e > s {
            bounds.push((s, c as usize, 1));
            bounds.push((e, c as usize, -1));
        }
    }
    bounds.sort_unstable_by_key(|&(t, _, _)| t);
    let mut segments: Vec<Segment> = Vec::new();
    let mut live = [0i64; 3];
    let mut cursor = 0u64;
    let mut i = 0;
    while i < bounds.len() {
        let t = bounds[i].0;
        let active = if live[Charge::Gc as usize] > 0 {
            Some(Charge::Gc)
        } else if live[Charge::Bus as usize] > 0 {
            Some(Charge::Bus)
        } else if live[Charge::Nand as usize] > 0 {
            Some(Charge::Nand)
        } else {
            None
        };
        if let Some(charge) = active {
            if t > cursor {
                // Coalesce with the previous segment when the boundary only
                // changed an inactive class.
                match segments.last_mut() {
                    Some(last) if last.end_ns == cursor && last.charge == charge => {
                        last.end_ns = t;
                    }
                    _ => segments.push(Segment {
                        start_ns: cursor,
                        end_ns: t,
                        charge,
                    }),
                }
            }
        }
        while i < bounds.len() && bounds[i].0 == t {
            live[bounds[i].1] += bounds[i].2;
            i += 1;
        }
        cursor = t;
    }
    segments
}

/// Sums a window's overlap with the charged segments into per-class totals
/// (`[nand, bus, gc]` nanoseconds).
fn window_charges(segments: &[Segment], start: u64, end: u64) -> [u64; 3] {
    let mut sums = [0u64; 3];
    if end <= start {
        return sums;
    }
    // First segment that ends after the window starts.
    let mut idx = segments.partition_point(|s| s.end_ns <= start);
    while let Some(seg) = segments.get(idx) {
        if seg.start_ns >= end {
            break;
        }
        let lo = seg.start_ns.max(start);
        let hi = seg.end_ns.min(end);
        sums[seg.charge as usize] += hi - lo;
        idx += 1;
    }
    sums
}

/// Per-unit busy/idle accumulator shared by plane and channel accounting.
#[derive(Default)]
struct UnitAcc {
    ops: u64,
    busy_ns: u64,
    gc_ns: u64,
    idle_gaps: u64,
    idle_ns: u64,
    max_idle_ns: u64,
    prev_end: Option<u64>,
}

impl UnitAcc {
    fn record(&mut self, start: u64, end: u64, gc: bool) {
        self.ops += 1;
        let dur = end.saturating_sub(start);
        self.busy_ns += dur;
        if gc {
            self.gc_ns += dur;
        }
        if let Some(prev) = self.prev_end {
            if start > prev {
                let gap = start - prev;
                self.idle_gaps += 1;
                self.idle_ns += gap;
                self.max_idle_ns = self.max_idle_ns.max(gap);
            }
        }
        self.prev_end = Some(self.prev_end.unwrap_or(0).max(end));
    }
}

/// Runs the analysis engine over a merged trace.
///
/// A pure function of the event stream (sorted maps, integer arithmetic, no
/// clocks): identical streams analyse to identical reports, which is what
/// makes `analysis.json` byte-stable across runs.
pub fn analyze(events: &[TraceEvent]) -> TraceAnalysis {
    let epochs = shard_epochs(events);
    let rebase = |t: ssd_sim::SimTime, shard: u32| t.as_nanos().saturating_sub(epochs[&shard]);

    // Pass 1: per-shard charged intervals, unit accounting, shard windows.
    let mut intervals: BTreeMap<u32, Vec<(u64, u64, Charge)>> = BTreeMap::new();
    let mut planes: BTreeMap<(u32, u32, u32), UnitAcc> = BTreeMap::new();
    let mut channels: BTreeMap<(u32, u32), UnitAcc> = BTreeMap::new();
    let mut shard_end: BTreeMap<u32, u64> = BTreeMap::new();
    for e in events {
        let (start, end) = (rebase(e.start, e.shard), rebase(e.end, e.shard));
        let shard_max = shard_end.entry(e.shard).or_insert(0);
        *shard_max = (*shard_max).max(end);
        match e.data {
            TraceData::PlaneOp {
                chip, plane, gc, ..
            } => {
                let charge = if gc { Charge::Gc } else { Charge::Nand };
                intervals
                    .entry(e.shard)
                    .or_default()
                    .push((start, end, charge));
                planes
                    .entry((e.shard, chip, plane))
                    .or_default()
                    .record(start, end, gc);
            }
            TraceData::BusXfer { channel, gc, .. } => {
                let charge = if gc { Charge::Gc } else { Charge::Bus };
                intervals
                    .entry(e.shard)
                    .or_default()
                    .push((start, end, charge));
                channels
                    .entry((e.shard, channel))
                    .or_default()
                    .record(start, end, gc);
            }
            _ => {}
        }
    }
    let segments: BTreeMap<u32, Vec<Segment>> = intervals
        .iter()
        .map(|(&shard, iv)| (shard, charged_segments(iv)))
        .collect();

    // Pass 2: host-request decomposition against the shard segments.
    let mut requests: Vec<RequestBreakdown> = Vec::new();
    for e in events {
        let TraceData::HostRequest {
            req,
            lane,
            write,
            pages,
            tenant,
            issue,
        } = e.data
        else {
            continue;
        };
        let arrival_ns = rebase(e.start, e.shard);
        let completion_ns = rebase(e.end, e.shard);
        let issue_ns = rebase(issue, e.shard).clamp(arrival_ns, completion_ns);
        let empty: &[Segment] = &[];
        let segs = segments.get(&e.shard).map_or(empty, Vec::as_slice);
        let [nand_ns, bus_ns, gc_ns] = window_charges(segs, issue_ns, completion_ns);
        let covered = nand_ns + bus_ns + gc_ns;
        requests.push(RequestBreakdown {
            req,
            shard: e.shard,
            lane,
            tenant,
            write,
            pages,
            arrival_ns,
            issue_ns,
            completion_ns,
            queue_wait_ns: issue_ns - arrival_ns,
            translation_ns: (completion_ns - issue_ns) - covered,
            nand_ns,
            bus_ns,
            gc_ns,
        });
    }
    requests.sort_by_key(|r| r.req);

    // Pass 3: shard rollups.
    let mut shards: BTreeMap<u32, ShardReport> = BTreeMap::new();
    for (&shard, &end) in &shard_end {
        shards.insert(
            shard,
            ShardReport {
                shard,
                span_ns: end,
                ..ShardReport::default()
            },
        );
    }
    for r in &requests {
        let report = shards.entry(r.shard).or_default();
        report.requests += 1;
        report.gc_tax.host_wait_ns += r.gc_ns;
        if r.gc_ns > 0 {
            report.gc_tax.affected_requests += 1;
            report.gc_tax.max_request_ns = report.gc_tax.max_request_ns.max(r.gc_ns);
        }
    }
    for (&(shard, _, _), acc) in &planes {
        let report = shards.entry(shard).or_default();
        report.planes += 1;
        report.plane_busy_ns += acc.busy_ns;
        report.gc_tax.gc_plane_busy_ns += acc.gc_ns;
    }
    for (&(shard, _), acc) in &channels {
        let report = shards.entry(shard).or_default();
        report.channels += 1;
        report.bus_busy_ns += acc.busy_ns;
        report.gc_tax.gc_bus_busy_ns += acc.gc_ns;
    }

    // Pass 3.5: per-tenant rollups.
    let mut tenant_latencies: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut tenants_map: BTreeMap<u32, TenantReport> = BTreeMap::new();
    for r in &requests {
        let report = tenants_map.entry(r.tenant).or_insert_with(|| TenantReport {
            tenant: r.tenant,
            ..TenantReport::default()
        });
        report.requests += 1;
        if r.write {
            report.writes += 1;
        } else {
            report.reads += 1;
        }
        let latency = r.latency_ns();
        report.total_latency_ns += latency;
        report.max_latency_ns = report.max_latency_ns.max(latency);
        for (slot, v) in report.components_ns.iter_mut().zip([
            r.queue_wait_ns,
            r.translation_ns,
            r.nand_ns,
            r.bus_ns,
            r.gc_ns,
        ]) {
            *slot += v;
        }
        tenant_latencies.entry(r.tenant).or_default().push(latency);
    }
    for (tenant, lat) in &mut tenant_latencies {
        lat.sort_unstable();
        let report = tenants_map.get_mut(tenant).expect("tenant seen above");
        report.p99_latency_ns = lat[((lat.len() * 99).div_ceil(100)).clamp(1, lat.len()) - 1];
    }

    // Pass 4: top-K exemplars with span trees.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[b]
            .latency_ns()
            .cmp(&requests[a].latency_ns())
            .then(requests[a].req.cmp(&requests[b].req))
    });
    let exemplars = order
        .iter()
        .take(EXEMPLAR_TOP_K)
        .map(|&i| build_exemplar(&requests[i], events, &rebase))
        .collect();

    TraceAnalysis {
        events: events.len() as u64,
        requests,
        shards: shards.into_values().collect(),
        tenants: tenants_map.into_values().collect(),
        planes: planes
            .into_iter()
            .map(|((shard, chip, plane), a)| PlaneUse {
                shard,
                chip,
                plane,
                ops: a.ops,
                busy_ns: a.busy_ns,
                gc_ns: a.gc_ns,
                idle_gaps: a.idle_gaps,
                idle_ns: a.idle_ns,
                max_idle_ns: a.max_idle_ns,
            })
            .collect(),
        channels: channels
            .into_iter()
            .map(|((shard, channel), a)| ChannelUse {
                shard,
                channel,
                xfers: a.ops,
                busy_ns: a.busy_ns,
                gc_ns: a.gc_ns,
                idle_gaps: a.idle_gaps,
                idle_ns: a.idle_ns,
                max_idle_ns: a.max_idle_ns,
            })
            .collect(),
        exemplars,
    }
}

/// Reconstructs one tail request's span tree: the shard's command / plane /
/// bus spans overlapping its service window, plane spans nested under the
/// first command (in start order) on their chip whose dispatch window
/// contains them.
fn build_exemplar(
    breakdown: &RequestBreakdown,
    events: &[TraceEvent],
    rebase: &dyn Fn(ssd_sim::SimTime, u32) -> u64,
) -> Exemplar {
    let (win_start, win_end) = (breakdown.issue_ns, breakdown.completion_ns);
    let overlaps = |s: u64, e: u64| s < win_end && e > win_start;
    let mut spans: Vec<ExemplarSpan> = Vec::new();
    let mut loose_planes: Vec<(u32, ExemplarPlane)> = Vec::new();
    let mut total_nodes = 0usize;
    let mut truncated = 0u64;
    for e in events {
        if e.shard != breakdown.shard {
            continue;
        }
        let (start, end) = (rebase(e.start, e.shard), rebase(e.end, e.shard));
        match e.data {
            TraceData::CmdLifecycle {
                chip,
                op,
                gc,
                issued,
            } if overlaps(start, end) => {
                if total_nodes >= EXEMPLAR_SPAN_CAP {
                    truncated += 1;
                    continue;
                }
                total_nodes += 1;
                spans.push(ExemplarSpan::Cmd {
                    chip,
                    op,
                    gc,
                    start_ns: start,
                    issued_ns: rebase(issued, e.shard),
                    end_ns: end,
                    planes: Vec::new(),
                });
            }
            TraceData::PlaneOp {
                chip,
                plane,
                op,
                gc,
            } if overlaps(start, end) => {
                if total_nodes >= EXEMPLAR_SPAN_CAP {
                    truncated += 1;
                    continue;
                }
                total_nodes += 1;
                loose_planes.push((
                    chip,
                    ExemplarPlane {
                        plane,
                        op,
                        gc,
                        start_ns: start,
                        end_ns: end,
                    },
                ));
            }
            TraceData::BusXfer { channel, op, gc } if overlaps(start, end) => {
                if total_nodes >= EXEMPLAR_SPAN_CAP {
                    truncated += 1;
                    continue;
                }
                total_nodes += 1;
                spans.push(ExemplarSpan::Bus {
                    channel,
                    op,
                    gc,
                    start_ns: start,
                    end_ns: end,
                });
            }
            _ => {}
        }
    }
    // Nest plane spans under the first command on their chip whose dispatch
    // window contains their start. A plane span whose owning command lies
    // outside the window (or past the cap) has nowhere to hang and is
    // counted as truncated.
    for (chip, plane_span) in loose_planes {
        let mut placed = false;
        for span in spans.iter_mut() {
            if let ExemplarSpan::Cmd {
                chip: c,
                issued_ns,
                end_ns,
                planes,
                ..
            } = span
            {
                if *c == chip && *issued_ns <= plane_span.start_ns && plane_span.start_ns < *end_ns
                {
                    planes.push(plane_span);
                    placed = true;
                    break;
                }
            }
        }
        if !placed {
            truncated += 1;
        }
    }
    Exemplar {
        breakdown: *breakdown,
        spans,
        truncated_spans: truncated,
    }
}

impl TraceAnalysis {
    /// The FTL-wide GC tax: the per-shard reports folded together.
    pub fn gc_tax(&self) -> GcTax {
        let mut total = GcTax::default();
        for s in &self.shards {
            total.fold(&s.gc_tax);
        }
        total
    }

    /// Component totals over all requests:
    /// `[queue_wait, translation, nand, bus, gc]` nanoseconds.
    pub fn component_totals_ns(&self) -> [u64; 5] {
        let mut t = [0u64; 5];
        for r in &self.requests {
            t[0] += r.queue_wait_ns;
            t[1] += r.translation_ns;
            t[2] += r.nand_ns;
            t[3] += r.bus_ns;
            t[4] += r.gc_ns;
        }
        t
    }

    /// Renders the deterministic `analysis.json` artifact.
    ///
    /// `figure` records which binary (and protocol) produced the trace.
    /// Aggregates, utilisation and exemplars are included; the full
    /// per-request array is an in-memory API ([`Self::requests`]), not part
    /// of the artifact.
    pub fn to_json(&self, figure: &str) -> String {
        let mut out = String::new();
        let frac = |v: f64| format!("{v:.6}");
        let _ = write!(
            out,
            "{{\"schema\":\"{ANALYSIS_SCHEMA}\",\"figure\":\"{figure}\",\"events\":{},",
            self.events
        );

        // Request aggregates.
        let count = self.requests.len() as u64;
        let writes = self.requests.iter().filter(|r| r.write).count() as u64;
        let total_latency: u64 = self.requests.iter().map(|r| r.latency_ns()).sum();
        let max_latency = self
            .requests
            .iter()
            .map(|r| r.latency_ns())
            .max()
            .unwrap_or(0);
        let p99_latency = {
            let mut lat: Vec<u64> = self.requests.iter().map(|r| r.latency_ns()).collect();
            lat.sort_unstable();
            if lat.is_empty() {
                0
            } else {
                // Nearest-rank p99 on the sorted latencies.
                lat[((lat.len() * 99).div_ceil(100)).clamp(1, lat.len()) - 1]
            }
        };
        let totals = self.component_totals_ns();
        let share = |v: u64| {
            if total_latency == 0 {
                frac(0.0)
            } else {
                frac(v as f64 / total_latency as f64)
            }
        };
        let _ = write!(
            out,
            "\"requests\":{{\"count\":{count},\"reads\":{},\"writes\":{writes},\
             \"latency_ns\":{{\"total\":{total_latency},\"mean\":{},\"max\":{max_latency},\
             \"p99\":{p99_latency}}},\
             \"components_ns\":{{\"queue_wait\":{},\"translation\":{},\"nand\":{},\
             \"bus\":{},\"gc\":{}}},\
             \"components_share\":{{\"queue_wait\":{},\"translation\":{},\"nand\":{},\
             \"bus\":{},\"gc\":{}}}}},",
            count - writes,
            total_latency.checked_div(count).unwrap_or(0),
            totals[0],
            totals[1],
            totals[2],
            totals[3],
            totals[4],
            share(totals[0]),
            share(totals[1]),
            share(totals[2]),
            share(totals[3]),
            share(totals[4]),
        );

        // FTL-wide GC tax.
        let tax = self.gc_tax();
        let _ = write!(
            out,
            "\"gc_tax\":{{\"host_wait_ns\":{},\"affected_requests\":{},\
             \"max_request_ns\":{},\"gc_plane_busy_ns\":{},\"gc_bus_busy_ns\":{},\
             \"share_of_latency\":{}}},",
            tax.host_wait_ns,
            tax.affected_requests,
            tax.max_request_ns,
            tax.gc_plane_busy_ns,
            tax.gc_bus_busy_ns,
            share(tax.host_wait_ns),
        );

        // Shard rollups.
        out.push_str("\"shards\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"span_ns\":{},\"requests\":{},\
                 \"gc_tax\":{{\"host_wait_ns\":{},\"affected_requests\":{},\
                 \"max_request_ns\":{},\"gc_plane_busy_ns\":{},\"gc_bus_busy_ns\":{}}},\
                 \"planes\":{},\"plane_busy_ns\":{},\"plane_util\":{},\
                 \"channels\":{},\"bus_busy_ns\":{},\"bus_util\":{}}}",
                s.shard,
                s.span_ns,
                s.requests,
                s.gc_tax.host_wait_ns,
                s.gc_tax.affected_requests,
                s.gc_tax.max_request_ns,
                s.gc_tax.gc_plane_busy_ns,
                s.gc_tax.gc_bus_busy_ns,
                s.planes,
                s.plane_busy_ns,
                frac(s.plane_util()),
                s.channels,
                s.bus_busy_ns,
                frac(s.bus_util()),
            );
        }
        out.push_str("],");

        // Per-unit accounting.
        out.push_str("\"planes\":[");
        for (i, p) in self.planes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"chip\":{},\"plane\":{},\"ops\":{},\"busy_ns\":{},\
                 \"gc_ns\":{},\"idle_gaps\":{},\"idle_ns\":{},\"max_idle_ns\":{}}}",
                p.shard,
                p.chip,
                p.plane,
                p.ops,
                p.busy_ns,
                p.gc_ns,
                p.idle_gaps,
                p.idle_ns,
                p.max_idle_ns,
            );
        }
        out.push_str("],\"channels\":[");
        for (i, c) in self.channels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"channel\":{},\"xfers\":{},\"busy_ns\":{},\"gc_ns\":{},\
                 \"idle_gaps\":{},\"idle_ns\":{},\"max_idle_ns\":{}}}",
                c.shard,
                c.channel,
                c.xfers,
                c.busy_ns,
                c.gc_ns,
                c.idle_gaps,
                c.idle_ns,
                c.max_idle_ns,
            );
        }
        out.push_str("],");

        // Per-tenant rollups.
        out.push_str("\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"tenant\":{},\"requests\":{},\"reads\":{},\"writes\":{},\
                 \"latency_ns\":{{\"total\":{},\"mean\":{},\"max\":{},\"p99\":{}}},\
                 \"components_ns\":{{\"queue_wait\":{},\"translation\":{},\"nand\":{},\
                 \"bus\":{},\"gc\":{}}}}}",
                t.tenant,
                t.requests,
                t.reads,
                t.writes,
                t.total_latency_ns,
                t.mean_latency_ns(),
                t.max_latency_ns,
                t.p99_latency_ns,
                t.components_ns[0],
                t.components_ns[1],
                t.components_ns[2],
                t.components_ns[3],
                t.components_ns[4],
            );
        }
        out.push_str("],");

        // Exemplars.
        out.push_str("\"exemplars\":[");
        for (i, x) in self.exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let b = &x.breakdown;
            let _ = write!(
                out,
                "{{\"req\":{},\"shard\":{},\"lane\":{},\"write\":{},\"pages\":{},\
                 \"arrival_ns\":{},\"issue_ns\":{},\"completion_ns\":{},\
                 \"latency_ns\":{},\
                 \"components_ns\":{{\"queue_wait\":{},\"translation\":{},\"nand\":{},\
                 \"bus\":{},\"gc\":{}}},\"spans\":[",
                b.req,
                b.shard,
                b.lane,
                b.write,
                b.pages,
                b.arrival_ns,
                b.issue_ns,
                b.completion_ns,
                b.latency_ns(),
                b.queue_wait_ns,
                b.translation_ns,
                b.nand_ns,
                b.bus_ns,
                b.gc_ns,
            );
            for (j, span) in x.spans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match span {
                    ExemplarSpan::Cmd {
                        chip,
                        op,
                        gc,
                        start_ns,
                        issued_ns,
                        end_ns,
                        planes,
                    } => {
                        let _ = write!(
                            out,
                            "{{\"kind\":\"cmd\",\"chip\":{chip},\"op\":\"{}\",\"gc\":{gc},\
                             \"start_ns\":{start_ns},\"issued_ns\":{issued_ns},\
                             \"end_ns\":{end_ns},\"planes\":[",
                            op_label(*op),
                        );
                        for (k, p) in planes.iter().enumerate() {
                            if k > 0 {
                                out.push(',');
                            }
                            let _ = write!(
                                out,
                                "{{\"plane\":{},\"op\":\"{}\",\"gc\":{},\
                                 \"start_ns\":{},\"end_ns\":{}}}",
                                p.plane,
                                op_label(p.op),
                                p.gc,
                                p.start_ns,
                                p.end_ns,
                            );
                        }
                        out.push_str("]}");
                    }
                    ExemplarSpan::Bus {
                        channel,
                        op,
                        gc,
                        start_ns,
                        end_ns,
                    } => {
                        let _ = write!(
                            out,
                            "{{\"kind\":\"bus\",\"channel\":{channel},\"op\":\"{}\",\
                             \"gc\":{gc},\"start_ns\":{start_ns},\"end_ns\":{end_ns}}}",
                            op_label(*op),
                        );
                    }
                }
            }
            let _ = write!(out, "],\"truncated_spans\":{}}}", x.truncated_spans);
        }
        out.push_str("]}\n");
        out
    }
}

/// Convenience: [`analyze`] + [`TraceAnalysis::to_json`] in one call.
pub fn analysis_json(events: &[TraceEvent], figure: &str) -> String {
    analyze(events).to_json(figure)
}

/// What [`validate_analysis_json`] observed in an `analysis.json` document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisSummary {
    /// `requests.count`.
    pub requests: u64,
    /// Entries in the `shards` array.
    pub shards: usize,
    /// Entries in the `planes` array.
    pub planes: usize,
    /// Entries in the `tenants` array.
    pub tenants: usize,
    /// Entries in the `exemplars` array.
    pub exemplars: usize,
}

/// Validates an `analysis.json` document against the
/// [`ANALYSIS_SCHEMA`] shape and re-checks the decomposition invariant on
/// every exemplar (components must sum to the recorded latency).
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn validate_analysis_json(json: &str) -> Result<AnalysisSummary, String> {
    let doc = JsonParser::new(json).parse_document()?;
    if doc.get("schema").and_then(Json::as_str) != Some(ANALYSIS_SCHEMA) {
        return Err(format!("schema must be {ANALYSIS_SCHEMA:?}"));
    }
    if doc.get("figure").and_then(Json::as_str).is_none() {
        return Err("missing figure string".into());
    }
    let number = |v: Option<&Json>, what: &str| -> Result<f64, String> {
        v.and_then(Json::as_number)
            .filter(|n| n.is_finite() && *n >= 0.0)
            .ok_or_else(|| format!("missing non-negative numeric {what}"))
    };
    number(doc.get("events"), "events")?;
    let requests = doc.get("requests").ok_or("missing requests object")?;
    let count = number(requests.get("count"), "requests.count")? as u64;
    let components = requests
        .get("components_ns")
        .ok_or("missing requests.components_ns")?;
    let mut components_total = 0u64;
    for key in ["queue_wait", "translation", "nand", "bus", "gc"] {
        components_total += number(components.get(key), key)? as u64;
    }
    let latency = requests
        .get("latency_ns")
        .ok_or("missing requests.latency_ns")?;
    let latency_total = number(latency.get("total"), "latency_ns.total")? as u64;
    if components_total != latency_total {
        return Err(format!(
            "component totals ({components_total} ns) do not sum to total latency \
             ({latency_total} ns)"
        ));
    }
    let tax = doc.get("gc_tax").ok_or("missing gc_tax object")?;
    number(tax.get("host_wait_ns"), "gc_tax.host_wait_ns")?;
    let shards = doc
        .get("shards")
        .and_then(Json::as_array)
        .ok_or("missing shards array")?;
    for (i, s) in shards.iter().enumerate() {
        number(s.get("shard"), &format!("shards[{i}].shard"))?;
        number(s.get("span_ns"), &format!("shards[{i}].span_ns"))?;
    }
    let planes = doc
        .get("planes")
        .and_then(Json::as_array)
        .ok_or("missing planes array")?;
    let tenants = doc
        .get("tenants")
        .and_then(Json::as_array)
        .ok_or("missing tenants array")?;
    let mut tenant_requests = 0u64;
    for (i, t) in tenants.iter().enumerate() {
        number(t.get("tenant"), &format!("tenants[{i}].tenant"))?;
        tenant_requests += number(t.get("requests"), &format!("tenants[{i}].requests"))? as u64;
        t.get("latency_ns")
            .ok_or_else(|| format!("tenants[{i}]: missing latency_ns"))?;
        t.get("components_ns")
            .ok_or_else(|| format!("tenants[{i}]: missing components_ns"))?;
    }
    if tenant_requests != count {
        return Err(format!(
            "tenant rollups account for {tenant_requests} requests but the \
             document has {count}"
        ));
    }
    let exemplars = doc
        .get("exemplars")
        .and_then(Json::as_array)
        .ok_or("missing exemplars array")?;
    for (i, x) in exemplars.iter().enumerate() {
        let latency = number(x.get("latency_ns"), &format!("exemplars[{i}].latency_ns"))? as u64;
        let comp = x
            .get("components_ns")
            .ok_or_else(|| format!("exemplars[{i}]: missing components_ns"))?;
        let mut sum = 0u64;
        for key in ["queue_wait", "translation", "nand", "bus", "gc"] {
            sum += number(comp.get(key), &format!("exemplars[{i}].{key}"))? as u64;
        }
        if sum != latency {
            return Err(format!(
                "exemplars[{i}]: components sum to {sum} ns but latency is {latency} ns"
            ));
        }
        if x.get("spans").and_then(Json::as_array).is_none() {
            return Err(format!("exemplars[{i}]: missing spans array"));
        }
    }
    Ok(AnalysisSummary {
        requests: count,
        shards: shards.len(),
        planes: planes.len(),
        tenants: tenants.len(),
        exemplars: exemplars.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::{SimTime, TraceBuffer, TraceSink};

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// A hand-built two-request stream with known overlap structure:
    ///
    /// ```text
    /// t(us):      0    10   20   30   40   50   60   70   80   90  100
    /// req 0:      |wait|<------------- service ------------------->|
    /// req 1:           |wait-----|<-------- service -------->|
    /// plane 0.0:       [read 10..40]        [gc-prog 60..80]
    /// bus ch 0:             [xfer 35..45]
    /// ```
    fn sample_events() -> Vec<TraceEvent> {
        let mut b = TraceBuffer::new();
        b.span(
            at(10),
            at(40),
            TraceData::PlaneOp {
                chip: 0,
                plane: 0,
                op: FlashOp::Read,
                gc: false,
            },
        );
        b.span(
            at(35),
            at(45),
            TraceData::BusXfer {
                channel: 0,
                op: FlashOp::Read,
                gc: false,
            },
        );
        b.span(
            at(60),
            at(80),
            TraceData::PlaneOp {
                chip: 0,
                plane: 0,
                op: FlashOp::Program,
                gc: true,
            },
        );
        b.span(
            at(10),
            at(40),
            TraceData::CmdLifecycle {
                chip: 0,
                op: FlashOp::Read,
                gc: false,
                issued: at(10),
            },
        );
        b.span(
            at(0),
            at(100),
            TraceData::HostRequest {
                req: 0,
                lane: 0,
                write: false,
                pages: 1,
                tenant: 0,
                issue: at(10),
            },
        );
        b.span(
            at(10),
            at(90),
            TraceData::HostRequest {
                req: 1,
                lane: 1,
                write: true,
                pages: 2,
                tenant: 1,
                issue: at(30),
            },
        );
        b.take()
    }

    #[test]
    fn decomposition_attributes_known_overlaps() {
        let analysis = analyze(&sample_events());
        assert_eq!(analysis.requests.len(), 2);

        // Request 0: wait 10us; service 10..100 = nand 10..35 (25),
        // bus 35..45 (10), gc 60..80 (20), translation = 90 - 55 = 35.
        let r0 = &analysis.requests[0];
        assert_eq!(r0.queue_wait_ns, 10_000);
        assert_eq!(r0.nand_ns, 25_000);
        assert_eq!(r0.bus_ns, 10_000);
        assert_eq!(r0.gc_ns, 20_000);
        assert_eq!(r0.translation_ns, 35_000);
        assert_eq!(r0.components_sum_ns(), r0.latency_ns());

        // Request 1: wait 20us; service 30..90 = nand 30..35 (5),
        // bus 35..45 (10), gc 60..80 (20), translation 25.
        let r1 = &analysis.requests[1];
        assert_eq!(r1.queue_wait_ns, 20_000);
        assert_eq!(r1.nand_ns, 5_000);
        assert_eq!(r1.bus_ns, 10_000);
        assert_eq!(r1.gc_ns, 20_000);
        assert_eq!(r1.translation_ns, 25_000);
        assert_eq!(r1.components_sum_ns(), r1.latency_ns());
    }

    #[test]
    fn gc_tax_and_utilisation_roll_up() {
        let analysis = analyze(&sample_events());
        let tax = analysis.gc_tax();
        assert_eq!(tax.host_wait_ns, 40_000, "both requests blocked 20us");
        assert_eq!(tax.affected_requests, 2);
        assert_eq!(tax.max_request_ns, 20_000);
        assert_eq!(tax.gc_plane_busy_ns, 20_000);
        assert_eq!(tax.gc_bus_busy_ns, 0);

        assert_eq!(analysis.planes.len(), 1);
        let p = &analysis.planes[0];
        assert_eq!(p.ops, 2);
        assert_eq!(p.busy_ns, 50_000);
        assert_eq!(p.gc_ns, 20_000);
        assert_eq!(p.idle_gaps, 1, "one gap 40..60us");
        assert_eq!(p.idle_ns, 20_000);
        assert_eq!(p.max_idle_ns, 20_000);

        assert_eq!(analysis.channels.len(), 1);
        assert_eq!(analysis.channels[0].busy_ns, 10_000);

        assert_eq!(analysis.shards.len(), 1);
        let s = &analysis.shards[0];
        assert_eq!(s.span_ns, 100_000);
        assert_eq!(s.requests, 2);
        assert_eq!(s.planes, 1);
        assert!((s.plane_util() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn exemplars_rank_by_latency_and_carry_span_trees() {
        let analysis = analyze(&sample_events());
        assert_eq!(analysis.exemplars.len(), 2);
        // Request 0 (100us) outranks request 1 (80us).
        assert_eq!(analysis.exemplars[0].breakdown.req, 0);
        assert_eq!(analysis.exemplars[1].breakdown.req, 1);
        let spans = &analysis.exemplars[0].spans;
        // One cmd (with the host read nested), one gc plane op that has no
        // owning command (counted truncated), one bus span.
        let cmds: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s, ExemplarSpan::Cmd { .. }))
            .collect();
        assert_eq!(cmds.len(), 1);
        if let ExemplarSpan::Cmd { planes, .. } = cmds[0] {
            assert_eq!(planes.len(), 1);
            assert!(!planes[0].gc);
        }
        assert!(spans
            .iter()
            .any(|s| matches!(s, ExemplarSpan::Bus { channel: 0, .. })));
        assert_eq!(
            analysis.exemplars[0].truncated_spans, 1,
            "the gc plane op has no overlapping command to nest under"
        );
    }

    #[test]
    fn analysis_json_is_deterministic_and_validates() {
        let a = analysis_json(&sample_events(), "unit-test");
        let b = analysis_json(&sample_events(), "unit-test");
        assert_eq!(a, b);
        let summary = validate_analysis_json(&a).expect("valid analysis.json");
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.shards, 1);
        assert_eq!(summary.planes, 1);
        assert_eq!(summary.exemplars, 2);
        assert!(a.contains("\"figure\":\"unit-test\""));
    }

    #[test]
    fn empty_trace_analyses_to_an_empty_valid_report() {
        let analysis = analyze(&[]);
        assert_eq!(analysis.requests.len(), 0);
        assert_eq!(analysis.exemplars.len(), 0);
        let json = analysis.to_json("empty");
        let summary = validate_analysis_json(&json).expect("valid");
        assert_eq!(summary.requests, 0);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_analysis_json("[]").is_err(), "not an object");
        assert!(
            validate_analysis_json("{\"schema\":\"other\"}").is_err(),
            "wrong schema"
        );
        let good = analysis_json(&sample_events(), "x");
        // Corrupt the decomposition totals: the validator re-checks the
        // invariant, so a single flipped component must be caught.
        let bad = good.replacen("\"queue_wait\":30000", "\"queue_wait\":30001", 1);
        assert_ne!(good, bad, "replacement must hit the components object");
        assert!(validate_analysis_json(&bad).is_err(), "broken invariant");
    }

    #[test]
    fn charged_segments_respect_precedence() {
        // gc [10,30) over bus [0,20) over nand [0,40).
        let segs = charged_segments(&[
            (0, 40, Charge::Nand),
            (0, 20, Charge::Bus),
            (10, 30, Charge::Gc),
        ]);
        let shape: Vec<(u64, u64, Charge)> = segs
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.charge))
            .collect();
        assert_eq!(
            shape,
            vec![
                (0, 10, Charge::Bus),
                (10, 30, Charge::Gc),
                (30, 40, Charge::Nand),
            ]
        );
        let [nand, bus, gc] = window_charges(&segs, 5, 35);
        assert_eq!((nand, bus, gc), (5, 5, 20));
    }
}
