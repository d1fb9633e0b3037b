//! The measurements collected from one experiment run.

use ftl_base::FtlStats;
use metrics::{LatencyHistogram, Throughput};
use ssd_sim::{DeviceStats, Duration, TraceEvent};

/// Everything the paper's figures need from one workload run against one FTL.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The FTL's display name.
    pub ftl_name: String,
    /// Number of host requests completed.
    pub requests: u64,
    /// Host pages read during the run.
    pub read_pages: u64,
    /// Host pages written during the run.
    pub write_pages: u64,
    /// Host bytes moved during the run.
    pub bytes: u64,
    /// Simulated wall time the run took (first issue to last completion).
    pub elapsed: Duration,
    /// Per-request latency samples (arrival to completion).
    pub latencies: LatencyHistogram,
    /// Per-request queueing delay (arrival to issue), recorded where the host
    /// model bounds admission: the queue-depth runners
    /// ([`crate::Runner::run_qd`], [`crate::Runner::run_sharded_qd`]) and
    /// tenant admission ([`crate::Runner::run_tenants`]). The closed-loop
    /// [`crate::Runner::run`] and the open-loop
    /// [`crate::Runner::run_open_loop`] leave this histogram empty.
    pub queueing: LatencyHistogram,
    /// FTL-level statistics accumulated during the run (hit ratios, multi-read
    /// breakdown, GC, write amplification inputs).
    pub stats: FtlStats,
    /// Device-level operation counts accumulated during the run (energy model
    /// inputs).
    pub device: DeviceStats,
    /// The structured trace of the run, when the FTL had tracing enabled
    /// ([`ftl_base::Ftl::set_tracing`]): device/scheduler/GC events taken
    /// from the FTL plus the host-request spans and GC trigger/complete
    /// instants the runner synthesises, stably sorted by start time. Empty
    /// when tracing was off. Render with
    /// [`metrics::sim_trace::chrome_trace_json`] or
    /// [`metrics::sim_trace::metrics_csv`].
    pub trace: Vec<TraceEvent>,
    /// Wall-clock self-profiling of the run (how fast the *simulator* ran,
    /// as opposed to the simulated `elapsed`).
    pub profile: SelfProfile,
}

/// Wall-clock self-profiling measurements of one run: what the simulator
/// itself cost, independent of simulated time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfProfile {
    /// Host wall-clock time the run loop took (submission of the first
    /// request to the last completion record).
    pub wall: std::time::Duration,
    /// Host requests the run completed (copied from the result for rate
    /// computation).
    pub requests: u64,
    /// Structured trace events recorded during the run (zero with tracing
    /// off).
    pub trace_events: u64,
}

impl SelfProfile {
    /// Host requests simulated per wall-clock second, or zero for an
    /// instantaneous run.
    pub fn requests_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.requests as f64 / secs
        }
    }

    /// Trace events recorded per wall-clock second, or zero for an
    /// instantaneous or untraced run.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.trace_events as f64 / secs
        }
    }
}

impl RunResult {
    /// Host-data throughput of the run.
    pub fn throughput(&self) -> Throughput {
        Throughput::new(self.bytes, self.elapsed)
    }

    /// Host-data throughput in MiB/s.
    pub fn mib_per_sec(&self) -> f64 {
        self.throughput().mib_per_sec()
    }

    /// This run's throughput normalised to a baseline run.
    pub fn normalized_throughput(&self, baseline: &RunResult) -> f64 {
        let base = baseline.mib_per_sec();
        if base <= 0.0 {
            0.0
        } else {
            self.mib_per_sec() / base
        }
    }

    /// P99 request latency.
    pub fn p99(&mut self) -> Duration {
        self.latencies.p99()
    }

    /// P99.9 request latency.
    pub fn p999(&mut self) -> Duration {
        self.latencies.p999()
    }

    /// Mean queueing delay (zero for runs without a bounded host queue).
    pub fn mean_queueing(&self) -> Duration {
        self.queueing.mean()
    }

    /// Requests completed per simulated second.
    pub fn iops(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.requests as f64 / secs
        }
    }

    /// CMT hit ratio during the run.
    pub fn cmt_hit_ratio(&self) -> f64 {
        self.stats.cmt_hit_ratio()
    }

    /// Learned-model hit ratio during the run.
    pub fn model_hit_ratio(&self) -> f64 {
        self.stats.model_hit_ratio()
    }

    /// Write amplification during the run.
    pub fn write_amplification(&self) -> f64 {
        self.stats.write_amplification()
    }

    /// Fractions of host reads served as (single, double, triple) reads.
    pub fn multi_read_breakdown(&self) -> (f64, f64, f64) {
        (
            self.stats.single_read_ratio(),
            self.stats.double_read_ratio(),
            self.stats.triple_read_ratio(),
        )
    }
}

/// The measurements attributed to one shard of a sharded run: how many
/// requests routed to it and their latency distribution.
#[derive(Debug, Clone)]
pub struct ShardLane {
    /// The shard index.
    pub shard: usize,
    /// Requests whose first LPN routed to this shard.
    pub requests: u64,
    /// Arrival-to-completion latencies of those requests.
    pub latencies: LatencyHistogram,
}

/// A [`RunResult`] plus the per-shard breakdown recorded by
/// [`crate::Runner::run_sharded_qd`]. The aggregate result's latency
/// histogram is the merge of the lanes'.
#[derive(Debug, Clone)]
pub struct ShardedRunResult {
    /// The whole-run measurements (what an unsharded run would report).
    pub result: RunResult,
    /// One lane per shard, indexed by shard.
    pub lanes: Vec<ShardLane>,
}

impl ShardedRunResult {
    /// Ratio of the busiest lane's request count to the ideal uniform share
    /// (`1.0` = perfectly balanced, `shards` = everything on one shard).
    /// Zero when the run had no requests.
    pub fn lane_imbalance(&self) -> f64 {
        let total: u64 = self.lanes.iter().map(|l| l.requests).sum();
        if total == 0 {
            return 0.0;
        }
        let busiest = self.lanes.iter().map(|l| l.requests).max().unwrap_or(0);
        busiest as f64 * self.lanes.len() as f64 / total as f64
    }
}

/// The measurements attributed to one tenant of a multi-tenant run.
#[derive(Debug, Clone)]
pub struct TenantLane {
    /// The tenant (namespace) index.
    pub tenant: u32,
    /// Requests the tenant issued.
    pub requests: u64,
    /// Logical pages the tenant read.
    pub read_pages: u64,
    /// Logical pages the tenant wrote.
    pub write_pages: u64,
    /// True-arrival-to-completion latencies of the tenant's requests
    /// (queueing behind other tenants included — that is where isolation
    /// shows up).
    pub latencies: LatencyHistogram,
}

/// A [`RunResult`] plus the per-tenant breakdown recorded by
/// [`crate::Runner::run_tenants`]. The aggregate result's latency histogram
/// is the merge of the tenants'.
#[derive(Debug, Clone)]
pub struct TenantRunResult {
    /// The whole-run measurements.
    pub result: RunResult,
    /// One lane per tenant, indexed by tenant.
    pub tenants: Vec<TenantLane>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(bytes: u64, millis: u64) -> RunResult {
        RunResult {
            ftl_name: "test".to_string(),
            requests: 10,
            read_pages: 10,
            write_pages: 0,
            bytes,
            elapsed: Duration::from_millis(millis),
            latencies: LatencyHistogram::new(),
            queueing: LatencyHistogram::new(),
            stats: FtlStats::new(),
            device: DeviceStats::new(),
            trace: Vec::new(),
            profile: SelfProfile::default(),
        }
    }

    #[test]
    fn throughput_and_normalization() {
        let a = result(2 * 1024 * 1024, 1000);
        let b = result(1024 * 1024, 1000);
        assert!((a.mib_per_sec() - 2.0).abs() < 1e-9);
        assert!((a.normalized_throughput(&b) - 2.0).abs() < 1e-9);
        assert_eq!(a.normalized_throughput(&result(0, 1000)), 0.0);
    }

    #[test]
    fn lane_imbalance_measures_skew() {
        let lane = |shard: usize, requests: u64| ShardLane {
            shard,
            requests,
            latencies: LatencyHistogram::new(),
        };
        let balanced = ShardedRunResult {
            result: result(0, 1),
            lanes: vec![lane(0, 50), lane(1, 50)],
        };
        assert!((balanced.lane_imbalance() - 1.0).abs() < 1e-9);
        let skewed = ShardedRunResult {
            result: result(0, 1),
            lanes: vec![lane(0, 100), lane(1, 0)],
        };
        assert!((skewed.lane_imbalance() - 2.0).abs() < 1e-9);
        let empty = ShardedRunResult {
            result: result(0, 1),
            lanes: vec![lane(0, 0)],
        };
        assert_eq!(empty.lane_imbalance(), 0.0);
    }

    #[test]
    fn self_profile_rates_guard_against_zero_wall() {
        // An instantaneous (or clock-glitched) run must report zero rates,
        // not NaN/inf — BENCH artifact consumers divide and compare these.
        let instant = SelfProfile {
            wall: std::time::Duration::ZERO,
            requests: 1_000,
            trace_events: 9_000,
        };
        assert_eq!(instant.requests_per_sec(), 0.0);
        assert_eq!(instant.events_per_sec(), 0.0);

        let timed = SelfProfile {
            wall: std::time::Duration::from_millis(500),
            ..instant
        };
        assert!((timed.requests_per_sec() - 2_000.0).abs() < 1e-9);
        assert!((timed.events_per_sec() - 18_000.0).abs() < 1e-9);
        assert!(timed.requests_per_sec().is_finite());

        // Zero work over nonzero wall is a valid (zero) rate, not an error.
        let idle = SelfProfile {
            wall: std::time::Duration::from_millis(500),
            requests: 0,
            trace_events: 0,
        };
        assert_eq!(idle.requests_per_sec(), 0.0);
        assert_eq!(idle.events_per_sec(), 0.0);
    }

    #[test]
    fn breakdown_comes_from_stats() {
        let mut r = result(0, 1);
        r.stats.host_read_pages = 10;
        r.stats.single_reads = 5;
        r.stats.double_reads = 3;
        r.stats.triple_reads = 2;
        let (s, d, t) = r.multi_read_breakdown();
        assert!((s - 0.5).abs() < 1e-9);
        assert!((d - 0.3).abs() < 1e-9);
        assert!((t - 0.2).abs() < 1e-9);
    }
}
