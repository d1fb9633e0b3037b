//! The sharded FTL frontend.

use ftl_base::{Ftl, FtlStats, GcMode, Lpn};
use ssd_sched::MultiIssuer;
use ssd_sim::{
    trace::merge_shard_traces, DeviceStats, FlashDevice, SimTime, SsdConfig, TraceEvent,
};

use crate::map::ShardMap;

/// A frontend that statically partitions the logical page space across `N`
/// independent FTL shards, one per channel group.
///
/// Each shard owns a *complete* FTL instance — its own CMT, GTD, translation
/// pages, allocator, GC state and statistics — over a device covering its
/// channel group (`channels / N` channels of the base geometry). Global LPNs
/// stripe round-robin across shards ([`ShardMap`]), and every shard's traffic
/// flows through its own serial translation engine
/// ([`ssd_sched::MultiIssuer`]): requests to the same shard queue behind each
/// other the way requests to one FTL core do, while requests to different
/// shards translate and complete fully out of order.
///
/// `ShardedFtl` implements [`Ftl`], so every runner and experiment in the
/// workspace drives it exactly like a monolithic FTL. With one shard the
/// frontend is a transparent wrapper: same request stream, same timings, same
/// statistics as the wrapped FTL (see this crate's equivalence tests).
///
/// ```
/// use ftl_base::Ftl;
/// use ftl_shard::ShardedFtl;
/// use ssd_sim::{SimTime, SsdConfig};
///
/// let base = SsdConfig::tiny(); // 2 channels
/// let mut sharded = ShardedFtl::build_with(base, 2, |_, shard_cfg| {
///     baselines::Dftl::new(shard_cfg, baselines::BaselineConfig::default())
/// });
/// let done = sharded.write(0, 4, SimTime::ZERO);
/// let done = sharded.read(0, 4, done);
/// assert!(done > SimTime::ZERO);
/// assert_eq!(sharded.stats().host_read_pages, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedFtl<F: Ftl> {
    shards: Vec<F>,
    map: ShardMap,
    engines: MultiIssuer,
    merged: FtlStats,
    logical_pages: u64,
}

impl<F: Ftl> ShardedFtl<F> {
    /// Builds a sharded frontend over `base`, constructing each shard with
    /// `builder(shard_index, shard_config)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or does not divide the base geometry's
    /// channel count.
    pub fn build_with(
        base: SsdConfig,
        shards: usize,
        mut builder: impl FnMut(usize, SsdConfig) -> F,
    ) -> Self {
        let shard_cfg = Self::shard_config(base, shards);
        Self::from_shards((0..shards).map(|i| builder(i, shard_cfg)).collect())
    }

    /// Wraps already-built shards. All shards must expose the same number of
    /// logical pages (they normally share one shard-local config).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shards disagree on their logical
    /// page count.
    pub fn from_shards(shards: Vec<F>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let per_shard = shards[0].logical_pages();
        assert!(
            shards.iter().all(|s| s.logical_pages() == per_shard),
            "every shard must expose the same logical page count"
        );
        let n = shards.len();
        ShardedFtl {
            engines: MultiIssuer::new(n),
            map: ShardMap::new(n),
            merged: FtlStats::new(),
            logical_pages: per_shard * n as u64,
            shards,
        }
    }

    /// The device configuration of one shard: the base configuration with
    /// its channels divided into `shards` equal channel groups (latencies and
    /// over-provisioning ratio unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or does not divide the channel count.
    pub fn shard_config(base: SsdConfig, shards: usize) -> SsdConfig {
        assert!(shards > 0, "need at least one shard");
        let channels = base.geometry.channels;
        assert!(
            shards as u64 <= u64::from(channels) && channels.is_multiple_of(shards as u32),
            "shard count {shards} must divide the {channels}-channel geometry \
             into equal channel groups"
        );
        let mut geometry = base.geometry;
        geometry.channels = channels / shards as u32;
        base.with_geometry(geometry)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The LPN routing map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Shared access to one shard's FTL.
    pub fn shard(&self, index: usize) -> &F {
        &self.shards[index]
    }

    /// The translation engine bank (per-shard dispatch counts, busy time and
    /// engine-queueing distribution).
    pub fn engines(&self) -> &MultiIssuer {
        &self.engines
    }

    /// Dispatches one host operation: splits it into per-shard pieces, runs
    /// each piece through its shard's serial translation engine, and merges
    /// the statistics growth into the aggregate. The request completes when
    /// its last piece does.
    fn dispatch(
        &mut self,
        lpn: Lpn,
        pages: u32,
        now: SimTime,
        mut op: impl FnMut(&mut F, Lpn, u32, SimTime) -> SimTime,
    ) -> SimTime {
        // Single-page requests (the dominant case in the 4 KiB sweeps) and
        // one-shard frontends always produce exactly one piece: route it
        // directly, keeping the per-request Vec out of the hot path.
        if pages == 1 || self.map.shards() == 1 {
            let shard = self.map.shard_of(lpn);
            let local = self.map.local_lpn(lpn);
            return now.max(self.run_segment(shard, local, pages, now, &mut op));
        }
        let mut done = now;
        for seg in self.map.split(lpn, pages) {
            done = done.max(self.run_segment(seg.shard, seg.local_lpn, seg.pages, now, &mut op));
        }
        done
    }

    /// Runs one shard-local piece through its engine and folds the shard's
    /// statistics growth into the aggregate.
    fn run_segment(
        &mut self,
        shard_idx: usize,
        local_lpn: Lpn,
        pages: u32,
        now: SimTime,
        op: &mut impl FnMut(&mut F, Lpn, u32, SimTime) -> SimTime,
    ) -> SimTime {
        let shard = &mut self.shards[shard_idx];
        let snap = shard.stats().snapshot();
        let (_, completion) = self
            .engines
            .engine_mut(shard_idx)
            .submit(now, |issue| op(shard, local_lpn, pages, issue));
        self.merged.merge_delta(&snap, shard.stats());
        completion
    }
}

impl<F: Ftl> Ftl for ShardedFtl<F> {
    fn name(&self) -> &'static str {
        self.shards[0].name()
    }

    fn read(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.dispatch(lpn, pages, now, |shard, l, p, t| shard.read(l, p, t))
    }

    fn write(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.dispatch(lpn, pages, now, |shard, l, p, t| shard.write(l, p, t))
    }

    fn stats(&self) -> &FtlStats {
        &self.merged
    }

    fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_stats();
        }
        // The engines' dispatch/busy/wait counters are part of this
        // frontend's statistics and must cover the same window as `merged`
        // (their busy-until times survive — the timeline continues).
        self.engines.reset_stats();
        self.merged = FtlStats::new();
    }

    fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// The first shard's device. Sharded frontends own one device per shard;
    /// callers that need whole-frontend information use [`Ftl::drain_time`] /
    /// [`Ftl::device_stats`] / [`Ftl::reset_device_stats`], which aggregate
    /// across shards. Per-page geometry (page size) is identical on every
    /// shard, so reading it from this device is always correct.
    fn device(&self) -> &FlashDevice {
        self.shards[0].device()
    }

    fn device_mut(&mut self) -> &mut FlashDevice {
        self.shards[0].device_mut()
    }

    fn drain_time(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.drain_time())
            .fold(self.engines.drain_time(), SimTime::max)
    }

    fn device_stats(&self) -> DeviceStats {
        let mut total = DeviceStats::new();
        for shard in &self.shards {
            total.merge(&shard.device_stats());
        }
        total
    }

    fn reset_device_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_device_stats();
        }
    }

    fn gc_mode(&self) -> GcMode {
        self.shards[0].gc_mode()
    }

    /// Completes every shard's outstanding background-GC job. Shards collect
    /// independently — one shard's scheduled collection contends only with
    /// its own host traffic while sibling shards keep serving — so draining
    /// is simply the max across shards. The sharded statistics merge is
    /// snapshot-based, so the drains' completions (GC timeline events, GC
    /// flash time, arbitration counters) are folded into the aggregate here.
    fn drain_gc(&mut self) -> SimTime {
        let mut t = self.engines.drain_time();
        for shard_idx in 0..self.shards.len() {
            let snap = self.shards[shard_idx].stats().snapshot();
            t = t.max(self.shards[shard_idx].drain_gc());
            self.merged
                .merge_delta(&snap, self.shards[shard_idx].stats());
        }
        t
    }

    fn set_tracing(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.set_tracing(on);
        }
    }

    fn tracing(&self) -> bool {
        self.shards[0].tracing()
    }

    /// Collects every shard's trace, tags events with their shard index and
    /// merges them into one stream, stably sorted by start time.
    fn take_trace(&mut self) -> Vec<TraceEvent> {
        merge_shard_traces(self.shards.iter_mut().map(|s| s.take_trace()).collect())
    }
}
