//! Outside-in timing wrappers for the traced run.
//!
//! [`TimedFtl`] wraps one shard FTL and [`TimedWorkload`] wraps the request
//! generator. Both forward every call unchanged, so the simulated results of
//! a wrapped run are bit-for-bit those of a plain run; only host time is
//! added, two clock reads per timed call (`bench.clock_read_ns` prices them).

use ftl_base::{Ftl, FtlStats, GcMode, HostRequest, Lpn};
use harness::wallclock::WallTimer;
use ssd_sim::{DeviceStats, FlashDevice, SimTime, TraceEvent};
use workloads::Workload;

/// Host time of one call, read off a clock that started with the wrapper.
fn timed<T>(clock: &WallTimer, call: impl FnOnce() -> T) -> (T, u64) {
    let start = clock.elapsed();
    let out = call();
    let ns = (clock.elapsed() - start).as_nanos() as u64;
    (out, ns)
}

/// An [`Ftl`] that records the host nanoseconds of every `read`, `write`
/// and `submit` call. The recording window follows the FTL statistics
/// window: [`Ftl::reset_stats`] (which the runner calls before the measured
/// phase) also clears the recorded calls.
pub struct TimedFtl<F> {
    inner: F,
    clock: WallTimer,
    calls_ns: Vec<u64>,
}

impl<F: Ftl> TimedFtl<F> {
    /// Wraps `inner`.
    pub fn new(inner: F) -> Self {
        TimedFtl {
            inner,
            clock: WallTimer::start(),
            calls_ns: Vec::new(),
        }
    }

    /// Host nanoseconds of every call since the last statistics reset.
    pub fn calls_ns(&self) -> &[u64] {
        &self.calls_ns
    }

    fn record<T>(&mut self, call: impl FnOnce(&mut F) -> T) -> T {
        let inner = &mut self.inner;
        let (out, ns) = timed(&self.clock, || call(inner));
        self.calls_ns.push(ns);
        out
    }
}

// Every trait method is forwarded explicitly, the defaulted ones too: a
// default left in place would run against the wrapper instead of the shard
// (a scheduled-GC drain would silently do nothing).
impl<F: Ftl> Ftl for TimedFtl<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn read(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.record(|f| f.read(lpn, pages, now))
    }

    fn write(&mut self, lpn: Lpn, pages: u32, now: SimTime) -> SimTime {
        self.record(|f| f.write(lpn, pages, now))
    }

    fn submit(&mut self, req: HostRequest, now: SimTime) -> SimTime {
        self.record(|f| f.submit(req, now))
    }

    fn stats(&self) -> &FtlStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.calls_ns.clear();
    }

    fn logical_pages(&self) -> u64 {
        self.inner.logical_pages()
    }

    fn device(&self) -> &FlashDevice {
        self.inner.device()
    }

    fn device_mut(&mut self) -> &mut FlashDevice {
        self.inner.device_mut()
    }

    fn drain_time(&self) -> SimTime {
        self.inner.drain_time()
    }

    fn device_stats(&self) -> DeviceStats {
        self.inner.device_stats()
    }

    fn reset_device_stats(&mut self) {
        self.inner.reset_device_stats()
    }

    fn gc_mode(&self) -> GcMode {
        self.inner.gc_mode()
    }

    fn drain_gc(&mut self) -> SimTime {
        self.inner.drain_gc()
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on)
    }

    fn tracing(&self) -> bool {
        self.inner.tracing()
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.inner.take_trace()
    }
}

/// A [`Workload`] that counts and times every `next_request` call.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    clock: WallTimer,
    /// `next_request` calls, including each stream's final `None`.
    pub calls: u64,
    /// Requests handed out.
    pub generated: u64,
    /// Host nanoseconds spent inside `next_request`.
    pub total_ns: u64,
}

impl TimedWorkload {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Workload>) -> Self {
        TimedWorkload {
            inner,
            clock: WallTimer::start(),
            calls: 0,
            generated: 0,
            total_ns: 0,
        }
    }
}

impl Workload for TimedWorkload {
    fn streams(&self) -> usize {
        self.inner.streams()
    }

    fn next_request(&mut self, stream: usize) -> Option<HostRequest> {
        let inner = &mut self.inner;
        let (req, ns) = timed(&self.clock, || inner.next_request(stream));
        self.calls += 1;
        self.generated += u64::from(req.is_some());
        self.total_ns += ns;
        req
    }

    fn total_requests(&self) -> Option<u64> {
        self.inner.total_requests()
    }
}
