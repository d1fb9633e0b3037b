//! The serial translation engine: one FTL core's issue path.
//!
//! A [`SerialEngine`] models the resource every FTL shard runs on — one
//! embedded core that translates one request at a time. The
//! [`crate::MultiIssuer`] bank owns one per shard, and `ftl-shard`'s
//! `ShardedFtl` submits each shard-local piece of a host request to its
//! shard's engine directly.

use metrics::LatencyHistogram;
use ssd_sim::{Duration, SimTime};

/// One serial issue engine: busy from each request's issue until its
/// completion, with requests queueing FIFO behind it.
///
/// ```
/// use ssd_sched::SerialEngine;
/// use ssd_sim::{Duration, SimTime};
///
/// let mut engine = SerialEngine::new();
/// let service = Duration::from_micros(40);
/// let (i0, c0) = engine.submit(SimTime::ZERO, |t| t + service);
/// let (i1, _) = engine.submit(SimTime::ZERO, |t| t + service);
/// assert_eq!(i0, SimTime::ZERO);
/// assert_eq!(i1, c0, "the engine serialises");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SerialEngine {
    free_at: SimTime,
    dispatched: u64,
    busy: Duration,
    waits: LatencyHistogram,
}

impl SerialEngine {
    /// Creates an engine that is free at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The time this engine becomes free (equal to the completion time of
    /// its last dispatched request).
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Requests dispatched through this engine since the last stats reset.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Simulated time this engine spent busy (issue → completion) since the
    /// last stats reset.
    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// Time requests spent waiting for this engine to come free
    /// (arrival → issue) since the last stats reset.
    pub fn waits(&self) -> &LatencyHistogram {
        &self.waits
    }

    /// Resets the counters without touching `free_at` — the simulated
    /// timeline continues, only the measurement window restarts.
    pub fn reset_stats(&mut self) {
        self.dispatched = 0;
        self.busy = Duration::ZERO;
        self.waits = LatencyHistogram::new();
    }

    /// Dispatches a request arriving at `arrival`.
    ///
    /// The request issues when the engine is free (`max(arrival, free_at)`),
    /// `run` maps the issue time to the completion time, and the engine
    /// stays busy until that completion. Returns `(issue, completion)`.
    ///
    /// # Panics
    ///
    /// Panics if `run` returns a completion before the issue time.
    pub fn submit<F: FnOnce(SimTime) -> SimTime>(
        &mut self,
        arrival: SimTime,
        run: F,
    ) -> (SimTime, SimTime) {
        let issue = arrival.max(self.free_at);
        let completion = run(issue);
        assert!(
            completion >= issue,
            "completion must not precede issue ({completion} < {issue})"
        );
        self.free_at = completion;
        self.dispatched += 1;
        self.busy += completion - issue;
        self.waits.record(issue - arrival);
        (issue, completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVICE: Duration = Duration::from_micros(50);

    #[test]
    fn engine_serialises_and_counts() {
        let mut e = SerialEngine::new();
        let (i0, c0) = e.submit(SimTime::ZERO, |t| t + SERVICE);
        assert_eq!(i0, SimTime::ZERO);
        let (i1, c1) = e.submit(SimTime::ZERO, |t| t + SERVICE);
        assert_eq!(i1, c0);
        assert_eq!(e.free_at(), c1);
        assert_eq!(e.dispatched(), 2);
        assert_eq!(e.busy(), SERVICE + SERVICE);
        assert_eq!(e.waits().count(), 2);
        assert_eq!(e.waits().max(), SERVICE);
    }

    #[test]
    fn reset_stats_keeps_the_timeline() {
        let mut e = SerialEngine::new();
        let (_, c) = e.submit(SimTime::ZERO, |t| t + SERVICE);
        e.reset_stats();
        assert_eq!(e.dispatched(), 0);
        assert_eq!(e.busy(), Duration::ZERO);
        assert_eq!(e.waits().count(), 0);
        assert_eq!(e.free_at(), c, "busy-until survives the reset");
    }

    #[test]
    #[should_panic(expected = "completion must not precede issue")]
    fn time_travel_rejected() {
        let mut e = SerialEngine::new();
        e.submit(SimTime::from_micros(10), |_| SimTime::ZERO);
    }
}
