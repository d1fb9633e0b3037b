//! Multi-issuer submission: a bank of serial issue paths over one host queue.
//!
//! A monolithic FTL driven through [`crate::QueuePair`] behaves as if its
//! translation path were infinitely parallel: every slot's request is handed
//! to the FTL the moment it issues, regardless of how many other requests the
//! FTL is already chewing on. Real FTL frontends are not like that — each
//! FTL instance runs on one embedded core and processes one request at a
//! time. [`MultiIssuer`] models exactly that resource: `issuers` independent
//! [`SerialEngine`]s (one per FTL shard), each busy from a request's issue
//! until its completion, with requests to the same engine queueing FIFO
//! behind it.
//!
//! The sharded FTL frontend (`ftl-shard`) owns a `MultiIssuer` with one
//! issuer per shard; the host queue depth stays where it was ([`crate::QueuePair`]
//! inside the experiment harness), so the two bounds compose: queue depth
//! limits how many requests the *host* keeps in flight, the issuer bank
//! limits how many the *device frontend* can translate concurrently.

use metrics::LatencyHistogram;
use ssd_sim::{Duration, SimTime};

use crate::engine::SerialEngine;

/// Per-issuer counters plus the engine-queueing distribution, synthesized
/// from the bank's [`SerialEngine`]s by [`MultiIssuer::stats`].
#[derive(Debug, Clone, Default)]
pub struct MultiIssuerStats {
    /// Requests dispatched through each issuer.
    pub dispatched: Vec<u64>,
    /// Simulated time each issuer spent busy (issue → completion).
    pub busy: Vec<Duration>,
    /// Time requests spent waiting for their issuer to come free
    /// (arrival → issue), across all issuers.
    pub waits: LatencyHistogram,
}

/// A bank of serial issue engines, keyed by issuer index.
///
/// ```
/// use ssd_sched::MultiIssuer;
/// use ssd_sim::{Duration, SimTime};
///
/// let mut bank = MultiIssuer::new(2);
/// let service = Duration::from_micros(40);
/// // Two requests on issuer 0 serialise; issuer 1 runs in parallel.
/// let (i0, c0) = bank.submit(0, SimTime::ZERO, |t| t + service);
/// let (i1, _) = bank.submit(0, SimTime::ZERO, |t| t + service);
/// let (i2, _) = bank.submit(1, SimTime::ZERO, |t| t + service);
/// assert_eq!(i0, SimTime::ZERO);
/// assert_eq!(i1, c0, "same issuer serialises");
/// assert_eq!(i2, SimTime::ZERO, "other issuer is free");
/// ```
#[derive(Debug, Clone)]
pub struct MultiIssuer {
    engines: Vec<SerialEngine>,
}

impl MultiIssuer {
    /// Creates a bank of `issuers` engines, all free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `issuers` is zero.
    pub fn new(issuers: usize) -> Self {
        assert!(issuers > 0, "need at least one issuer");
        MultiIssuer {
            engines: vec![SerialEngine::new(); issuers],
        }
    }

    /// Number of issue engines in the bank.
    pub fn issuers(&self) -> usize {
        self.engines.len()
    }

    /// The time `issuer` becomes free (equal to the completion time of its
    /// last dispatched request).
    ///
    /// # Panics
    ///
    /// Panics if `issuer` is out of range.
    pub fn free_at(&self, issuer: usize) -> SimTime {
        self.engines[issuer].free_at()
    }

    /// The time every issuer is free (the bank's quiesce point).
    pub fn drain_time(&self) -> SimTime {
        self.engines
            .iter()
            .map(SerialEngine::free_at)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Shared access to one engine.
    ///
    /// # Panics
    ///
    /// Panics if `issuer` is out of range.
    pub fn engine(&self, issuer: usize) -> &SerialEngine {
        &self.engines[issuer]
    }

    /// Exclusive access to one engine (the sharded frontend submits each
    /// shard-local piece through it).
    ///
    /// # Panics
    ///
    /// Panics if `issuer` is out of range.
    pub fn engine_mut(&mut self, issuer: usize) -> &mut SerialEngine {
        &mut self.engines[issuer]
    }

    /// Counters accumulated so far, aggregated across the bank. The `waits`
    /// histogram holds every engine's samples (per-engine recording order,
    /// engines concatenated).
    pub fn stats(&self) -> MultiIssuerStats {
        let mut waits = LatencyHistogram::new();
        for engine in &self.engines {
            waits.merge(engine.waits());
        }
        MultiIssuerStats {
            dispatched: self.engines.iter().map(SerialEngine::dispatched).collect(),
            busy: self.engines.iter().map(SerialEngine::busy).collect(),
            waits,
        }
    }

    /// Resets the counters (dispatch counts, busy times, wait histograms)
    /// without touching the engines' busy-until times — the simulated
    /// timeline continues, only the measurement window restarts. Frontends
    /// reset this alongside their FTL statistics between experiment phases.
    pub fn reset_stats(&mut self) {
        for engine in &mut self.engines {
            engine.reset_stats();
        }
    }

    /// Dispatches a request arriving at `arrival` through `issuer`.
    ///
    /// The request issues when the engine is free (`max(arrival, free_at)`),
    /// `run` maps the issue time to the completion time (typically by driving
    /// an FTL shard), and the engine stays busy until that completion.
    /// Returns `(issue, completion)`.
    ///
    /// # Panics
    ///
    /// Panics if `issuer` is out of range or `run` returns a completion
    /// before the issue time.
    pub fn submit<F: FnOnce(SimTime) -> SimTime>(
        &mut self,
        issuer: usize,
        arrival: SimTime,
        run: F,
    ) -> (SimTime, SimTime) {
        self.engines[issuer].submit(arrival, run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVICE: Duration = Duration::from_micros(50);

    #[test]
    fn same_issuer_serialises_different_issuers_overlap() {
        let mut bank = MultiIssuer::new(4);
        let mut completions = Vec::new();
        for k in 0..8 {
            let (_, c) = bank.submit(k % 4, SimTime::ZERO, |t| t + SERVICE);
            completions.push(c);
        }
        // First four run concurrently, next four queue behind them.
        for c in &completions[..4] {
            assert_eq!(*c, SimTime::ZERO + SERVICE);
        }
        for c in &completions[4..] {
            assert_eq!(*c, SimTime::ZERO + SERVICE + SERVICE);
        }
        assert_eq!(bank.drain_time(), SimTime::ZERO + SERVICE + SERVICE);
    }

    #[test]
    fn waits_are_recorded_only_when_engine_is_busy() {
        let mut bank = MultiIssuer::new(1);
        bank.submit(0, SimTime::ZERO, |t| t + SERVICE);
        bank.submit(0, SimTime::ZERO, |t| t + SERVICE);
        assert_eq!(bank.stats().waits.count(), 2);
        assert_eq!(bank.stats().waits.max(), SERVICE);
        assert_eq!(bank.stats().dispatched, vec![2]);
        assert_eq!(bank.stats().busy[0], SERVICE + SERVICE);
    }

    #[test]
    fn reset_stats_keeps_the_timeline() {
        let mut bank = MultiIssuer::new(2);
        let (_, c) = bank.submit(0, SimTime::ZERO, |t| t + SERVICE);
        bank.reset_stats();
        assert_eq!(bank.stats().dispatched, vec![0, 0]);
        assert_eq!(bank.stats().waits.count(), 0);
        assert_eq!(bank.free_at(0), c, "busy-until survives the reset");
    }

    #[test]
    fn late_arrival_issues_immediately() {
        let mut bank = MultiIssuer::new(2);
        bank.submit(1, SimTime::ZERO, |t| t + SERVICE);
        let late = SimTime::from_millis(3);
        let (issue, _) = bank.submit(1, late, |t| t + SERVICE);
        assert_eq!(issue, late);
    }

    #[test]
    fn free_at_tracks_last_completion() {
        let mut bank = MultiIssuer::new(2);
        let (_, c) = bank.submit(0, SimTime::ZERO, |t| t + SERVICE);
        assert_eq!(bank.free_at(0), c);
        assert_eq!(bank.free_at(1), SimTime::ZERO);
    }

    #[test]
    fn stats_aggregate_across_engines() {
        let mut bank = MultiIssuer::new(2);
        bank.submit(0, SimTime::ZERO, |t| t + SERVICE);
        bank.submit(1, SimTime::ZERO, |t| t + SERVICE);
        bank.submit(1, SimTime::ZERO, |t| t + SERVICE);
        let stats = bank.stats();
        assert_eq!(stats.dispatched, vec![1, 2]);
        assert_eq!(stats.busy, vec![SERVICE, SERVICE + SERVICE]);
        assert_eq!(stats.waits.count(), 3);
        assert_eq!(bank.engine(1).dispatched(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one issuer")]
    fn zero_issuers_rejected() {
        MultiIssuer::new(0);
    }

    #[test]
    #[should_panic(expected = "completion must not precede issue")]
    fn time_travel_rejected() {
        let mut bank = MultiIssuer::new(1);
        bank.submit(0, SimTime::from_micros(10), |_| SimTime::ZERO);
    }
}
