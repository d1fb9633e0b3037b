//! Latency collection and percentile reporting.

use ssd_sim::Duration;

/// Collects per-request latencies and reports percentiles.
///
/// The paper reports P99 and P99.9 tail latencies (Fig. 21); this histogram
/// keeps every sample (the experiments issue at most a few million requests)
/// so percentiles are exact rather than bucketed approximations.
///
/// The histogram tracks whether its samples are already in order, so sorting
/// work is only ever paid once: recording a non-decreasing stream never
/// sorts, [`LatencyHistogram::merge`] of two sorted histograms performs an
/// O(n+m) merge instead of invalidating the order, and a percentile query
/// after out-of-order inserts sorts exactly once (or eagerly via
/// [`LatencyHistogram::finalize`]).
///
/// ```
/// use metrics::LatencyHistogram;
/// use ssd_sim::Duration;
///
/// let mut h = LatencyHistogram::new();
/// for us in 1..=100 {
///     h.record(Duration::from_micros(us));
/// }
/// assert!(h.is_sorted(), "monotone recording never needs a sort");
/// assert_eq!(h.percentile(0.99), Duration::from_micros(99));
/// assert_eq!(h.max(), Duration::from_micros(100));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    samples: Vec<Duration>,
    sorted: bool,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            samples: Vec::new(),
            // An empty sample set is trivially ordered.
            sorted: true,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample. Appending in non-decreasing order keeps
    /// the histogram sorted, so percentile queries stay free of sorting.
    pub fn record(&mut self, latency: Duration) {
        if self.sorted && self.samples.last().is_some_and(|&last| last > latency) {
            self.sorted = false;
        }
        self.samples.push(latency);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The mean latency, or zero when empty.
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let total: u128 = self.samples.iter().map(|d| u128::from(d.as_nanos())).sum();
        Duration::from_nanos((total / self.samples.len() as u128) as u64)
    }

    /// The maximum latency, or zero when empty. O(1) once sorted.
    pub fn max(&self) -> Duration {
        if self.sorted {
            return self.samples.last().copied().unwrap_or(Duration::ZERO);
        }
        self.samples.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// Whether the samples are currently held in non-decreasing order (so a
    /// percentile query would not need to sort).
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Sorts the samples now, so later [`LatencyHistogram::percentile`] /
    /// [`LatencyHistogram::p99`] / [`LatencyHistogram::p999`] calls are pure
    /// lookups. Idempotent; a no-op when already sorted.
    pub fn finalize(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The latency at quantile `q` in `[0, 1]` (e.g. `0.99` for P99), or zero
    /// when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.finalize();
        let rank = ((self.samples.len() as f64) * q).ceil() as usize;
        let idx = rank.clamp(1, self.samples.len()) - 1;
        self.samples[idx]
    }

    /// P99 latency (paper Fig. 21 left).
    pub fn p99(&mut self) -> Duration {
        self.percentile(0.99)
    }

    /// P99.9 latency (paper Fig. 21 right).
    pub fn p999(&mut self) -> Duration {
        self.percentile(0.999)
    }

    /// Merges another histogram's samples into this one.
    ///
    /// When both sides are already sorted (the common case when aggregating
    /// per-shard histograms that each recorded in completion order) the two
    /// runs are merged in O(n+m) and the result stays sorted, so the P99 /
    /// P99.9 / percentile reads that follow never pay a full re-sort.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.samples.is_empty() {
            return;
        }
        if self.samples.is_empty() {
            self.samples.extend_from_slice(&other.samples);
            self.sorted = other.sorted;
            return;
        }
        if self.sorted && other.sorted {
            let mut merged = Vec::with_capacity(self.samples.len() + other.samples.len());
            let (a, b) = (&self.samples, &other.samples);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if a[i] <= b[j] {
                    merged.push(a[i]);
                    i += 1;
                } else {
                    merged.push(b[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&b[j..]);
            self.samples = merged;
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.p99(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn percentiles_of_uniform_samples() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.percentile(0.5), Duration::from_micros(500));
        assert_eq!(h.p99(), Duration::from_micros(990));
        assert_eq!(h.p999(), Duration::from_micros(999));
        assert_eq!(h.percentile(1.0), Duration::from_micros(1000));
        assert_eq!(h.percentile(0.0), Duration::from_micros(1));
        assert_eq!(h.mean(), Duration::from_nanos(500_500));
    }

    #[test]
    fn tail_dominated_by_outliers() {
        let mut h = LatencyHistogram::new();
        for _ in 0..990 {
            h.record(Duration::from_micros(50));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(3));
        }
        assert_eq!(h.percentile(0.5), Duration::from_micros(50));
        assert_eq!(h.p99(), Duration::from_micros(50));
        assert_eq!(h.p999(), Duration::from_millis(3));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        let mut b = LatencyHistogram::new();
        b.record(Duration::from_micros(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Duration::from_micros(20));
    }

    #[test]
    fn monotone_recording_stays_sorted() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_sorted());
        for us in [1u64, 1, 2, 5, 5, 9] {
            h.record(Duration::from_micros(us));
        }
        assert!(h.is_sorted(), "non-decreasing stream must not invalidate");
        h.record(Duration::from_micros(3));
        assert!(!h.is_sorted());
        h.finalize();
        assert!(h.is_sorted());
        assert_eq!(h.max(), Duration::from_micros(9));
    }

    #[test]
    fn merge_of_sorted_histograms_stays_sorted() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for us in [1u64, 4, 9] {
            a.record(Duration::from_micros(us));
        }
        for us in [2u64, 3, 20] {
            b.record(Duration::from_micros(us));
        }
        a.merge(&b);
        assert!(a.is_sorted(), "sorted runs must merge without a re-sort");
        assert_eq!(a.count(), 6);
        assert_eq!(a.percentile(0.5), Duration::from_micros(3));
        assert_eq!(a.max(), Duration::from_micros(20));
    }

    #[test]
    fn merge_into_empty_adopts_other_order() {
        let mut unsorted = LatencyHistogram::new();
        unsorted.record(Duration::from_micros(9));
        unsorted.record(Duration::from_micros(1));
        assert!(!unsorted.is_sorted());
        let mut empty = LatencyHistogram::new();
        empty.merge(&unsorted);
        assert!(!empty.is_sorted());
        assert_eq!(empty.percentile(0.0), Duration::from_micros(1));

        let mut sorted = LatencyHistogram::new();
        sorted.record(Duration::from_micros(1));
        sorted.record(Duration::from_micros(2));
        let mut empty2 = LatencyHistogram::new();
        empty2.merge(&sorted);
        assert!(empty2.is_sorted());
    }

    #[test]
    fn merge_with_unsorted_side_still_correct() {
        let mut a = LatencyHistogram::new();
        a.record(Duration::from_micros(7));
        a.record(Duration::from_micros(2)); // unsorted now
        let mut b = LatencyHistogram::new();
        b.record(Duration::from_micros(5));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.percentile(0.5), Duration::from_micros(5));
        assert_eq!(a.max(), Duration::from_micros(7));
    }

    /// Regression pin: `finalize` must be idempotent — a second call (or a
    /// percentile query after an explicit finalize) must not disturb counts,
    /// percentiles or the sorted flag.
    #[test]
    fn finalize_is_idempotent() {
        let mut h = LatencyHistogram::new();
        for us in [9u64, 1, 5, 5, 2] {
            h.record(Duration::from_micros(us));
        }
        assert!(!h.is_sorted());
        h.finalize();
        let (count, p50, p100, max) = (h.count(), h.percentile(0.5), h.percentile(1.0), h.max());
        h.finalize();
        h.finalize();
        assert!(h.is_sorted());
        assert_eq!(h.count(), count);
        assert_eq!(h.percentile(0.5), p50);
        assert_eq!(h.percentile(1.0), p100);
        assert_eq!(h.max(), max);
    }

    /// Regression pin: merging into an already-finalized histogram must keep
    /// the sorted flag truthful and percentiles exact — both when the other
    /// side is sorted (O(n+m) merge path) and when it is not (the flag must
    /// drop so the next query re-sorts).
    #[test]
    fn merge_after_finalize_keeps_percentiles_exact() {
        let mut a = LatencyHistogram::new();
        for us in [40u64, 10, 30] {
            a.record(Duration::from_micros(us));
        }
        a.finalize();

        let mut sorted_other = LatencyHistogram::new();
        for us in [20u64, 50] {
            sorted_other.record(Duration::from_micros(us));
        }
        a.merge(&sorted_other);
        assert!(a.is_sorted(), "finalized + sorted stays sorted");
        assert_eq!(a.count(), 5);
        assert_eq!(a.percentile(0.5), Duration::from_micros(30));
        assert_eq!(a.percentile(1.0), Duration::from_micros(50));

        let mut unsorted_other = LatencyHistogram::new();
        unsorted_other.record(Duration::from_micros(25));
        unsorted_other.record(Duration::from_micros(5));
        a.merge(&unsorted_other);
        assert!(!a.is_sorted(), "unsorted input must drop the flag");
        assert_eq!(a.count(), 7);
        assert_eq!(a.percentile(0.0), Duration::from_micros(5));
        assert_eq!(a.percentile(0.5), Duration::from_micros(25));
        assert_eq!(a.max(), Duration::from_micros(50));
        // A finalize after the mixed merge restores O(1) queries and is again
        // stable under repetition.
        a.finalize();
        a.finalize();
        assert_eq!(a.percentile(0.5), Duration::from_micros(25));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(1));
        h.percentile(1.5);
    }

    proptest! {
        #[test]
        fn prop_percentile_is_monotonic_and_bounded(
            samples in proptest::collection::vec(0u64..10_000_000, 1..400),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let mut h = LatencyHistogram::new();
            for s in &samples {
                h.record(Duration::from_nanos(*s));
            }
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let p_lo = h.percentile(lo);
            let p_hi = h.percentile(hi);
            prop_assert!(p_lo <= p_hi);
            prop_assert!(p_hi <= h.max());
        }

        /// Model check: any interleaving of record / merge / finalize leaves
        /// the histogram agreeing with a naive sort of everything recorded,
        /// and the sorted flag never claims order that does not exist.
        #[test]
        fn prop_operations_match_naive_model(
            batches in proptest::collection::vec(
                proptest::collection::vec(0u64..1_000_000, 1..40),
                1..8,
            ),
            finalize_mask in proptest::collection::vec(any::<bool>(), 8..9),
        ) {
            let mut h = LatencyHistogram::new();
            let mut model: Vec<u64> = Vec::new();
            for (i, batch) in batches.iter().enumerate() {
                let mut other = LatencyHistogram::new();
                for &ns in batch {
                    other.record(Duration::from_nanos(ns));
                }
                model.extend_from_slice(batch);
                h.merge(&other);
                if finalize_mask[i] {
                    h.finalize();
                    h.finalize(); // idempotence under the same interleaving
                }
            }
            model.sort_unstable();
            prop_assert_eq!(h.count(), model.len());
            prop_assert_eq!(h.max(), Duration::from_nanos(*model.last().unwrap()));
            for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
                let rank = ((model.len() as f64) * q).ceil() as usize;
                let idx = rank.clamp(1, model.len()) - 1;
                prop_assert_eq!(h.percentile(q), Duration::from_nanos(model[idx]));
            }
        }

        /// Merging per-lane histograms — each sorted because lanes append in
        /// completion order — yields a sorted aggregate containing exactly
        /// the union of the samples, whatever order the lanes are merged in.
        #[test]
        fn prop_lane_merge_is_sorted_union(
            lanes in proptest::collection::vec(
                proptest::collection::vec(0u64..5_000_000, 0..60),
                1..6,
            ),
            shuffle_seed in 0u64..u64::MAX,
        ) {
            // Build each lane sorted (completion order is non-decreasing per
            // engine) and check monotone append never invalidates sortedness.
            let mut built: Vec<LatencyHistogram> = Vec::new();
            let mut all: Vec<u64> = Vec::new();
            for lane in &lanes {
                let mut sorted = lane.clone();
                sorted.sort_unstable();
                let mut h = LatencyHistogram::new();
                for &ns in &sorted {
                    h.record(Duration::from_nanos(ns));
                }
                prop_assert!(h.is_sorted(), "monotone append must stay sorted");
                all.extend_from_slice(&sorted);
                built.push(h);
            }
            // Merge in an arbitrary (seed-derived Fisher-Yates) order.
            let mut order: Vec<usize> = (0..built.len()).collect();
            let mut state = shuffle_seed | 1;
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let mut merged = LatencyHistogram::new();
            for &idx in &order {
                merged.merge(&built[idx]);
            }
            prop_assert!(merged.is_sorted(), "sorted lanes must merge sorted");
            prop_assert_eq!(merged.count(), all.len());
            all.sort_unstable();
            if let (Some(&min), Some(&max)) = (all.first(), all.last()) {
                prop_assert_eq!(merged.percentile(0.0), Duration::from_nanos(min));
                prop_assert_eq!(merged.percentile(1.0), Duration::from_nanos(max));
                let mid = all[(all.len().div_ceil(2)).saturating_sub(1)];
                prop_assert_eq!(merged.percentile(0.5), Duration::from_nanos(mid));
            }
        }

        /// Model check for the multi-tenant aggregation shape: N per-tenant
        /// histograms, each finalized after recording (like the harness's
        /// `TenantLane`s), merged pairwise as a balanced tree — the result
        /// must agree with a naive sort of everything, stay sorted at every
        /// tree level (each pairwise merge hits the O(n+m) sorted-merge
        /// path), and match the flat left-to-right merge the runners use.
        #[test]
        fn prop_tenant_merge_tree_matches_naive_model(
            lanes in proptest::collection::vec(
                proptest::collection::vec(0u64..1_000_000, 1..30),
                1..10,
            ),
        ) {
            let leaves: Vec<LatencyHistogram> = lanes
                .iter()
                .map(|lane| {
                    let mut h = LatencyHistogram::new();
                    for &ns in lane {
                        h.record(Duration::from_nanos(ns));
                    }
                    h.finalize();
                    h
                })
                .collect();

            // Balanced pairwise merge tree.
            let mut level = leaves.clone();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                for pair in level.chunks(2) {
                    let mut node = pair[0].clone();
                    if let Some(right) = pair.get(1) {
                        node.merge(right);
                    }
                    prop_assert!(
                        node.is_sorted(),
                        "merging finalized histograms must stay sorted"
                    );
                    next.push(node);
                }
                level = next;
            }
            let mut tree = level.pop().unwrap();

            // The flat fold the runners use when aggregating lanes.
            let mut flat = LatencyHistogram::new();
            for leaf in &leaves {
                flat.merge(leaf);
            }

            let mut model: Vec<u64> = lanes.concat();
            model.sort_unstable();
            prop_assert_eq!(tree.count(), model.len());
            prop_assert_eq!(flat.count(), model.len());
            prop_assert_eq!(tree.max(), Duration::from_nanos(*model.last().unwrap()));
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((model.len() as f64) * q).ceil() as usize;
                let idx = rank.clamp(1, model.len()) - 1;
                let expected = Duration::from_nanos(model[idx]);
                prop_assert_eq!(tree.percentile(q), expected);
                prop_assert_eq!(flat.percentile(q), expected);
            }
        }
    }
}
