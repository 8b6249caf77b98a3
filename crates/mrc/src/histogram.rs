//! Stack-distance histograms.

use std::collections::BTreeMap;

/// A histogram of LRU stack distances (in cache lines), plus a count of
/// *cold* accesses whose distance is infinite (first touch).
///
/// Distances are exact and sparse: most programs touch a handful of distinct
/// reuse distances, so a `BTreeMap` keyed by distance keeps both memory and
/// iteration (in ascending distance order, which miss-curve construction
/// needs) cheap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StackDistanceHistogram {
    finite: BTreeMap<u64, u64>,
    cold: u64,
    weight: u64,
}

impl StackDistanceHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finite stack distance (number of distinct lines touched
    /// since the last access to this line, inclusive of the line itself).
    ///
    /// A distance of `d` means the access hits in any cache holding at least
    /// `d` lines of this stream.
    pub fn record(&mut self, distance: u64) {
        self.record_weighted(distance, 1);
    }

    /// Records a finite distance with a multiplicity (used by sampled
    /// monitors, which scale each observation by the sampling rate).
    pub fn record_weighted(&mut self, distance: u64, count: u64) {
        *self.finite.entry(distance.max(1)).or_insert(0) += count;
        self.weight += count;
    }

    /// Records a cold (compulsory) access: infinite stack distance.
    pub fn record_cold(&mut self) {
        self.record_cold_weighted(1);
    }

    /// Records cold accesses with a multiplicity.
    pub fn record_cold_weighted(&mut self, count: u64) {
        self.cold += count;
        self.weight += count;
    }

    /// Total recorded accesses (finite + cold), with weights.
    pub fn total(&self) -> u64 {
        self.weight
    }

    /// Total finite-distance accesses.
    pub fn finite_total(&self) -> u64 {
        self.weight - self.cold
    }

    /// Number of cold (first-touch) accesses.
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Largest finite distance observed (0 if none).
    pub fn max_distance(&self) -> u64 {
        self.finite.keys().next_back().copied().unwrap_or(0)
    }

    /// Iterates `(distance, count)` pairs in ascending distance order.
    pub fn iter_finite(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.finite.iter().map(|(&d, &c)| (d, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (d, c) in other.iter_finite() {
            self.record_weighted(d, c);
        }
        self.record_cold_weighted(other.cold);
        self.weight -= other.cold + other.finite_total(); // record_* double-counted
        self.weight += other.weight;
    }

    /// Clears all recorded data.
    pub fn clear(&mut self) {
        self.finite.clear();
        self.cold = 0;
        self.weight = 0;
    }

    /// Number of accesses that would hit in a cache of `capacity_lines`
    /// lines (finite distances ≤ capacity).
    pub fn hits_at(&self, capacity_lines: u64) -> u64 {
        self.finite.range(..=capacity_lines).map(|(_, &c)| c).sum()
    }

    /// Number of accesses that would miss in a cache of `capacity_lines`.
    pub fn misses_at(&self, capacity_lines: u64) -> u64 {
        self.total() - self.hits_at(capacity_lines)
    }
}

/// Miss ratios of `h` at capacities `0, step, 2*step, …, hi`, computed
/// in one cumulative walk over the histogram (per-capacity
/// [`misses_at`](StackDistanceHistogram::misses_at) queries would make a
/// whole-curve sweep quadratic in the histogram size).
fn miss_ratio_sweep(h: &StackDistanceHistogram, step: u64, hi: u64) -> Vec<f64> {
    let total = h.total().max(1) as f64;
    let mut out = Vec::with_capacity((hi / step + 2) as usize);
    let mut finite = h.iter_finite().peekable();
    let mut hits = 0u64;
    let mut cap = 0u64;
    loop {
        while let Some(&(d, c)) = finite.peek() {
            if d > cap {
                break;
            }
            hits += c;
            finite.next();
        }
        out.push((h.total() - hits) as f64 / total);
        if cap > hi {
            return out;
        }
        cap += step;
    }
}

/// The largest absolute miss-ratio difference between two histograms,
/// swept over every capacity from 0 to past both histograms' maximum
/// distance in steps of `step_lines` — the error metric sampled MRC
/// profiling is judged by (sampled vs exact).
///
/// This pointwise metric is the right contract for smooth miss curves.
/// A trace with a near-vertical cliff (a cyclic sweep's working set)
/// defeats it: sampling reproduces the cliff's *height* exactly but can
/// place it a percent or two off in capacity, and every point between
/// the two cliff positions then reports the full cliff height. Judge
/// such traces with [`max_miss_ratio_error_with_slack`] instead.
pub fn max_miss_ratio_error(
    a: &StackDistanceHistogram,
    b: &StackDistanceHistogram,
    step_lines: u64,
) -> f64 {
    max_miss_ratio_error_with_slack(a, b, step_lines, 0.0)
}

/// [`max_miss_ratio_error`] with a relative *capacity* tolerance: point
/// `c` of one curve is compared against the closest value the other
/// curve attains anywhere in `[c / (1 + slack), c * (1 + slack)]`, in
/// both directions. `capacity_slack` of 0.05 means "within the miss
/// ratio the other curve has at ±5% capacity" — the standard way to
/// score MRCs whose knees sampling can displace slightly sideways
/// without misjudging their height.
pub fn max_miss_ratio_error_with_slack(
    a: &StackDistanceHistogram,
    b: &StackDistanceHistogram,
    step_lines: u64,
    capacity_slack: f64,
) -> f64 {
    let step = step_lines.max(1);
    let hi = a.max_distance().max(b.max_distance()) + step;
    let ra = miss_ratio_sweep(a, step, hi);
    let rb = miss_ratio_sweep(b, step, hi);
    let n = ra.len().min(rb.len());
    let slack = capacity_slack.max(0.0);
    let mut worst = 0.0f64;
    for i in 0..n {
        let lo = (i as f64 / (1.0 + slack)).floor() as usize;
        let hi = (((i as f64) * (1.0 + slack)).ceil() as usize).min(n - 1);
        // Miss ratios are monotone non-increasing in capacity, so over
        // the window a curve spans exactly `[curve[hi], curve[lo]]`.
        // Measure against that *range* (the completed graph of the step
        // function): a cliff jumps past intermediate values without
        // attaining them at any sampled capacity, and a point on the
        // other curve's smeared cliff should match the jump, not the
        // nearest attained value.
        let against = |curve: &[f64], v: f64| (v - curve[lo]).max(curve[hi] - v).max(0.0);
        worst = worst.max(against(&ra, rb[i]).max(against(&rb, ra[i])));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut h = StackDistanceHistogram::new();
        h.record(3);
        h.record(3);
        h.record(10);
        h.record_cold();
        assert_eq!(h.total(), 4);
        assert_eq!(h.finite_total(), 3);
        assert_eq!(h.cold_misses(), 1);
        assert_eq!(h.max_distance(), 10);
    }

    #[test]
    fn zero_distance_clamps_to_one() {
        let mut h = StackDistanceHistogram::new();
        h.record(0);
        assert_eq!(h.hits_at(1), 1);
    }

    #[test]
    fn hits_and_misses_partition_total() {
        let mut h = StackDistanceHistogram::new();
        for d in [1u64, 5, 5, 9, 100] {
            h.record(d);
        }
        h.record_cold_weighted(3);
        for cap in [0u64, 1, 4, 5, 9, 99, 100, 1000] {
            assert_eq!(h.hits_at(cap) + h.misses_at(cap), h.total());
        }
        assert_eq!(h.hits_at(5), 3);
        assert_eq!(h.misses_at(5), 5);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = StackDistanceHistogram::new();
        a.record(2);
        a.record_cold();
        let mut b = StackDistanceHistogram::new();
        b.record(2);
        b.record(7);
        b.record_cold_weighted(2);
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.cold_misses(), 3);
        assert_eq!(a.hits_at(2), 2);
        assert_eq!(a.hits_at(7), 3);
    }

    #[test]
    fn weighted_records_scale() {
        let mut h = StackDistanceHistogram::new();
        h.record_weighted(4, 64);
        assert_eq!(h.total(), 64);
        assert_eq!(h.hits_at(4), 64);
    }

    #[test]
    fn error_metric_matches_naive_sweep() {
        let mut a = StackDistanceHistogram::new();
        let mut b = StackDistanceHistogram::new();
        for d in [1u64, 40, 40, 90, 300] {
            a.record(d);
        }
        a.record_cold_weighted(2);
        for d in [2u64, 35, 95, 95, 310] {
            b.record(d);
        }
        b.record_cold_weighted(2);
        let fast = max_miss_ratio_error(&a, &b, 8);
        let ratio = |h: &StackDistanceHistogram, cap| h.misses_at(cap) as f64 / h.total() as f64;
        let mut naive = 0.0f64;
        let mut cap = 0;
        while cap <= a.max_distance().max(b.max_distance()) + 8 {
            naive = naive.max((ratio(&a, cap) - ratio(&b, cap)).abs());
            cap += 8;
        }
        assert!((fast - naive).abs() < 1e-12);
        assert_eq!(max_miss_ratio_error(&a, &a, 8), 0.0);
    }

    #[test]
    fn capacity_slack_forgives_a_shifted_cliff() {
        // Two cliffs of the same height, 2% apart in capacity: pointwise
        // error is the full cliff height, slack error is ~0.
        let mut a = StackDistanceHistogram::new();
        let mut b = StackDistanceHistogram::new();
        a.record_weighted(1000, 100);
        b.record_weighted(1020, 100);
        let strict = max_miss_ratio_error(&a, &b, 4);
        assert!(strict > 0.9, "between the cliffs everything differs");
        let slack = max_miss_ratio_error_with_slack(&a, &b, 4, 0.05);
        assert!(slack < 1e-9, "5% capacity slack absorbs a 2% shift");
    }

    #[test]
    fn iter_is_ascending() {
        let mut h = StackDistanceHistogram::new();
        for d in [9u64, 1, 5] {
            h.record(d);
        }
        let ds: Vec<u64> = h.iter_finite().map(|(d, _)| d).collect();
        assert_eq!(ds, vec![1, 5, 9]);
    }
}
