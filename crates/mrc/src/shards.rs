//! SHARDS-style spatially-sampled stack-distance profiling.
//!
//! Exact Mattson profiling ([`MattsonStack`]) holds one reuse-map entry
//! per distinct line, which makes whole-trace miss curves the slowest and
//! hungriest step of the pipeline. SHARDS (Waldspurger et al., FAST'15)
//! observes that a *spatial* hash filter — track line `L` iff
//! `hash(L) mod P < T` — selects a uniform, consistent subset of lines,
//! and that stack distances measured over that subset estimate true
//! distances after scaling by the inverse sampling rate `1/R`, `R = T/P`.
//!
//! [`ShardsStack`] implements both SHARDS variants:
//!
//! * **fixed-rate** — a constant threshold chosen from
//!   [`ShardsConfig::fixed`]'s rate;
//! * **fixed-size (`s_max`)** — the tracked-line set is capped: when it
//!   overflows, the tracked line(s) with the highest hash are evicted and
//!   the threshold drops to that hash, so the rate adapts downward until
//!   memory is ~constant whatever the trace footprint.
//!
//! On [`take_histogram`](ShardsStack::take_histogram) each observation is
//! expanded by the rate in effect when it was recorded, and a SHARDS_adj
//! style correction renormalizes the histogram so its total matches the
//! number of references actually processed (done proportionally rather
//! than via the paper's first-bucket shift, so miss *ratios* — what every
//! consumer here reads — pick up no bias from it; see
//! [`snapshot_histogram`](ShardsStack::snapshot_histogram)).
//!
//! [`MattsonStack`]: crate::MattsonStack

use std::collections::BinaryHeap;

use crate::histogram::StackDistanceHistogram;
use crate::stamp::StampLru;

/// The hash modulus `P`: thresholds live in `[1, P]` and the sampling
/// rate is `T / P`. 2^24 matches the SHARDS paper and gives rate
/// resolution of ~6e-8.
pub const SHARDS_MODULUS: u64 = 1 << 24;

/// The spatial hash: a 64-bit finalizer (SplitMix64) reduced mod
/// [`SHARDS_MODULUS`]. Fixed — not seeded — so sampling is deterministic
/// across runs and processes, and every profiler observing a line agrees
/// on whether it is sampled.
#[inline]
pub(crate) fn spatial_hash(line: u64) -> u64 {
    let mut x = line.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x & (SHARDS_MODULUS - 1)
}

/// Configuration of a [`ShardsStack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardsConfig {
    /// Initial sampling rate in `(0, 1]`; the effective threshold is
    /// `round(rate * P)` clamped to `[1, P]`.
    pub rate: f64,
    /// Cap on the tracked-line set. When present, overflowing the cap
    /// evicts the highest-hash tracked line(s) and lowers the threshold,
    /// SHARDS fixed-size style; `None` keeps the rate fixed.
    pub s_max: Option<usize>,
}

impl ShardsConfig {
    /// Fixed-rate sampling at `rate` (clamped into `(0, 1]`). At rate 1 a
    /// [`ShardsStack`] produces histograms identical to a plain
    /// [`MattsonStack`](crate::MattsonStack).
    pub fn fixed(rate: f64) -> Self {
        Self { rate, s_max: None }
    }

    /// Rate-adaptive sampling: start at `rate`, never track more than
    /// `s_max` lines.
    pub fn adaptive(rate: f64, s_max: usize) -> Self {
        Self {
            rate,
            s_max: Some(s_max),
        }
    }

    fn threshold(&self) -> u64 {
        let t = (self.rate.clamp(0.0, 1.0) * SHARDS_MODULUS as f64).round() as u64;
        t.clamp(1, SHARDS_MODULUS)
    }
}

/// A SHARDS-sampled LRU stack-distance profiler.
///
/// Drives the Mattson LRU stack with only the lines selected by the spatial
/// hash filter, recording each observed distance with the expansion and
/// weight implied by the sampling rate in effect at the time. With
/// [`ShardsConfig::adaptive`] the tracked set never exceeds `s_max`, so
/// memory is constant however large the trace.
///
/// # Example
///
/// ```
/// use wp_mrc::{ShardsConfig, ShardsStack};
/// let mut s = ShardsStack::new(ShardsConfig::adaptive(0.5, 128));
/// for i in 0..100_000u64 {
///     s.access(i % 4096);
/// }
/// assert!(s.tracked() <= 128);
/// let hist = s.take_histogram();
/// // SHARDS_adj pins the expanded total to the true access count.
/// assert_eq!(hist.total(), 100_000);
/// ```
#[derive(Debug, Clone)]
pub struct ShardsStack {
    inner: StampLru<false, true>,
    config: ShardsConfig,
    /// Current hash threshold `T`; a line is tracked iff
    /// `spatial_hash(line) < T`. Only ever decreases.
    threshold: u64,
    /// Max-heap of `(hash, line)` for every tracked line, so overflow
    /// evicts the highest-hash line(s) in `O(log n)`.
    tracked: BinaryHeap<(u64, u64)>,
    /// Expanded distance → accumulated weight (each observation weighs
    /// `1/R` at its recording time).
    finite: std::collections::BTreeMap<u64, f64>,
    cold: f64,
    /// Every reference offered, sampled or not — the SHARDS_adj target.
    total_seen: u64,
    peak_tracked: usize,
}

impl ShardsStack {
    /// Creates a sampled profiler. The underlying Mattson stack is
    /// pre-sized to `s_max` when one is set (the tracked set can never
    /// outgrow it).
    pub fn new(config: ShardsConfig) -> Self {
        Self {
            inner: StampLru::with_capacity(config.s_max.unwrap_or(0)),
            config,
            threshold: config.threshold(),
            tracked: BinaryHeap::new(),
            finite: std::collections::BTreeMap::new(),
            cold: 0.0,
            total_seen: 0,
            peak_tracked: 0,
        }
    }

    /// Processes one reference. Unsampled lines cost one hash; sampled
    /// lines drive the Mattson stack.
    pub fn access(&mut self, line: u64) {
        self.total_seen += 1;
        let h = spatial_hash(line);
        if h >= self.threshold {
            return;
        }
        // Weight and expansion use the rate in effect *now*.
        let weight = SHARDS_MODULUS as f64 / self.threshold as f64;
        match self.inner.touch(line) {
            Some(d) => {
                // A sampled distance d estimates true distance d / R.
                let expanded = (d.saturating_mul(SHARDS_MODULUS) / self.threshold).max(1);
                *self.finite.entry(expanded).or_insert(0.0) += weight;
            }
            None => {
                self.cold += weight;
                // The eviction heap only exists to serve `s_max`
                // adaptation; fixed-rate mode would push one dead entry
                // per distinct sampled line and never pop.
                if let Some(cap) = self.config.s_max {
                    self.tracked.push((h, line));
                    if self.tracked.len() > cap {
                        self.evict_highest();
                    }
                    self.peak_tracked = self.peak_tracked.max(self.tracked.len());
                } else {
                    self.peak_tracked = self.inner.len();
                }
            }
        }
    }

    /// Drops the tracked line(s) with the highest hash and lowers the
    /// threshold to that hash, so no future reference re-admits them.
    fn evict_highest(&mut self) {
        let Some(&(h_max, _)) = self.tracked.peek() else {
            return;
        };
        wp_obs::add(wp_obs::Counter::ShardsEvictions, 1);
        self.threshold = h_max;
        while let Some(&(h, line)) = self.tracked.peek() {
            if h < self.threshold {
                break;
            }
            self.tracked.pop();
            self.inner.remove(line);
        }
    }

    /// The current sampling rate `T / P` (≤ the configured rate; equal to
    /// it unless `s_max` adaptation has lowered the threshold).
    pub fn rate(&self) -> f64 {
        self.threshold as f64 / SHARDS_MODULUS as f64
    }

    /// Lines currently tracked (the sampled LRU stack's distinct-line
    /// set; the eviction heap mirrors it only in `s_max` mode).
    pub fn tracked(&self) -> usize {
        self.inner.len()
    }

    /// The largest tracked-set size ever reached — bounded by `s_max`
    /// when one is configured.
    pub fn peak_tracked(&self) -> usize {
        self.peak_tracked
    }

    /// References offered so far (sampled or not).
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// The configuration this stack was built with.
    pub fn config(&self) -> ShardsConfig {
        self.config
    }

    #[cfg(test)]
    fn tracked_heap_len(&self) -> usize {
        self.tracked.len()
    }

    /// Builds the expanded, total-corrected histogram without resetting
    /// any state.
    ///
    /// The correction is the miss-ratio-preserving variant of SHARDS_adj:
    /// the expanded total should equal the number of references actually
    /// processed, so every bucket is rescaled by `total_seen / expanded`.
    /// (The paper's first-bucket adjustment pins the total too, but it
    /// converts the sampled-set's access-share noise — ±1/√n_s of the
    /// total — into phantom shortest-distance hits, which offsets the
    /// *entire* miss-ratio curve by that amount; proportional rescaling
    /// pins the total while leaving every miss ratio exactly as sampled.)
    ///
    /// When references were processed but *none* were sampled (a tiny
    /// footprint at a very low rate), there is no distance information at
    /// all; the histogram reports every reference as cold — the
    /// conservative all-miss curve — rather than coming back empty and
    /// masquerading as an all-hit stream.
    pub fn snapshot_histogram(&self) -> StackDistanceHistogram {
        let mut cold = self.cold;
        let mut buckets: Vec<(u64, f64)> = self.finite.iter().map(|(&d, &w)| (d, w)).collect();
        let expanded: f64 = cold + buckets.iter().map(|&(_, w)| w).sum::<f64>();
        if expanded > 0.0 {
            let scale = self.total_seen as f64 / expanded;
            cold *= scale;
            for b in &mut buckets {
                b.1 *= scale;
            }
        } else {
            cold = self.total_seen as f64;
        }
        // Cascade rounding: round cumulative weights, not buckets, so the
        // CDF shape survives quantization and the histogram total lands
        // exactly on `total_seen`.
        let mut hist = StackDistanceHistogram::new();
        let mut acc = 0.0f64;
        let mut emitted = 0u64;
        for (d, w) in buckets {
            acc += w;
            let count = (acc.round().max(0.0) as u64).saturating_sub(emitted);
            if count > 0 {
                hist.record_weighted(d, count);
                emitted += count;
            }
        }
        acc += cold;
        let cold_count = (acc.round().max(0.0) as u64).saturating_sub(emitted);
        if cold_count > 0 {
            hist.record_cold_weighted(cold_count);
        }
        hist
    }

    /// Takes the corrected histogram and resets the accumulated counts
    /// (the sampled LRU stack, threshold, and peak statistics survive, so
    /// reuse across interval boundaries is still seen — matching
    /// [`MattsonStack::take_histogram`](crate::MattsonStack::take_histogram)).
    pub fn take_histogram(&mut self) -> StackDistanceHistogram {
        let hist = self.snapshot_histogram();
        self.finite.clear();
        self.cold = 0.0;
        self.total_seen = 0;
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MattsonStack;

    fn xorshift_stream(n: usize, lines: u64) -> Vec<u64> {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % lines
            })
            .collect()
    }

    use crate::histogram::max_miss_ratio_error as max_mr_err;

    #[test]
    fn rate_one_matches_exact_mattson_exactly() {
        let trace = xorshift_stream(20_000, 700);
        let mut exact = MattsonStack::new();
        let mut shards = ShardsStack::new(ShardsConfig::fixed(1.0));
        for &l in &trace {
            exact.access(l);
            shards.access(l);
        }
        assert_eq!(exact.take_histogram(), shards.take_histogram());
    }

    #[test]
    fn fixed_rate_curve_is_close_to_exact() {
        let trace = xorshift_stream(200_000, 20_000);
        let mut exact = MattsonStack::new();
        let mut shards = ShardsStack::new(ShardsConfig::fixed(0.1));
        for &l in &trace {
            exact.access(l);
            shards.access(l);
        }
        let he = exact.take_histogram();
        let hs = shards.take_histogram();
        assert_eq!(hs.total(), he.total(), "SHARDS_adj pins the total");
        let err = max_mr_err(&he, &hs, 256);
        assert!(err <= 0.02, "miss-ratio error {err} > 0.02");
    }

    #[test]
    fn adaptive_cap_holds_and_stays_accurate() {
        let trace = xorshift_stream(300_000, 50_000);
        let mut exact = MattsonStack::new();
        let mut shards = ShardsStack::new(ShardsConfig::adaptive(1.0, 2048));
        for &l in &trace {
            exact.access(l);
            shards.access(l);
            assert!(shards.tracked() <= 2048);
        }
        assert!(shards.peak_tracked() <= 2048);
        assert!(shards.rate() < 1.0, "cap must have lowered the threshold");
        let err = max_mr_err(&exact.take_histogram(), &shards.take_histogram(), 512);
        assert!(err <= 0.03, "adaptive miss-ratio error {err} > 0.03");
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = xorshift_stream(100_000, 10_000);
        let run = || {
            let mut s = ShardsStack::new(ShardsConfig::adaptive(0.25, 1024));
            for &l in &trace {
                s.access(l);
            }
            s.take_histogram()
        };
        assert_eq!(run(), run(), "same input, same config => same histogram");
    }

    #[test]
    fn take_histogram_resets_counts_not_stack() {
        let mut s = ShardsStack::new(ShardsConfig::fixed(1.0));
        s.access(1);
        s.access(2);
        let h = s.take_histogram();
        assert_eq!(h.total(), 2);
        assert_eq!(s.total_seen(), 0);
        // The stack survives: re-touching line 1 is a distance-2 hit.
        s.access(1);
        let h2 = s.take_histogram();
        assert_eq!(h2.cold_misses(), 0);
        assert_eq!(h2.hits_at(2), 1);
    }

    #[test]
    fn zero_sampled_references_report_all_cold() {
        // A 3-line footprint at a rate so low nothing is sampled: the
        // histogram must still pin its total and read as all-miss, not
        // come back empty (which downstream would read as all-hit).
        let mut s = ShardsStack::new(ShardsConfig::fixed(1e-7));
        for i in 0..1000u64 {
            s.access(i % 3);
        }
        assert_eq!(s.tracked(), 0, "nothing should be sampled");
        let h = s.take_histogram();
        assert_eq!(h.total(), 1000);
        assert_eq!(h.cold_misses(), 1000);
        assert_eq!(h.misses_at(1 << 30), 1000);
    }

    #[test]
    fn fixed_rate_keeps_no_eviction_heap() {
        let mut s = ShardsStack::new(ShardsConfig::fixed(0.5));
        for i in 0..10_000u64 {
            s.access(i);
        }
        // tracked()/peak_tracked() still report the sampled line set…
        assert!(s.tracked() > 3000);
        assert_eq!(s.peak_tracked(), s.tracked());
        // …while the heap (only needed for s_max eviction) stays empty.
        assert_eq!(s.tracked_heap_len(), 0);
    }

    #[test]
    fn hash_is_uniform_enough() {
        // Low 24 bits of the finalizer over sequential lines: each
        // quartile of the modulus should get ~25% of lines.
        let mut quartiles = [0u32; 4];
        for line in 0..100_000u64 {
            quartiles[(spatial_hash(line) * 4 / SHARDS_MODULUS) as usize] += 1;
        }
        for q in quartiles {
            assert!(
                (20_000..30_000).contains(&q),
                "skewed quartiles {quartiles:?}"
            );
        }
    }
}
