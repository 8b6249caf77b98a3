//! Exact and sampled LRU stack-distance profiling (Mattson's algorithm).
//!
//! Both profilers are policies over a [`StampLru`] with a rank tree: it
//! keeps the LRU stack and answers each access's stack distance, and each
//! profiler keeps only the statistics it reads. [`MattsonStack`] keeps no
//! order log (it never evicts); [`SampledStack`] keeps one, to forget the
//! LRU line past its depth bound.

use crate::histogram::StackDistanceHistogram;
use crate::stamp::StampLru;

/// Exact LRU stack-distance profiler.
///
/// Feed it line addresses with [`access`](MattsonStack::access); it returns
/// the stack distance of each access (or `None` for a cold first touch) and
/// accumulates a [`StackDistanceHistogram`]. The stack is a [`StampLru`]
/// with a rank tree and no order log: `O(log n)` per access, with
/// periodic stamp compaction so memory stays proportional to the number of
/// *distinct* lines rather than total accesses.
///
/// # Example
///
/// ```
/// use wp_mrc::MattsonStack;
/// let mut s = MattsonStack::new();
/// assert_eq!(s.access(0xA), None);    // cold
/// assert_eq!(s.access(0xB), None);    // cold
/// assert_eq!(s.access(0xA), Some(2)); // B then A touched since last A
/// ```
#[derive(Debug, Clone)]
pub struct MattsonStack {
    stack: StampLru<false, true>,
    hist: StackDistanceHistogram,
}

impl Default for MattsonStack {
    fn default() -> Self {
        Self::new()
    }
}

impl MattsonStack {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::with_line_capacity(0)
    }

    /// Creates a profiler pre-sized for a stream expected to touch up to
    /// `expected_lines` distinct lines — e.g. a recorded trace's
    /// [`line_span`](wp_trace::StreamInfo::line_span). The stamp bitset
    /// and rank tree are sized for the most stamps the stack holds between
    /// compactions and the line table for the full line set, so
    /// steady-state profiling performs zero reallocations
    /// ([`reallocations`](Self::reallocations) stays 0) as long as the
    /// estimate holds.
    pub fn with_line_capacity(expected_lines: usize) -> Self {
        Self {
            stack: StampLru::with_capacity(expected_lines),
            hist: StackDistanceHistogram::new(),
        }
    }

    /// Processes one access to `line` and returns its stack distance
    /// (`None` for a cold miss). Distances count distinct lines including
    /// the accessed line itself, so a hit immediately after the previous
    /// access to the same line has distance 1.
    pub fn access(&mut self, line: u64) -> Option<u64> {
        let dist = self.stack.touch(line);
        match dist {
            Some(d) => self.hist.record(d),
            None => self.hist.record_cold(),
        }
        dist
    }

    /// Number of distinct lines seen so far.
    pub fn distinct_lines(&self) -> usize {
        self.stack.len()
    }

    /// Buffer reallocations performed so far (stamp bitset growths). A stack
    /// built with [`with_line_capacity`](Self::with_line_capacity) whose
    /// estimate holds reports 0 after any number of accesses.
    pub fn reallocations(&self) -> u64 {
        self.stack.reallocations()
    }

    /// The accumulated histogram.
    pub fn histogram(&self) -> &StackDistanceHistogram {
        &self.hist
    }

    /// Takes the histogram, leaving an empty one (the LRU stack itself is
    /// preserved, so reuse across interval boundaries is still seen).
    pub fn take_histogram(&mut self) -> StackDistanceHistogram {
        std::mem::take(&mut self.hist)
    }
}

/// A spatially-sampled, depth-bounded stack-distance profiler: the model
/// of Jigsaw/Whirlpool's GMON hardware monitors (Sec. 2.4/3.2).
///
/// Only lines whose hash falls under a threshold are tracked (one in
/// `2^rate_log2`); observed distances and counts are scaled by the
/// inverse sampling rate. A GMON only resolves its curve up to the
/// capacity it reports, `(curve_points - 1)` granules, and so does this
/// model:
///
/// - **Granule buckets.** A curve point at `g` granules only asks how
///   many accesses have a scaled distance `<= g * granule_lines`, so each
///   distance is counted in the bucket of its granule, rounded up: at
///   most `curve_points` counters instead of one per distinct distance.
/// - **Bounded depth.** A reuse deeper than the largest reported capacity
///   misses at every point, exactly like a cold access. So the stack holds
///   only the top [`max_depth`](Self::max_depth)
///   `D = floor((curve_points - 1) * granule_lines / 2^rate_log2)` sampled
///   lines: a cold insert that pushes the live count past `D` forgets the
///   least recently used line. Only lines deeper than `D` are ever
///   forgotten, and every line above them keeps its exact distance (the
///   LRU inclusion property), so the curves are bit-identical to those of
///   an unbounded stack truncated to `curve_points` points.
///
/// Memory per monitor is `O(D)` whatever the footprint of the observed
/// stream; time per sampled access is `O(log D)`. The stack is a
/// [`StampLru`] with a rank tree and an order log, whose
/// [`evict_oldest`](StampLru::evict_oldest) forgets the LRU line.
#[derive(Debug, Clone)]
pub struct SampledStack {
    stack: StampLru<true, true>,
    max_depth: usize,
    rate_log2: u32,
    granule_lines: u64,
    /// `buckets[g]`: sampled weight whose scaled distance rounds up to
    /// `g` granules (`buckets[0]` stays 0: distances are at least 1).
    buckets: Vec<u64>,
    /// All sampled weight this interval, cold accesses included.
    weight: u64,
}

impl SampledStack {
    /// Creates a profiler that samples one in `2^rate_log2` lines and
    /// reports curves of `curve_points` points (capacities `0..=points-1`
    /// granules of `granule_lines` lines). `rate_log2 == 0` is exact
    /// profiling up to that capacity.
    pub fn new(rate_log2: u32, granule_lines: u64, curve_points: usize) -> Self {
        let granule_lines = granule_lines.max(1);
        let curve_points = curve_points.max(1);
        let reach = (curve_points as u64 - 1) * granule_lines;
        Self {
            stack: StampLru::with_capacity(0),
            max_depth: (reach >> rate_log2) as usize,
            rate_log2,
            granule_lines,
            buckets: vec![0; curve_points],
            weight: 0,
        }
    }

    pub(crate) fn sampled(&self, line: u64) -> bool {
        if self.rate_log2 == 0 {
            return true;
        }
        // Fibonacci hashing: cheap, well-mixed low bits.
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.rate_log2)) == 0
    }

    /// Processes one access; untracked lines are ignored.
    pub fn access(&mut self, line: u64) {
        if !self.sampled(line) {
            return;
        }
        let scale = 1u64 << self.rate_log2;
        let dist = self.stack.touch(line);
        self.weight += scale;
        match dist {
            Some(d) => {
                self.buckets[(d << self.rate_log2).div_ceil(self.granule_lines) as usize] += scale
            }
            None if self.stack.len() > self.max_depth => {
                self.stack.evict_oldest();
            }
            None => {}
        }
    }

    /// The table slot an access to `line` probes first, for a prefetch
    /// hint (`wp_cache::prefetch_read`); `None` for a line this stack does
    /// not sample, whose access reads no table at all.
    #[inline]
    pub fn first_slot(&self, line: u64) -> Option<&impl Sized> {
        self.sampled(line).then(|| self.stack.first_slot(line))
    }

    /// Ends an interval: the miss curve (MPKI over `instructions`, at
    /// `0..curve_points` granules) of the accesses sampled since the last
    /// call, or `None` if there were none. The stack itself persists, so
    /// reuse across interval boundaries is still seen.
    pub fn take_curve(&mut self, instructions: u64) -> Option<crate::MissCurve> {
        if self.weight == 0 {
            return None;
        }
        let per_ki = 1000.0 / instructions.max(1) as f64;
        let mut misses = std::mem::take(&mut self.weight);
        let points = self
            .buckets
            .iter_mut()
            .map(|hits| {
                misses -= std::mem::take(hits);
                misses as f64 * per_ki
            })
            .collect();
        Some(crate::MissCurve::new(points, self.granule_lines))
    }

    /// Sampled lines currently in the stack (never above
    /// [`max_depth`](Self::max_depth)).
    pub fn tracked_lines(&self) -> usize {
        self.stack.len()
    }

    /// The depth bound `D`: the most sampled lines the stack holds.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MissCurve;

    /// Brute-force stack distance for cross-checking.
    fn brute_distances(trace: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        for (i, &a) in trace.iter().enumerate() {
            let mut prev = None;
            for j in (0..i).rev() {
                if trace[j] == a {
                    prev = Some(j);
                    break;
                }
            }
            match prev {
                None => out.push(None),
                Some(j) => {
                    let mut distinct = std::collections::HashSet::new();
                    for &b in &trace[j + 1..=i] {
                        distinct.insert(b);
                    }
                    out.push(Some(distinct.len() as u64));
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_small() {
        let trace = [1u64, 2, 3, 1, 2, 2, 4, 3, 1];
        let mut s = MattsonStack::new();
        let got: Vec<_> = trace.iter().map(|&a| s.access(a)).collect();
        assert_eq!(got, brute_distances(&trace));
    }

    #[test]
    fn matches_brute_force_random() {
        // Deterministic xorshift trace over a small address set.
        let mut x = 0x1234_5678u64;
        let mut trace = Vec::new();
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            trace.push(x % 23);
        }
        let mut s = MattsonStack::new();
        let got: Vec<_> = trace.iter().map(|&a| s.access(a)).collect();
        assert_eq!(got, brute_distances(&trace));
    }

    #[test]
    fn compaction_preserves_distances() {
        // Long trace over few lines forces compaction; distances must stay
        // correct afterwards.
        let mut s = MattsonStack::new();
        for i in 0..200_000u64 {
            s.access(i % 8);
        }
        // Steady state: every access is distance 8.
        assert_eq!(s.access(0), Some(8));
        assert_eq!(s.distinct_lines(), 8);
    }

    #[test]
    fn sequential_scan_is_all_cold_then_cyclic() {
        let mut s = MattsonStack::new();
        for i in 0..64u64 {
            assert_eq!(s.access(i), None);
        }
        for i in 0..64u64 {
            assert_eq!(s.access(i), Some(64));
        }
    }

    /// The unbounded reference: an exact stack over the sampled lines,
    /// every distance scaled into a histogram (turned into a curve by
    /// `from_histogram` and cut to the bounded stack's points).
    fn record_reference(
        exact: &mut MattsonStack,
        hist: &mut StackDistanceHistogram,
        rate_log2: u32,
        line: u64,
    ) {
        let scale = 1u64 << rate_log2;
        match exact.access(line) {
            Some(d) => hist.record_weighted(d * scale, scale),
            None => hist.record_cold_weighted(scale),
        }
    }

    #[test]
    fn bounded_curves_equal_truncated_exact_curves() {
        // Footprints far beyond the depth bound, long enough to compact
        // the time axis (at rates 0 and 2); curves must match bit for bit.
        let (granule, points) = (4u64, 9usize);
        for rate in [0u32, 2, 3] {
            let mut bounded = SampledStack::new(rate, granule, points);
            let mut exact = MattsonStack::new();
            let mut hist = StackDistanceHistogram::new();
            let mut x = 0x9E37_79B9u64 + rate as u64;
            for interval in 0..5 {
                for _ in 0..60_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // A hot set that fits plus a wide tail that does not.
                    let line = if x % 4 == 0 { x % 5_000 } else { x % 24 };
                    if bounded.sampled(line) {
                        record_reference(&mut exact, &mut hist, rate, line);
                    }
                    bounded.access(line);
                    assert!(bounded.tracked_lines() <= bounded.max_depth());
                }
                let want = MissCurve::from_histogram(&std::mem::take(&mut hist), 7_000, granule)
                    .resized(points);
                let got = bounded.take_curve(7_000).expect("sampled accesses");
                let bits =
                    |c: &MissCurve| c.points().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "rate {rate} interval {interval}");
            }
            assert_eq!(bounded.max_depth(), (32 >> rate) as usize);
            assert!(
                exact.distinct_lines() > 4 * bounded.max_depth(),
                "tail exceeds the bound"
            );
        }
    }

    #[test]
    fn bounded_stack_keeps_exact_distances_above_the_bound() {
        // Depth 8 (exact, 8 points of 1 line): a cycle over 8 lines hits
        // at distance 8 forever, a cycle over 9 never hits.
        let mut s = SampledStack::new(0, 1, 9);
        for i in 0..80u64 {
            s.access(i % 8);
        }
        let fits = s.take_curve(1_000).unwrap();
        assert_eq!(fits.mpki_at(8), 8.0, "only the 8 cold misses remain");
        for i in 0..90u64 {
            s.access(100 + i % 9);
        }
        let spills = s.take_curve(1_000).unwrap();
        assert_eq!(spills.mpki_at(8), 90.0, "every access is deeper than 8");
        assert_eq!(s.tracked_lines(), 8);
    }

    #[test]
    fn take_histogram_resets_counts_not_stack() {
        let mut s = MattsonStack::new();
        s.access(1);
        s.access(2);
        let h = s.take_histogram();
        assert_eq!(h.total(), 2);
        assert_eq!(s.histogram().total(), 0);
        // Stack survives: this is a hit at distance 2, not a cold miss.
        assert_eq!(s.access(1), Some(2));
    }
}
