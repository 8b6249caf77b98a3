//! Exact and sampled LRU stack-distance profiling (Mattson's algorithm).

use crate::histogram::StackDistanceHistogram;
use crate::linetable::{rank_stamps, LineTable};

/// The set of live access timestamps (each holds at most one line), with
/// `O(log n)` counts of the live timestamps at or before a given time.
///
/// Timestamps are bits, 64 to a word, and a Fenwick (binary-indexed) tree
/// over the words' popcounts answers prefix counts: one tree walk plus a
/// masked popcount. The tree is 64× smaller than one with a node per
/// timestamp, so walks stay in cache, and it is rebuilt exactly from the
/// bits when the time axis grows (zero-extending a Fenwick array is
/// incorrect once prefix queries cross the old boundary).
#[derive(Debug, Clone, Default)]
struct Fenwick {
    bits: Vec<u64>,
    /// 1-based Fenwick tree over `bits[w].count_ones()`.
    tree: Vec<u32>,
}

impl Fenwick {
    fn with_capacity(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        Self {
            bits: vec![0; words],
            tree: vec![0; words + 1],
        }
    }

    /// Timestamps the set can hold.
    fn capacity(&self) -> usize {
        self.bits.len() * 64
    }

    /// Widens the set to hold `n` timestamps, leaving the tree stale.
    fn widen(&mut self, n: usize) {
        let words = (n + 1).next_power_of_two().div_ceil(64);
        self.bits.resize(words, 0);
        self.tree.resize(words + 1, 0);
    }

    /// Returns `true` when the set had to reallocate (the caller counts
    /// these; a properly pre-sized profiler never grows).
    fn grow_to(&mut self, n: usize) -> bool {
        if n <= self.capacity() {
            return false;
        }
        self.widen(n);
        self.build_tree();
        true
    }

    /// O(words) Fenwick build from `bits`: push each node's partial sum to
    /// its parent.
    fn build_tree(&mut self) {
        self.tree.fill(0);
        let words = self.bits.len();
        for w in 1..=words {
            self.tree[w] += self.bits[w - 1].count_ones();
            let parent = w + (w & w.wrapping_neg());
            if parent <= words {
                let v = self.tree[w];
                self.tree[parent] += v;
            }
        }
    }

    /// Resets the set *in place* to exactly the timestamps `0..n` — the
    /// shape timestamp compaction needs — growing only if `n` exceeds the
    /// current capacity. Returns `true` on a reallocation.
    fn rebuild_ones(&mut self, n: usize) -> bool {
        let grew = n > self.capacity();
        if grew {
            self.widen(n);
        }
        let (full, rest) = (n / 64, n % 64);
        self.bits[..full].fill(u64::MAX);
        self.bits[full..].fill(0);
        if rest > 0 {
            self.bits[full] = (1 << rest) - 1;
        }
        self.build_tree();
        grew
    }

    /// Whether timestamp `i` is live.
    fn is_set(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Marks timestamp `i` live.
    fn set(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
        let mut w = i / 64 + 1;
        while w < self.tree.len() {
            self.tree[w] += 1;
            w += w & w.wrapping_neg();
        }
    }

    /// Marks live timestamp `i` dead.
    fn clear(&mut self, i: usize) {
        self.bits[i / 64] &= !(1 << (i % 64));
        let mut w = i / 64 + 1;
        while w < self.tree.len() {
            self.tree[w] -= 1;
            w += w & w.wrapping_neg();
        }
    }

    /// Live timestamps in `[0, i]`.
    fn prefix(&self, i: usize) -> u64 {
        let mut w = i / 64;
        let mut s = u64::from((self.bits[w] & (u64::MAX >> (63 - i % 64))).count_ones());
        while w > 0 {
            s += u64::from(self.tree[w]);
            w -= w & w.wrapping_neg();
        }
        s
    }
}

/// The timestamp + Fenwick-tree LRU stack shared by every profiler in
/// this module: it maps each live line to the time of its last access and
/// counts the distinct lines touched since then in `O(log n)`. It records
/// nothing, so each profiler keeps exactly the statistics it reads.
///
/// Timestamps are compacted once the time axis exceeds
/// [`SLACK`](Self::SLACK) times the live set, so memory stays
/// proportional to the number of *live* lines rather than total accesses.
/// The same bound keeps every timestamp below `max(2^16, SLACK · live)`,
/// so a `u32` holds it and the line → timestamp index is a [`LineTable`].
#[derive(Debug, Clone)]
pub(crate) struct LruTimeline {
    last_time: LineTable,
    present: Fenwick,
    /// Per-word popcount prefix reused by [`rank_stamps`], so
    /// steady-state compaction allocates nothing.
    scratch: Vec<u32>,
    time: usize,
    live: usize,
    reallocations: u64,
}

impl LruTimeline {
    /// Compaction slack: timestamps are compacted once the time axis
    /// exceeds this multiple of the live set.
    const SLACK: usize = 4;

    /// An empty stack with a small initial time axis.
    pub(crate) fn new() -> Self {
        Self {
            last_time: LineTable::new(),
            present: Fenwick::with_capacity(1 << 12),
            scratch: Vec::new(),
            time: 0,
            live: 0,
            reallocations: 0,
        }
    }

    /// A stack pre-sized for up to `expected_lines` live lines (see
    /// [`MattsonStack::with_line_capacity`]).
    pub(crate) fn with_line_capacity(expected_lines: usize) -> Self {
        let lines = expected_lines.max(1);
        // Timestamps compact once time >= max(2^16, SLACK * live), so the
        // time axis never exceeds that bound while `live <= lines`.
        let time_cap = (Self::SLACK * lines).max(1 << 16);
        Self {
            last_time: LineTable::with_capacity(lines),
            present: Fenwick::with_capacity(time_cap),
            scratch: Vec::with_capacity(time_cap.div_ceil(64)),
            time: 0,
            live: 0,
            reallocations: 0,
        }
    }

    /// Compacts if due, then [`touch`](Self::touch)es `line`.
    pub(crate) fn access(&mut self, line: u64) -> Option<u64> {
        self.maybe_compact(None);
        self.touch(line)
    }

    /// Moves `line` to the top of the stack at the current time and
    /// returns its stack distance (`None` for a line not in the stack).
    /// Distances count distinct lines including the accessed line itself.
    fn touch(&mut self, line: u64) -> Option<u64> {
        let t = self.time;
        debug_assert!(
            t < (1 << 16).max(Self::SLACK * self.live.max(1)),
            "timestamp {t} escaped the compaction bound"
        );
        self.reallocations += u64::from(self.present.grow_to(t + 1));
        let stamp = u32::try_from(t).expect("under 2^30 live lines, timestamps fit a u32");
        let dist = match self.last_time.insert(line, stamp) {
            Some(t0) => {
                let t0 = t0 as usize;
                // Every live line sits at a timestamp below `t`, so the
                // lines touched strictly after `t0` are the live set minus
                // those at or before `t0` (this line included).
                let between = self.live as u64 - self.present.prefix(t0);
                self.present.clear(t0);
                Some(between + 1)
            }
            None => {
                self.live += 1;
                None
            }
        };
        self.present.set(t);
        self.time += 1;
        dist
    }

    /// Forgets `line`: its next access is a cold miss and it no longer
    /// counts towards other lines' stack distances.
    pub(crate) fn remove(&mut self, line: u64) {
        if let Some(t0) = self.last_time.remove(line) {
            self.present.clear(t0 as usize);
            self.live -= 1;
        }
    }

    /// Number of live lines.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Fenwick reallocations so far.
    pub(crate) fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// Compacts timestamps to ranks `0..live` (LRU first) when the time
    /// axis is much larger than the live set, keeping the Fenwick tree
    /// small on long runs. `order`, if given, is the caller's line-at-
    /// timestamp list, compacted alongside (see [`rank_stamps`]).
    /// Compaction reuses the existing buffers (the Fenwick capacity is the
    /// high-water mark), so a pre-sized stack compacts without allocating.
    /// Returns whether it compacted.
    fn maybe_compact(&mut self, order: Option<&mut Vec<u64>>) -> bool {
        if self.time < (1 << 16) || self.time < Self::SLACK * self.live.max(1) {
            return false;
        }
        let n = rank_stamps(
            &mut self.last_time,
            &self.present.bits,
            order,
            &mut self.scratch,
        );
        self.reallocations += u64::from(self.present.rebuild_ones(n));
        self.time = n;
        true
    }
}

/// Exact LRU stack-distance profiler.
///
/// Feed it line addresses with [`access`](MattsonStack::access); it returns
/// the stack distance of each access (or `None` for a cold first touch) and
/// accumulates a [`StackDistanceHistogram`]. The implementation is the
/// classic timestamp + Fenwick-tree formulation: `O(log n)` per access,
/// with periodic timestamp compaction so memory stays proportional to the
/// number of *distinct* lines rather than total accesses.
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
    stack: LruTimeline,
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
        Self {
            stack: LruTimeline::new(),
            hist: StackDistanceHistogram::new(),
        }
    }

    /// Creates a profiler pre-sized for a stream expected to touch up to
    /// `expected_lines` distinct lines — e.g. a recorded trace's
    /// [`line_span`](wp_trace::StreamInfo::line_span). The Fenwick tree
    /// is sized for the worst pre-compaction time axis and the reuse map
    /// for the full line set, so steady-state profiling performs zero
    /// reallocations ([`reallocations`](Self::reallocations) stays 0) as
    /// long as the estimate holds.
    pub fn with_line_capacity(expected_lines: usize) -> Self {
        Self {
            stack: LruTimeline::with_line_capacity(expected_lines),
            hist: StackDistanceHistogram::new(),
        }
    }

    /// Processes one access to `line` and returns its stack distance
    /// (`None` for a cold miss). Distances count distinct lines including
    /// the accessed line itself, so a hit immediately after the previous
    /// access to the same line has distance 1.
    pub fn access(&mut self, line: u64) -> Option<u64> {
        let dist = self.stack.access(line);
        match dist {
            Some(d) => self.hist.record(d),
            None => self.hist.record_cold(),
        }
        dist
    }

    /// Number of distinct lines seen so far.
    pub fn distinct_lines(&self) -> usize {
        self.stack.live()
    }

    /// Buffer reallocations performed so far (Fenwick growths). A stack
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
/// stream; time per sampled access is `O(log D)`.
#[derive(Debug, Clone)]
pub struct SampledStack {
    stack: LruTimeline,
    /// Line last touched at each timestamp (slots of lines touched again
    /// later are stale), so the LRU line can be found and forgotten.
    line_at: Vec<u64>,
    /// No live line has a timestamp below this cursor.
    oldest: usize,
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
            stack: LruTimeline::new(),
            line_at: Vec::new(),
            oldest: 0,
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
        if self.stack.maybe_compact(Some(&mut self.line_at)) {
            // Compaction renumbered the live lines 0..live, LRU first.
            self.oldest = 0;
        }
        let scale = 1u64 << self.rate_log2;
        let dist = self.stack.touch(line);
        self.line_at.push(line);
        self.weight += scale;
        match dist {
            Some(d) => {
                self.buckets[(d << self.rate_log2).div_ceil(self.granule_lines) as usize] += scale
            }
            None if self.stack.live() > self.max_depth => self.forget_lru(),
            None => {}
        }
    }

    /// The table slot an access to `line` probes first, for a prefetch
    /// hint (`wp_cache::prefetch_read`); `None` for a line this stack does
    /// not sample, whose access reads no table at all.
    #[inline]
    pub fn first_slot(&self, line: u64) -> Option<&impl Sized> {
        self.sampled(line)
            .then(|| self.stack.last_time.first_slot(line))
    }

    /// Forgets the least recently used line. The cursor only moves
    /// forward between compactions, so the scan is amortized `O(1)`.
    fn forget_lru(&mut self) {
        while !self.stack.present.is_set(self.oldest) {
            self.oldest += 1;
        }
        self.stack.remove(self.line_at[self.oldest]);
        self.oldest += 1;
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
        self.stack.live()
    }

    /// The depth bound `D`: the most sampled lines the stack holds.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// One in `2^rate_log2` lines are tracked.
    pub fn rate_log2(&self) -> u32 {
        self.rate_log2
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
