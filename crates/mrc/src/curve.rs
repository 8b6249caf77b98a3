//! The [`MissCurve`] type and its algebra.

use crate::histogram::StackDistanceHistogram;

/// A miss-rate curve: expected misses per kilo-instruction (MPKI) as a
/// function of allocated cache capacity.
///
/// Point `i` of the curve is the MPKI the owning access stream would incur
/// when given exactly `i` *granules* of capacity, where one granule is
/// [`granule_lines`](MissCurve::granule_lines) cache lines. Point `0` is the
/// miss rate with no cache at all (every access misses, i.e. the access
/// rate), and the last point is the miss rate with the full modelled
/// capacity.
///
/// Miss curves produced from LRU stack-distance histograms are monotonically
/// non-increasing; curve algebra preserves this invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct MissCurve {
    /// MPKI at capacity `i` granules; `points.len() >= 1`.
    points: Vec<f64>,
    /// Lines per granule.
    granule_lines: u64,
}

impl MissCurve {
    /// Creates a curve from raw MPKI points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, contains a negative or non-finite value,
    /// or if `granule_lines` is zero.
    pub fn new(points: Vec<f64>, granule_lines: u64) -> Self {
        assert!(!points.is_empty(), "miss curve needs at least one point");
        assert!(granule_lines > 0, "granule must hold at least one line");
        for (i, &p) in points.iter().enumerate() {
            assert!(
                p.is_finite() && p >= 0.0,
                "miss curve point {i} is invalid: {p}"
            );
        }
        Self {
            points,
            granule_lines,
        }
    }

    /// A flat curve: the same `mpki` at every capacity (streaming data that
    /// never hits, for example).
    pub fn flat(mpki: f64, num_points: usize, granule_lines: u64) -> Self {
        Self::new(vec![mpki; num_points.max(1)], granule_lines)
    }

    /// Builds the curve implied by an LRU stack-distance histogram.
    ///
    /// `instructions` is the number of instructions over which the histogram
    /// was collected (used to convert miss counts to MPKI); `granule_lines`
    /// sets the capacity quantum. The curve extends to the histogram's
    /// maximum observed distance, rounded up to a whole granule.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    pub fn from_histogram(
        hist: &StackDistanceHistogram,
        instructions: u64,
        granule_lines: u64,
    ) -> Self {
        assert!(instructions > 0, "cannot normalize by zero instructions");
        let granule_lines = granule_lines.max(1);
        let max_dist = hist.max_distance();
        let num_granules = max_dist.div_ceil(granule_lines);
        let per_ki = 1000.0 / instructions as f64;
        // Misses at capacity c = accesses with stack distance > c lines,
        // plus all cold (infinite-distance) accesses.
        let total_finite: u64 = hist.finite_total();
        let cold = hist.cold_misses();
        let mut points = Vec::with_capacity(num_granules as usize + 1);
        let mut seen_below = 0u64; // accesses with distance <= capacity
        points.push((total_finite + cold) as f64 * per_ki);
        let mut dist_iter = hist.iter_finite().peekable();
        for g in 1..=num_granules {
            let cap_lines = g * granule_lines;
            while let Some(&(d, count)) = dist_iter.peek() {
                if d <= cap_lines {
                    seen_below += count;
                    dist_iter.next();
                } else {
                    break;
                }
            }
            let misses = (total_finite - seen_below) + cold;
            points.push(misses as f64 * per_ki);
        }
        Self::new(points, granule_lines)
    }

    /// MPKI at a capacity of `granules` granules. Capacities beyond the last
    /// point saturate at the final value.
    pub fn mpki_at(&self, granules: usize) -> f64 {
        let idx = granules.min(self.points.len() - 1);
        self.points[idx]
    }

    /// The raw points slice.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Number of points (max capacity in granules is `len() - 1`).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the curve has a single point only.
    pub fn is_empty(&self) -> bool {
        false // invariant: never empty; kept for clippy-compatible API shape
    }

    /// Lines per capacity granule.
    pub fn granule_lines(&self) -> u64 {
        self.granule_lines
    }

    /// MPKI with no cache (the LLC access rate of this stream, APKI).
    pub fn at_zero(&self) -> f64 {
        self.points[0]
    }

    /// MPKI with the maximum modelled capacity.
    pub fn floor(&self) -> f64 {
        *self.points.last().expect("non-empty")
    }

    /// Extends (or truncates) the curve to exactly `num_points` points,
    /// repeating the final value when extending.
    pub fn resized(&self, num_points: usize) -> Self {
        let num_points = num_points.max(1);
        let mut points = self.points.clone();
        points.resize(num_points, self.floor());
        Self::new(points, self.granule_lines)
    }

    /// Linearly interpolated MPKI at an arbitrary line capacity.
    pub fn interp_at_lines(&self, lines: u64) -> f64 {
        let pos = lines as f64 / self.granule_lines as f64;
        let lo = pos.floor() as usize;
        if lo + 1 >= self.points.len() {
            return self.floor();
        }
        let frac = pos - lo as f64;
        self.points[lo] * (1.0 - frac) + self.points[lo + 1] * frac
    }

    /// Scales all points by a non-negative factor (e.g. EWMA blending or
    /// normalizing a sampled monitor).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "bad scale {factor}");
        Self::new(
            self.points.iter().map(|p| p * factor).collect(),
            self.granule_lines,
        )
    }

    /// Exponentially-weighted blend: `alpha * self + (1 - alpha) * older`.
    /// Used by monitors to age curves across reconfiguration intervals.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]` or granules differ.
    pub fn ewma(&self, older: &Self, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        assert_eq!(self.granule_lines, older.granule_lines);
        let n = self.points.len().max(older.points.len());
        let points = (0..n)
            .map(|i| alpha * self.mpki_at(i) + (1.0 - alpha) * older.mpki_at(i))
            .collect();
        Self::new(points, self.granule_lines)
    }

    /// Enforces monotone non-increase by taking a running minimum. Sampled
    /// monitors can produce small non-monotonicities; Jigsaw's runtime cleans
    /// them before partitioning.
    pub fn monotonized(&self) -> Self {
        let mut points = self.points.clone();
        for i in 1..points.len() {
            if points[i] > points[i - 1] {
                points[i] = points[i - 1];
            }
        }
        Self::new(points, self.granule_lines)
    }

    /// True if the curve never increases with capacity.
    pub fn is_monotone(&self) -> bool {
        self.points.windows(2).all(|w| w[1] <= w[0] + 1e-9)
    }

    /// Area under the curve between capacities `[0, upto]` granules
    /// (trapezoidal). This is the building block of WhirlTool's distance
    /// metric (area between combined and partitioned curves).
    pub fn area(&self, upto: usize) -> f64 {
        let upto = upto.min(self.points.len() - 1);
        let mut area = 0.0;
        for i in 0..upto {
            area += 0.5 * (self.points[i] + self.points[i + 1]);
        }
        area
    }

    /// The smallest capacity (granules) at which the curve comes within
    /// `epsilon` MPKI of its floor — a working-set-size estimate.
    pub fn knee(&self, epsilon: f64) -> usize {
        let target = self.floor() + epsilon;
        self.points
            .iter()
            .position(|&p| p <= target)
            .unwrap_or(self.points.len() - 1)
    }
}

impl Default for MissCurve {
    fn default() -> Self {
        Self::new(vec![0.0], crate::DEFAULT_GRANULE_LINES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StackDistanceHistogram;

    fn curve(points: &[f64]) -> MissCurve {
        MissCurve::new(points.to_vec(), 4)
    }

    #[test]
    fn mpki_lookup_saturates() {
        let c = curve(&[10.0, 5.0, 1.0]);
        assert_eq!(c.mpki_at(0), 10.0);
        assert_eq!(c.mpki_at(2), 1.0);
        assert_eq!(c.mpki_at(99), 1.0);
    }

    #[test]
    fn from_histogram_basic() {
        let mut h = StackDistanceHistogram::new();
        // 6 accesses: 2 cold, 2 at distance 2, 2 at distance 6.
        h.record_cold();
        h.record_cold();
        h.record(2);
        h.record(2);
        h.record(6);
        h.record(6);
        let c = MissCurve::from_histogram(&h, 1000, 4);
        // At zero capacity everything misses: 6 misses / 1 KI.
        assert!((c.at_zero() - 6.0).abs() < 1e-9);
        // One granule (4 lines) captures the distance-2 reuses: 4 misses.
        assert!((c.mpki_at(1) - 4.0).abs() < 1e-9);
        // Two granules (8 lines) capture everything but cold misses.
        assert!((c.mpki_at(2) - 2.0).abs() < 1e-9);
        assert!(c.is_monotone());
    }

    #[test]
    fn histogram_curve_is_monotone() {
        let mut h = StackDistanceHistogram::new();
        for d in [1u64, 3, 3, 9, 120, 7, 1, 44] {
            h.record(d);
        }
        h.record_cold();
        let c = MissCurve::from_histogram(&h, 10_000, 8);
        assert!(c.is_monotone());
        assert!((c.floor() - 0.1).abs() < 1e-9); // only the cold miss left
    }

    #[test]
    fn ewma_blends() {
        let new = curve(&[10.0, 0.0]);
        let old = curve(&[0.0, 10.0]);
        let b = new.ewma(&old, 0.25);
        assert!((b.mpki_at(0) - 2.5).abs() < 1e-9);
        assert!((b.mpki_at(1) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn monotonize_fixes_bumps() {
        let c = curve(&[5.0, 6.0, 3.0, 4.0]);
        let m = c.monotonized();
        assert!(m.is_monotone());
        assert_eq!(m.points(), &[5.0, 5.0, 3.0, 3.0]);
    }

    #[test]
    fn area_trapezoidal() {
        let c = curve(&[4.0, 2.0, 0.0]);
        assert!((c.area(2) - (3.0 + 1.0)).abs() < 1e-9);
        assert!((c.area(100) - 4.0).abs() < 1e-9); // clamps
    }

    #[test]
    fn knee_finds_working_set() {
        let c = curve(&[10.0, 10.0, 2.0, 2.0, 2.0]);
        assert_eq!(c.knee(0.1), 2);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_curve_panics() {
        MissCurve::new(vec![], 4);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn negative_point_panics() {
        MissCurve::new(vec![1.0, -0.5], 4);
    }
}
