//! Utility monitors (the GMON model).
//!
//! Jigsaw attaches a geometric utility monitor to every VC; Whirlpool adds
//! one per pool VC (24 KB of monitors in the 4-core system, Sec. 3.2). A
//! monitor observes the VC's LLC-bound access stream by sampling lines and
//! maintaining stack distances, and at each reconfiguration produces a
//! miss-rate curve, blended with history via EWMA so that transient phases
//! do not whipsaw the allocator.

use wp_mrc::{MissCurve, SampledStack};

/// Configuration for a [`UtilityMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Sample one in `2^sample_rate_log2` lines (GMONs sample to keep
    /// hardware small; 0 = exact).
    pub sample_rate_log2: u32,
    /// Lines per curve granule.
    pub granule_lines: u64,
    /// Number of curve points to emit (capacities `0..=points-1` granules).
    pub curve_points: usize,
    /// EWMA weight of the newest interval (1.0 = no history).
    pub ewma_alpha: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            sample_rate_log2: 3,
            granule_lines: wp_mrc::DEFAULT_GRANULE_LINES,
            curve_points: 201,
            ewma_alpha: 0.6,
        }
    }
}

/// A per-VC utility monitor producing interval miss-rate curves.
///
/// Like the hardware it models, a monitor resolves its curve only up to
/// the largest capacity it reports, `curve_points - 1` granules. Its
/// [`SampledStack`] therefore keeps just the top
/// `D = (curve_points - 1) * granule_lines / 2^sample_rate_log2` sampled
/// lines and counts deeper reuses as cold misses: every such reuse misses
/// at every reported capacity anyway, and the lines above depth `D` keep
/// their exact distances, so the curves are bit-identical to those of an
/// unbounded stack. Memory is `O(D)` per VC however large the VC's
/// footprint. The stack is a [`wp_mrc::StampLru`] with both an order log
/// (to forget the LRU line) and a rank tree (for distances). On the 4-core
/// chip (`D` = 51,200 sampled lines at the NUCA runtime's 1-in-4 sampling)
/// that is at most a 2 MB line index, the line of each sampled access
/// since the last stamp compaction (at most `4·D` of them, 1.6 MB), a
/// 25 KB live-stamp bitset and a 13 KB rank tree.
///
/// The stack's line index is a [`wp_mrc::LineTable`];
/// [`prefetch`](Self::prefetch) hints the slot an upcoming access will
/// probe, as the NUCA runtime's batched access path does `16` events
/// ahead.
#[derive(Debug)]
pub struct UtilityMonitor {
    config: MonitorConfig,
    stack: SampledStack,
    accesses: u64,
    last_curve: Option<MissCurve>,
}

impl UtilityMonitor {
    /// Creates a monitor with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `curve_points` is zero or `ewma_alpha` is outside `(0, 1]`.
    pub fn new(config: MonitorConfig) -> Self {
        assert!(config.curve_points > 0, "need at least one curve point");
        assert!(
            config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0,
            "ewma_alpha must be in (0, 1]"
        );
        Self {
            config,
            stack: SampledStack::new(
                config.sample_rate_log2,
                config.granule_lines,
                config.curve_points,
            ),
            accesses: 0,
            last_curve: None,
        }
    }

    /// Observes one LLC-bound access to `line`.
    pub fn record(&mut self, line: u64) {
        self.accesses += 1;
        self.stack.access(line);
    }

    /// Hints the host CPU to fetch the stack-index slot that recording
    /// `line` will probe first. Only sampled lines touch the stack, so an
    /// unsampled line hints nothing. Purely a performance hint.
    #[inline]
    pub fn prefetch(&self, line: u64) {
        if let Some(slot) = self.stack.first_slot(line) {
            crate::prefetch_read(slot);
        }
    }

    /// Accesses observed since the last [`rollover`](Self::rollover).
    pub fn interval_accesses(&self) -> u64 {
        self.accesses
    }

    /// Ends the interval: converts the sampled stack distances into a miss
    /// curve normalized by `interval_instructions`, EWMA-blends it with
    /// history, resets interval state, and returns the blended curve.
    ///
    /// Returns the previous curve (or a flat zero curve) when the interval
    /// saw no accesses — an idle VC keeps its last-known behaviour, like
    /// real GMONs between reconfigurations.
    pub fn rollover(&mut self, interval_instructions: u64) -> MissCurve {
        wp_obs::add(wp_obs::Counter::MonitorRollovers, 1);
        self.accesses = 0;
        // Exact LRU counts give a non-increasing curve: no monotonizing
        // pass is needed.
        let Some(fresh) = self.stack.take_curve(interval_instructions) else {
            let curve = self.last_curve.clone().unwrap_or_else(|| {
                MissCurve::flat(0.0, self.config.curve_points, self.config.granule_lines)
            });
            // Idle intervals decay history toward zero so dead pools
            // eventually release capacity.
            let decayed = curve.scaled(1.0 - self.config.ewma_alpha);
            self.last_curve = Some(decayed.clone());
            return decayed;
        };
        let blended = match &self.last_curve {
            Some(prev) => fresh.ewma(prev, self.config.ewma_alpha),
            None => fresh,
        };
        self.last_curve = Some(blended.clone());
        blended
    }

    /// The most recent blended curve, if any interval has completed.
    pub fn last_curve(&self) -> Option<&MissCurve> {
        self.last_curve.as_ref()
    }

    /// The monitor's configuration.
    pub fn config(&self) -> MonitorConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_config() -> MonitorConfig {
        MonitorConfig {
            sample_rate_log2: 0,
            granule_lines: 4,
            curve_points: 32,
            ewma_alpha: 1.0,
        }
    }

    #[test]
    fn cyclic_stream_yields_cliff_curve() {
        let mut m = UtilityMonitor::new(exact_config());
        // Cycle over 16 lines: all reuses at distance 16 (4 granules).
        for i in 0..1600u64 {
            m.record(i % 16);
        }
        let c = m.rollover(16_000);
        // Below 4 granules: ~100 MPKI (all miss); at >= 4 granules only the
        // 16 cold misses remain (~1 MPKI).
        assert!(
            c.mpki_at(3) > 50.0,
            "below WS should miss: {}",
            c.mpki_at(3)
        );
        assert!(c.mpki_at(4) < 2.0, "at WS should hit: {}", c.mpki_at(4));
    }

    #[test]
    fn idle_interval_decays_history() {
        let mut m = UtilityMonitor::new(MonitorConfig {
            ewma_alpha: 0.5,
            ..exact_config()
        });
        for i in 0..800u64 {
            m.record(i % 8);
        }
        let c1 = m.rollover(8_000);
        assert!(c1.at_zero() > 0.0);
        let c2 = m.rollover(8_000); // no accesses
        assert!(c2.at_zero() < c1.at_zero());
        assert!(c2.at_zero() > 0.0);
    }

    #[test]
    fn ewma_smooths_phase_change() {
        let mut m = UtilityMonitor::new(MonitorConfig {
            ewma_alpha: 0.5,
            ..exact_config()
        });
        for i in 0..1000u64 {
            m.record(i % 8);
        }
        let heavy = m.rollover(10_000);
        // Next interval: almost no traffic.
        m.record(1);
        let light = m.rollover(10_000);
        assert!(light.at_zero() < heavy.at_zero());
        assert!(light.at_zero() > 0.25 * heavy.at_zero() * 0.5 - 1e-9);
    }

    #[test]
    fn sampled_monitor_approximates_exact() {
        let mut exact = UtilityMonitor::new(exact_config());
        let mut sampled = UtilityMonitor::new(MonitorConfig {
            sample_rate_log2: 2,
            ..exact_config()
        });
        // Uniform random over 64 lines — enough mass for sampling.
        let mut x = 12345u64;
        for _ in 0..60_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 64;
            exact.record(line);
            sampled.record(line);
        }
        let ce = exact.rollover(60_000);
        let cs = sampled.rollover(60_000);
        // APKI should agree within 2x (sampling noise bound, coarse check).
        assert!(cs.at_zero() > ce.at_zero() * 0.5 && cs.at_zero() < ce.at_zero() * 2.0);
    }

    /// The monitor as it was before the depth bound: every sampled line
    /// kept forever in an exact Mattson stack, the scaled histogram turned
    /// into a curve by `from_histogram`, resized and monotonized.
    struct UnboundedMonitor {
        config: MonitorConfig,
        stack: wp_mrc::MattsonStack,
        hist: wp_mrc::StackDistanceHistogram,
        last_curve: Option<MissCurve>,
    }

    impl UnboundedMonitor {
        fn record(&mut self, line: u64) {
            let rate = self.config.sample_rate_log2;
            let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if rate > 0 && (h >> (64 - rate)) != 0 {
                return;
            }
            let scale = 1u64 << rate;
            match self.stack.access(line) {
                Some(d) => self.hist.record_weighted(d * scale, scale),
                None => self.hist.record_cold_weighted(scale),
            }
        }

        fn rollover(&mut self, instructions: u64) -> MissCurve {
            let hist = std::mem::take(&mut self.hist);
            let c = self.config;
            if hist.total() == 0 {
                let curve = self
                    .last_curve
                    .clone()
                    .unwrap_or_else(|| MissCurve::flat(0.0, c.curve_points, c.granule_lines));
                let decayed = curve.scaled(1.0 - c.ewma_alpha);
                self.last_curve = Some(decayed.clone());
                return decayed;
            }
            let fresh = MissCurve::from_histogram(&hist, instructions.max(1), c.granule_lines)
                .resized(c.curve_points)
                .monotonized();
            let blended = match &self.last_curve {
                Some(prev) => fresh.ewma(prev, c.ewma_alpha),
                None => fresh,
            };
            self.last_curve = Some(blended.clone());
            blended
        }
    }

    #[test]
    fn bounded_monitor_matches_unbounded_oracle_bit_for_bit() {
        for rate in [0u32, 2, 3] {
            let config = MonitorConfig {
                sample_rate_log2: rate,
                granule_lines: 8,
                curve_points: 6,
                ewma_alpha: 0.6,
            };
            let mut bounded = UtilityMonitor::new(config);
            let mut oracle = UnboundedMonitor {
                config,
                stack: wp_mrc::MattsonStack::new(),
                hist: wp_mrc::StackDistanceHistogram::new(),
                last_curve: None,
            };
            let depth = bounded.stack.max_depth();
            assert_eq!(depth, 40 >> rate);
            let mut x = 0xDEAD_BEEFu64 ^ u64::from(rate);
            // Phases of different footprints, one idle interval, and a
            // footprint ~100x the bound; EWMA history carries across.
            for (interval, &(len, footprint)) in [
                (20_000u32, 30u64),
                (30_000, 4_000),
                (0, 0),
                (25_000, 400),
                (40_000, 20_000),
                (15_000, 60),
            ]
            .iter()
            .enumerate()
            {
                for _ in 0..len {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let line = if x % 3 == 0 { x % footprint } else { x % 16 };
                    bounded.record(line);
                    oracle.record(line);
                    assert!(bounded.stack.tracked_lines() <= depth);
                }
                let instrs = 10 * u64::from(len);
                let got = bounded.rollover(instrs);
                let want = oracle.rollover(instrs);
                let bits =
                    |c: &MissCurve| c.points().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "rate {rate} interval {interval}");
            }
            assert!(oracle.stack.distinct_lines() > 50 * depth.max(1));
        }
    }

    #[test]
    fn interval_access_counter() {
        let mut m = UtilityMonitor::new(exact_config());
        m.record(1);
        m.record(2);
        assert_eq!(m.interval_accesses(), 2);
        m.rollover(1000);
        assert_eq!(m.interval_accesses(), 0);
    }
}
