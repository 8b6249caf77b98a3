//! The Appendix-B *flow model* for combining miss-rate curves.
//!
//! When two pools share one LRU cache, accesses from either pool push lines
//! from both towards eviction. The paper models this with *flow*: the rate
//! at which lines move down the stack equals the miss rate at the current
//! size, so when pools are merged each pool's read head advances in
//! proportion to its share of the combined flow (Listing 1, Fig. 23).

use crate::curve::MissCurve;

/// Estimates the miss curve of two pools sharing a single cache.
///
/// Direct transcription of the paper's Listing 1, generalized to fractional
/// read-head positions via linear interpolation:
///
/// ```text
/// def combineMissCurves(m1, m2):
///     s1, s2 = 0, 0
///     for s = 0 to N:
///         m[s] = m1[s1] + m2[s2]
///         s1 += m1[s1] / m[s]
///         s2 += m2[s2] / m[s]
///     return m
/// ```
///
/// The output has one "write head" at `s` and two "read heads" `s1`, `s2`
/// that advance according to their relative flows. The model is commutative
/// and (approximately) associative, recombines similar pools into a similar
/// result, and changes little when adding an infrequently-accessed pool —
/// the properties Fig. 23 illustrates (verified in this module's tests).
///
/// # Panics
///
/// Panics if the curves use different granule sizes.
pub fn combine_miss_curves(m1: &MissCurve, m2: &MissCurve) -> MissCurve {
    assert_eq!(
        m1.granule_lines(),
        m2.granule_lines(),
        "combine requires a shared granule"
    );
    let n = m1.len() + m2.len() - 1;
    // With imbalanced flows one read head can lag behind its curve's end at
    // step n; keep going (bounded) until both heads saturate so the combined
    // curve's floor equals the sum of the input floors.
    let max_steps = 8 * n + 16;
    let (end1, end2) = ((m1.len() - 1) as f64, (m2.len() - 1) as f64);
    let mut out = Vec::with_capacity(n);
    let (mut s1, mut s2) = (0.0f64, 0.0f64);
    for step in 0..max_steps {
        let f1 = interp(m1, s1);
        let f2 = interp(m2, s2);
        let total = f1 + f2;
        if step >= n && s1 >= end1 - 1e-9 && s2 >= end2 - 1e-9 {
            break;
        }
        out.push(total);
        if total > 1e-12 {
            s1 += f1 / total;
            s2 += f2 / total;
        } else {
            // No remaining flow: both pools fit; heads drift equally.
            s1 += 0.5;
            s2 += 0.5;
        }
    }
    // Exact floor, in case the iteration cap cut convergence short.
    let floor = m1.floor() + m2.floor();
    match out.last_mut() {
        Some(last) if *last > floor => *last = floor,
        Some(_) => {}
        None => out.push(floor),
    }
    MissCurve::new(out, m1.granule_lines())
}

/// Linear interpolation of a curve at fractional granule position `s`.
fn interp(m: &MissCurve, s: f64) -> f64 {
    let lo = s.floor() as usize;
    if lo + 1 >= m.len() {
        return m.floor();
    }
    let frac = s - lo as f64;
    m.points()[lo] * (1.0 - frac) + m.points()[lo + 1] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometric(apki: f64, ratio: f64, n: usize) -> MissCurve {
        let pts = (0..n).map(|i| apki * ratio.powi(i as i32)).collect();
        MissCurve::new(pts, 4)
    }

    #[test]
    fn zero_capacity_sums_access_rates() {
        let a = geometric(10.0, 0.5, 8);
        let b = geometric(30.0, 0.8, 8);
        let c = combine_miss_curves(&a, &b);
        assert!((c.at_zero() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn commutative() {
        let a = geometric(10.0, 0.5, 10);
        let b = geometric(5.0, 0.9, 14);
        let ab = combine_miss_curves(&a, &b);
        let ba = combine_miss_curves(&b, &a);
        for i in 0..ab.len() {
            assert!((ab.mpki_at(i) - ba.mpki_at(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn approximately_associative() {
        let a = geometric(12.0, 0.6, 10);
        let b = geometric(6.0, 0.8, 12);
        let c = geometric(20.0, 0.4, 8);
        let left = combine_miss_curves(&combine_miss_curves(&a, &b), &c);
        let right = combine_miss_curves(&a, &combine_miss_curves(&b, &c));
        // The paper calls the model associative; numerically this holds to a
        // few percent of the total access rate (38 APKI here) — the residual
        // is interpolation error on the discrete grid.
        for i in 0..left.len().min(right.len()) {
            assert!(
                (left.mpki_at(i) - right.mpki_at(i)).abs() < 0.05 * 38.0,
                "divergence at {i}: {} vs {}",
                left.mpki_at(i),
                right.mpki_at(i)
            );
        }
    }

    #[test]
    fn recombining_split_pool_recovers_original() {
        // Fig. 23b: split a pool into two identical halves (each sees half
        // the accesses over half the footprint), recombine, and get the
        // original back.
        let orig = geometric(20.0, 0.7, 17);
        // Half-pool: mpki scaled by 1/2, capacity axis compressed by 2.
        let half_pts: Vec<f64> = (0..9).map(|i| orig.mpki_at(i * 2) / 2.0).collect();
        let half = MissCurve::new(half_pts, 4);
        let re = combine_miss_curves(&half, &half);
        for i in 0..orig.len() {
            let err = (re.mpki_at(i) - orig.mpki_at(i)).abs();
            // Tolerance: 5% of the access rate, the grid-interpolation error
            // floor of the flow model on a convex curve.
            assert!(
                err < 0.05 * orig.at_zero(),
                "point {i}: {} vs {}",
                re.mpki_at(i),
                orig.mpki_at(i)
            );
        }
    }

    #[test]
    fn tiny_pool_barely_perturbs() {
        let big = geometric(50.0, 0.7, 12);
        let tiny = geometric(0.05, 0.5, 4);
        let c = combine_miss_curves(&big, &tiny);
        for i in 0..big.len() {
            assert!(
                (c.mpki_at(i) - big.mpki_at(i)).abs() < 0.3,
                "tiny pool changed point {i} too much"
            );
        }
    }

    #[test]
    fn combined_needs_more_capacity_than_either() {
        // Merging competing pools inflates misses at intermediate sizes
        // relative to what each pool alone would see with that capacity.
        let a = geometric(20.0, 0.5, 10);
        let b = geometric(20.0, 0.5, 10);
        let c = combine_miss_curves(&a, &b);
        // At capacity 4, each alone has mpki a(4); combined at 4 behaves
        // like each at ~2, which is worse than 2*a(4).
        assert!(c.mpki_at(4) > 2.0 * a.mpki_at(4) - 1e-9);
    }

    #[test]
    fn monotone_inputs_give_monotone_output() {
        let a = geometric(9.0, 0.65, 9);
        let b = geometric(14.0, 0.85, 13);
        assert!(combine_miss_curves(&a, &b).is_monotone());
    }

    #[test]
    fn both_streams_flat_zero() {
        let a = MissCurve::new(vec![0.0, 0.0, 0.0], 4);
        let b = MissCurve::new(vec![0.0, 0.0], 4);
        let c = combine_miss_curves(&a, &b);
        assert!(c.points().iter().all(|&p| p == 0.0));
    }
}
