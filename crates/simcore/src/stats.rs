//! Statistics used throughout the evaluation: percentiles, RMSE, CDFs and
//! normalization.
//!
//! The paper reports P50/P99 latencies and power utilizations (Figs. 2, 5,
//! 12), RMSE of power predictions (Fig. 8), and CDFs of prediction error
//! (Fig. 15); the helpers here implement those metrics exactly once so every
//! crate agrees on definitions.

/// Linearly-interpolated percentile of an unsorted slice (`p` in `[0, 100]`).
///
/// Uses the standard "linear interpolation between closest ranks" definition
/// (NumPy default).
///
/// # Panics
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
///
/// ```
/// use simcore::stats::percentile;
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, 50.0), 2.5);
/// assert_eq!(percentile(&xs, 100.0), 4.0);
/// ```
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    assert!(xs.iter().all(|x| !x.is_nan()), "NaN in percentile input");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, p)
}

/// Percentile of an already-sorted slice; see [`percentile`].
///
/// # Panics
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile_of_sorted(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if xs.len() == 1 {
        return xs[0];
    }
    let (lo, hi, frac) = closest_ranks(xs.len(), p);
    xs[lo] + (xs[hi] - xs[lo]) * frac
}

/// The ranks below and above percentile `p` of `len > 1` sorted values,
/// and the weight of the upper one.
fn closest_ranks(len: usize, p: f64) -> (usize, usize, f64) {
    let rank = p / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

/// [`percentile`] without the copy and full sort: selects the two closest
/// ranks in place, leaving `xs` reordered. The result is bit-identical to
/// [`percentile`] on the same values, since both read the same order
/// statistics under [`f64::total_cmp`].
///
/// # Panics
/// Panics if `xs` is empty, contains NaN, or `p` is outside `[0, 100]`.
///
/// ```
/// use simcore::stats::percentile_in_place;
/// let mut xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile_in_place(&mut xs, 50.0), 2.5);
/// ```
pub fn percentile_in_place(xs: &mut [f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    assert!(xs.iter().all(|x| !x.is_nan()), "NaN in percentile input");
    if xs.len() == 1 {
        return xs[0];
    }
    let (lo, hi, frac) = closest_ranks(xs.len(), p);
    let (_, &mut x_lo, upper) = xs.select_nth_unstable_by(lo, f64::total_cmp);
    // Every element of `upper` sorts at or after `x_lo`, so rank `lo + 1`
    // is the smallest of them.
    let x_hi = if hi == lo {
        x_lo
    } else {
        upper.iter().copied().min_by(f64::total_cmp).unwrap_or(x_lo)
    };
    x_lo + (x_hi - x_lo) * frac
}

/// Arithmetic mean.
///
/// # Panics
/// Panics if `xs` is empty.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Root-mean-squared error between predictions and observations.
///
/// This is the accuracy metric the paper uses for power templates (Fig. 8:
/// "50% and 99% of the racks have an RMSE lower than 1.95W and 5.11W").
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn rmse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        actual.len(),
        "rmse inputs must have equal length"
    );
    assert!(!predicted.is_empty(), "rmse of empty slices");
    let se: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).powi(2))
        .sum();
    (se / predicted.len() as f64).sqrt()
}

/// Mean error (bias): positive when predictions overshoot.
///
/// Fig. 15 plots per-technique mean prediction error; conservative templates
/// (FlatMax) show positive bias, opportunistic ones (FlatMed) negative.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn mean_error(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        actual.len(),
        "mean_error inputs must have equal length"
    );
    assert!(!predicted.is_empty(), "mean_error of empty slices");
    predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| p - a)
        .sum::<f64>()
        / predicted.len() as f64
}

/// An empirical cumulative distribution function.
///
/// ```
/// use simcore::stats::Ecdf;
/// let cdf = Ecdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.quantile(0.0), 1.0);
/// assert_eq!(cdf.quantile(1.0), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from raw samples.
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(samples: &[f64]) -> Ecdf {
        assert!(!samples.is_empty(), "ECDF of an empty sample set");
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN in ECDF input");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ecdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false`: ECDFs cannot be empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Value at quantile `q` in `[0, 1]` (linear interpolation).
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        percentile_of_sorted(&self.sorted, q * 100.0)
    }

    /// Evenly spaced `(value, cumulative_fraction)` points for plotting,
    /// including both endpoints.
    ///
    /// # Panics
    /// Panics if `points < 2`.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two curve points");
        (0..points)
            .map(|i| {
                let q = i as f64 / (points - 1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }
}

/// Normalize values so the maximum becomes `1.0`.
///
/// Returns all zeros if the maximum is zero. Used by figure generators that
/// plot "utilization normalized to peak" (Figs. 1, 9).
pub fn normalize_to_peak(xs: &[f64]) -> Vec<f64> {
    let peak = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !peak.is_finite() || peak == 0.0 {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|x| x / peak).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 25.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert!((percentile(&xs, 75.0) - 32.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    /// `percentile_in_place` agrees with `percentile` bit for bit.
    fn assert_in_place_matches(xs: &[f64], p: f64) {
        let want = percentile(xs, p);
        let got = percentile_in_place(&mut xs.to_vec(), p);
        assert_eq!(got.to_bits(), want.to_bits(), "p={p} xs={xs:?}");
    }

    #[test]
    fn percentile_in_place_edge_lengths_and_signed_zeros() {
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_in_place_matches(&[7.0], p);
            assert_in_place_matches(&[-0.0], p);
            assert_in_place_matches(&[0.0, -0.0], p);
            assert_in_place_matches(&[-0.0, 0.0], p);
            assert_in_place_matches(&[3.0, 1.0], p);
            assert_in_place_matches(&[2.0, 2.0], p);
        }
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentile_in_place_rejects_nan() {
        percentile_in_place(&mut [1.0, f64::NAN], 50.0);
    }

    #[test]
    fn rmse_zero_for_perfect_prediction() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&xs, &xs), 0.0);
    }

    #[test]
    fn rmse_known_value() {
        let pred = [2.0, 2.0];
        let act = [0.0, 0.0];
        assert_eq!(rmse(&pred, &act), 2.0);
    }

    #[test]
    fn mean_error_sign_convention() {
        assert!(mean_error(&[3.0], &[1.0]) > 0.0); // overprediction positive
        assert!(mean_error(&[1.0], &[3.0]) < 0.0);
    }

    #[test]
    fn ecdf_fractions() {
        let cdf = Ecdf::from_samples(&[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.75);
        assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
    }

    #[test]
    fn ecdf_curve_endpoints() {
        let cdf = Ecdf::from_samples(&[5.0, 1.0, 3.0]);
        let curve = cdf.curve(5);
        assert_eq!(curve.first().unwrap(), &(1.0, 0.0));
        assert_eq!(curve.last().unwrap(), &(5.0, 1.0));
    }

    #[test]
    fn normalize_handles_zero_peak() {
        assert_eq!(normalize_to_peak(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert_eq!(normalize_to_peak(&[1.0, 2.0]), vec![0.5, 1.0]);
    }

    proptest! {
        #[test]
        fn percentile_is_monotone(
            mut xs in prop::collection::vec(-1e6..1e6f64, 1..100),
            p1 in 0.0..100.0f64,
            p2 in 0.0..100.0f64,
        ) {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(percentile_of_sorted(&xs, lo) <= percentile_of_sorted(&xs, hi) + 1e-9);
        }

        #[test]
        fn percentile_in_place_is_bit_identical(
            draws in prop::collection::vec((0u8..4, -1e6..1e6f64), 1..200),
            p_draw in (0u8..4, 0.0..=100.0f64),
        ) {
            // Signed zeros and small integers make ties and duplicates.
            let xs: Vec<f64> = draws
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 => (x / 3e5).trunc(),
                    _ => x,
                })
                .collect();
            let p = [0.0, 99.0, 100.0, p_draw.1][usize::from(p_draw.0)];
            assert_in_place_matches(&xs, p);
        }

        #[test]
        fn percentile_within_range(xs in prop::collection::vec(-1e6..1e6f64, 1..100), p in 0.0..100.0f64) {
            let v = percentile(&xs, p);
            let mn = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let mx = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= mn - 1e-9 && v <= mx + 1e-9);
        }

        #[test]
        fn rmse_nonnegative_and_bounded_by_max_abs_error(
            pairs in prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 1..50)
        ) {
            let pred: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let act: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let e = rmse(&pred, &act);
            let max_abs = pred.iter().zip(&act).map(|(p, a)| (p - a).abs()).fold(0.0, f64::max);
            prop_assert!(e >= 0.0);
            prop_assert!(e <= max_abs + 1e-9);
        }

        #[test]
        fn ecdf_quantile_monotone(xs in prop::collection::vec(-1e3..1e3f64, 1..50), q in 0.0..1.0f64) {
            let cdf = Ecdf::from_samples(&xs);
            prop_assert!(cdf.quantile(q) <= cdf.quantile(1.0) + 1e-9);
            prop_assert!(cdf.quantile(q) >= cdf.quantile(0.0) - 1e-9);
        }
    }
}
