//! Order statistics and ratio estimates used by every reported metric.

/// The samples of one timing, kept whole so percentiles are exact (no
/// histogram buckets) and the sample count is reported beside them.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank `q`-quantile (`0 < q ≤ 1`): the smallest sample with
    /// at least `q·n` samples at or below it. 0 for an empty set.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }

    /// Whether the `q`-quantile has at least ten samples beyond it, the
    /// least a tail percentile needs before it means anything.
    pub fn supports(&self, q: f64) -> bool {
        samples_beyond(self.values.len(), q) >= 10
    }
}

/// Samples strictly above the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// Intercept at `x = 0` of the Theil–Sen line through `points`: the slope
/// is the median of the slopes between every pair of points with distinct
/// `x`, the intercept the median of `y − slope·x`. Robust to up to ~29%
/// outlying points. With no two distinct `x` it is the median of `y`.
pub fn theil_sen_intercept(points: &[(f64, f64)]) -> f64 {
    let mut slopes = Samples::default();
    for (i, &(x0, y0)) in points.iter().enumerate() {
        for &(x1, y1) in &points[i + 1..] {
            if x1 != x0 {
                slopes.push((y1 - y0) / (x1 - x0));
            }
        }
    }
    // An empty set's quantile is 0: no slope.
    let slope = slopes.quantile(0.5);
    let mut intercepts = Samples::default();
    for &(x, y) in points {
        intercepts.push(y - slope * x);
    }
    intercepts.quantile(0.5)
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One-sided 95% Wilson upper confidence bound on a proportion of
/// `k` events in `n` trials. Never 0 for `n > 0`: with no events it is
/// about `2.7 / n`, the most the rate can be given that nothing was seen.
pub fn wilson_upper95(k: u64, n: u64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    const Z: f64 = 1.644_853_626_951_472_2;
    let n = n as f64;
    let p = k as f64 / n;
    let z2 = Z * Z;
    let centre = p + z2 / (2.0 * n);
    let half = Z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre + half) / (1.0 + z2 / n)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hundred() -> Samples {
        let mut s = Samples::default();
        // Pushed out of order: quantiles must sort first.
        for v in (1..=100).rev() {
            s.push(v as f64);
        }
        s
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = hundred();
        assert_eq!(s.len(), 100);
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.001), 1.0);
    }

    #[test]
    fn quantile_after_more_samples_resorts() {
        let mut s = hundred();
        assert_eq!(s.quantile(0.5), 50.0);
        for _ in 0..100 {
            s.push(1000.0);
        }
        assert_eq!(s.quantile(0.5), 100.0);
        assert_eq!(s.quantile(0.99), 1000.0);
    }

    #[test]
    fn empty_and_single() {
        let mut e = Samples::default();
        assert_eq!(e.len(), 0);
        assert_eq!(e.quantile(0.5), 0.0);
        assert!(!e.supports(0.5));
        let mut one = Samples::default();
        one.push(7.0);
        assert_eq!(one.quantile(0.5), 7.0);
        assert_eq!(one.quantile(0.99), 7.0);
    }

    #[test]
    fn tail_support_needs_ten_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(20, 0.5), 10);
        assert_eq!(samples_beyond(0, 0.99), 0);
        let mut s = Samples::default();
        for v in 0..1000 {
            s.push(v as f64);
        }
        assert!(s.supports(0.99));
        s.quantile(0.5);
        assert!(s.supports(0.5));
        let mut short = Samples::default();
        for v in 0..999 {
            short.push(v as f64);
        }
        assert!(!short.supports(0.99));
    }

    #[test]
    fn wilson_bound_brackets_the_rate() {
        let zero = wilson_upper95(0, 1_000_000);
        assert!(zero > 0.0 && zero < 3e-6, "{zero}");
        let b = wilson_upper95(500, 10_000);
        assert!(b > 0.05 && b < 0.06, "{b}");
        assert_eq!(wilson_upper95(0, 0), 1.0);
        assert!(wilson_upper95(10, 10) <= 1.0);
    }

    #[test]
    fn theil_sen_recovers_a_line_through_an_outlier() {
        let mut pts: Vec<(f64, f64)> = (0..10)
            .map(|i| (i as f64, 100.0 - 3.0 * i as f64))
            .collect();
        assert_eq!(theil_sen_intercept(&pts), 100.0);
        pts[4].1 = -1000.0;
        assert_eq!(theil_sen_intercept(&pts), 100.0);
        // One distinct x: no slope, the median of y.
        assert_eq!(
            theil_sen_intercept(&[(0.2, 5.0), (0.2, 7.0), (0.2, 9.0)]),
            7.0
        );
        assert_eq!(theil_sen_intercept(&[]), 0.0);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
