//! Order statistics for timing samples.

/// Samples sorted ascending (NaNs are a bug upstream and sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The tail statistic: the highest percentile that still has at least ten
/// samples beyond it. With `n` sorted samples that is the value at rank
/// `n - 10` (1-based), i.e. percentile `100 * (n - 10) / n`. Returns
/// `(percentile, value)`, or `None` when there are fewer than 11 samples
/// and no percentile has ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let v = sorted(xs);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        // 11 samples: the minimum is the only value with ten above it.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_one_hundred_is_p90() {
        // Reverse order to check that tail sorts its input.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert_eq!(p, 90.0);
        assert_eq!(v, 90.0);
        let beyond = xs.iter().filter(|&&x| x > v).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn tail_of_a_thousand_is_p99() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
    }
}
