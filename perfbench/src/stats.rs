//! Order statistics over host-time samples.

/// Median; NaN for no samples.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The value at the highest percentile that still has at least ten samples
/// beyond it, with that percentile and the sample count. With ten samples
/// or fewer no percentile qualifies, and the maximum is reported.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, 0);
    }
    if n <= 10 {
        return (s[n - 1], 100.0, n);
    }
    let idx = n - 11;
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!(n, 40);
        assert_eq!(value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(pct, 75.0);
        assert_eq!(tail(&[1.0, 5.0]).0, 5.0);
    }
}
