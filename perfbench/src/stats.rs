//! Order statistics shared by every workload and by the spread mode.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points of `values`, by the "exclusive"
/// method (the default of Python's `statistics.quantiles(values, n=4)`),
/// so spreads printed here match a reader's own check.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n as f64 + 1.0;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// The `p`-th percentile (0–100) by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive ratios, summed in ascending order so the
/// result does not depend on the order of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        let v = [1.7, 2.3, 0.9, 3.1, 1.1];
        let mut w = v;
        w.reverse();
        assert_eq!(geomean(&v).to_bits(), geomean(&w).to_bits());
    }
}
