//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance
//! driver computes over this harness's outputs: position `i * (m + 1) / 4`
//! in the 1-based sorted sample of `m` values, linearly interpolated.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller times at least one rep.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` by the exclusive method, extrapolating past the ends
/// exactly as Python does. A single sample is its own quartiles (Python
/// raises there; a one-rep run still needs a number).
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    assert!(!v.is_empty(), "quartiles of no samples");
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median — the spread the driver
/// holds every end-to-end metric to.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The 75th percentile, but only when at least ten samples lie beyond it
/// (the choosing-metrics rule: report the highest percentile with ≥ 10
/// samples past it; below 40 samples that leaves the median alone).
pub fn p75_if_supported(samples: &[f64]) -> Option<f64> {
    let q3 = quartiles(samples).2;
    let beyond = samples.iter().filter(|&&s| s > q3).count();
    (beyond >= 10).then_some(q3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    fn iqr_share_is_relative() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn p75_needs_ten_samples_beyond() {
        let few: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(p75_if_supported(&few), None);
        let many: Vec<f64> = (1..=43).map(f64::from).collect();
        // q3 = position 33 → 33.0; 10 samples (34..=43) lie beyond.
        assert_eq!(p75_if_supported(&many), Some(33.0));
    }
}
