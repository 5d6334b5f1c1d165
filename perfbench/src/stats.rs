//! Order statistics over latency samples.
//!
//! A failed or wrong answer enters a sample set as `f64::INFINITY`, so it
//! counts as infinitely slow in every statistic built from that set.

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the two
/// closest ranks, as numpy's default does; `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        return v[lo];
    }
    if v[hi].is_infinite() {
        return f64::INFINITY;
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median (the 0.5-quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Distance between the first and the third quartile as a share of the
/// median: the noise band of a set of repeated measurements.
pub fn spread(xs: &[f64]) -> f64 {
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

/// `part ÷ whole`, or 0 when `whole` is 0 (a layer that did no work).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_fixed_inputs() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn a_failed_sample_is_infinitely_slow() {
        let xs = [1.0, 2.0, f64::INFINITY];
        assert_eq!(median(&xs), 2.0);
        assert_eq!(quantile(&xs, 0.9), f64::INFINITY);
        assert_eq!(mean(&xs), f64::INFINITY);
        assert_eq!(
            quantile(&[f64::INFINITY, f64::INFINITY], 0.5),
            f64::INFINITY
        );
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        // Quartiles 2 and 4 around a median of 3.
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0 / 3.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn ratio_of_no_work_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
