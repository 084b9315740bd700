//! Order statistics over timing samples.

/// Samples a reported percentile must have beyond it.  A percentile read
/// from fewer samples above it is mostly the noise of one or two outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, or
/// `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 leaves exactly 10 samples above it.
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        // Rank 91 leaves 9.
        assert_eq!(percentile(&samples, 91.0), None);
        assert_eq!(percentile(&samples[..99], 90.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(20.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
