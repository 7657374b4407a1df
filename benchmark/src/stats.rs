//! Exact order statistics over raw samples.

/// The nearest-rank `q`-quantile of `samples` (reordered in place);
/// 0 for no samples.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(rank).1
}

pub fn median(samples: &mut [u64]) -> u64 {
    quantile(samples, 0.5)
}

/// The median of per-round values (mean of the middle two for an even
/// count); 0 for none.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(median(&mut v), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(quantile(&mut [7], 0.99), 7);
    }

    #[test]
    fn round_medians() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
