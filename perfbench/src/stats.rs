//! Order statistics over measured samples.

/// The median of `values` (mean of the middle two for an even count);
/// 0 for no samples.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The nearest-rank `q` quantile of `values`, `q` in `0.0..=1.0`; zero
/// for no samples.
pub fn quantile<T: Copy + Default + PartialOrd>(values: &mut [T], q: f64) -> T {
    if values.is_empty() {
        return T::default();
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [7], 0.5), 7);
        assert_eq!(quantile::<u64>(&mut [], 0.5), 0);
        assert_eq!(quantile(&mut [3.0, 1.0, 2.0, 4.0], 0.9), 4.0);
        assert_eq!(quantile(&mut [3.0, 1.0, 2.0, 4.0], 0.1), 1.0);
    }
}
