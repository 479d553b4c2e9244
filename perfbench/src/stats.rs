//! Order statistics used by every workload.

/// The `q`-quantile of `values` by the nearest-rank rule: the smallest
/// sample with at least `q · n` samples at or below it. Exact on the
/// samples (no interpolation), so a reported p90 is a latency some
/// request really had. Returns `None` on an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest rank, so always one of the samples).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// How many samples lie strictly above the `q`-quantile: a tail
/// percentile is reported only when at least ten samples sit beyond it.
pub fn samples_beyond(values: &[f64], q: f64) -> usize {
    match percentile(values, q) {
        Some(p) => values.iter().filter(|&&v| v > p).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_made_samples() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(5.0));
        assert_eq!(percentile(&v, 0.2), Some(1.0));
        assert_eq!(percentile(&v, 0.21), Some(2.0));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_of_one_to_hundred_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(samples_beyond(&v, 0.9), 10);
        assert_eq!(samples_beyond(&v[..50], 0.9), 5);
        assert_eq!(samples_beyond(&[], 0.9), 0);
    }

    #[test]
    fn ties_and_order_do_not_matter() {
        let a = [3.0, 3.0, 1.0, 3.0];
        let b = [1.0, 3.0, 3.0, 3.0];
        assert_eq!(percentile(&a, 0.5), percentile(&b, 0.5));
        assert_eq!(samples_beyond(&a, 0.5), 0);
    }
}
