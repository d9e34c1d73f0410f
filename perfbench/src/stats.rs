//! Order statistics over timing samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Mean of the middle half of `values`: a quarter of the samples (rounded
/// down) is dropped from each end; `None` when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        return None;
    }
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Rank (0-based index into ascending samples) reported as the `q`
/// quantile of `n` samples: the nearest rank, lowered when needed so that
/// at least ten samples lie beyond it. With fewer than eleven samples no
/// rank qualifies and the result is `None`.
pub fn tail_rank(n: usize, q: f64) -> Option<usize> {
    if n < 11 {
        return None;
    }
    let nearest = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    Some(nearest.min(n - 11))
}

/// The `q` quantile of ascending `sorted` samples at [`tail_rank`].
pub fn tail_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    tail_rank(sorted.len(), q).map(|r| sorted[r])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        // 2,000 samples: the nearest rank of p99 (index 1,979) already has
        // 20 samples beyond it.
        assert_eq!(tail_rank(2_000, 0.99), Some(1_979));
        // 100 samples: the nearest rank (98) has one sample beyond it, so
        // the helper drops to the highest rank with ten beyond: 89.
        assert_eq!(tail_rank(100, 0.99), Some(89));
        let sorted: Vec<u64> = (0..100).collect();
        let r = tail_quantile(&sorted, 0.99).expect("100 samples qualify");
        assert_eq!(sorted.iter().filter(|&&v| v > r).count(), 10);
        assert_eq!(tail_rank(11, 0.99), Some(0));
        assert_eq!(tail_rank(10, 0.5), None);
        // The median of 1,001 samples is untouched by the cap.
        assert_eq!(tail_rank(1_001, 0.5), Some(500));
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        // 8 samples: the two lowest and the two highest are dropped.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(&v), Some(3.5));
        // Fewer than four samples: nothing is dropped.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
