//! Order statistics for trial samples.

/// The median of `values` (mean of the two middle values for an even
/// count). `None` when there are no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The interquartile mean: the mean of the middle half of `values`
/// (a quarter of the count, rounded down, trimmed from each end). Like
/// the median it ignores tail outliers; unlike the median it moves
/// smoothly when samples fall into two modes in varying proportion,
/// instead of jumping from one mode to the other. `None` when empty.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let k = s.len() / 4;
    let middle = &s[k..s.len() - k];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` does (the default
/// "exclusive" method). `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    if s.len() < 2 {
        return None;
    }
    let n = 4usize;
    let m = s.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// The highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it, with its nearest-rank value. `None` below 20
/// samples, where even the 50th percentile has fewer than ten beyond it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    // Percentiles in tenths of a percent, so the rank is exact integer math.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find_map(|p| {
            let rank = (p * n).div_ceil(1000);
            (rank >= 1 && n - rank >= 10).then(|| (p as f64 / 10.0, s[rank - 1]))
        })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn interquartile_mean_trims_a_quarter_from_each_end() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[2.0, 4.0]), Some(3.0));
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(interquartile_mean(&v), Some(4.5));
        assert_eq!(interquartile_mean(&[100.0, 1.0, 3.0, 2.0]), Some(2.5));
        // Two modes: the median jumps between them as the mix passes one
        // half; the interquartile mean moves in proportion.
        let mix = |slow: usize| {
            let mut v = vec![1.0; 100 - slow];
            v.extend(std::iter::repeat_n(2.0, slow));
            v
        };
        assert_eq!(median(&mix(49)), Some(1.0));
        assert_eq!(median(&mix(51)), Some(2.0));
        assert_eq!(interquartile_mean(&mix(49)), Some(1.48));
        assert_eq!(interquartile_mean(&mix(51)), Some(1.52));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 has exactly ten samples (91..=100) beyond it; p95 has five.
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&v[..19]), None);
    }
}
