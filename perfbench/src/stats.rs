//! The benchmark's own arithmetic: percentiles, medians and spreads.

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`): the smallest
/// sample with at least `p`% of all samples at or below it. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median as the mean of the two middle samples for an even count (the
/// convention of Python's `statistics.median`).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method). Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let m = ld + 1;
    // Python's integer arithmetic, including its clamp of `j` to
    // 1..=ld-1 (which extrapolates for very small samples).
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (data[j as usize - 1] * (4.0 - delta) + data[j as usize] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64), so a
/// workload's order is a pure function of its seed.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x5045_5246_4245_4e43; // "PERFBENC"
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        assert_eq!(percentile(&v, 95.0), Some(19.0));
        assert_eq!(percentile(&v, 100.0), Some(20.0));
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 95.0), Some(19.0));
        // A single sample is every percentile.
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Ten samples: p95 is the largest, p50 the fifth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 95.0), Some(10.0));
        assert_eq!(percentile(&ten, 50.0), Some(5.0));
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(50, 3);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, shuffled(50, 3));
        assert_ne!(a, shuffled(50, 4));
        assert!(shuffled(0, 1).is_empty());
    }

    #[test]
    fn medians_follow_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_follow_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
        //   == [1.75, 3.5, 5.25]
        let pi = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        assert_eq!(quartiles(&pi), Some((1.75, 5.25)));
        assert!((relative_spread(&pi).unwrap() - 3.5 / 3.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
