//! Order statistics and the output digest.

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail latency: the mean of the samples from rank ⌈0.985 n⌉ to rank
/// ⌈0.995 n⌉, a window of one percent of the sample centred on the 99th
/// percentile. A latency distribution made of a few request classes has
/// cliffs, and when the single p99 rank sits at one, scheduler noise of a
/// microsecond decides which side it reads (59 ms or 66 ms on `serve-mix`);
/// the window moves by a seventeenth of that. With fewer than 67 samples
/// the window is the maximum alone.
pub fn tail_p99(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "tail of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let rank = |p: f64| ((p * n).ceil() as usize).clamp(1, v.len());
    let window = &v[rank(0.985) - 1..rank(0.995)];
    window.iter().sum::<f64>() / window.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver's spread
/// uses. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, interpolated and clamped.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// 64-bit FNV-1a of `bytes`, the hash of the committed goldens:
/// `gcr_reuse::FnvHasher`, which is pinned and tested against the published
/// vectors, unlike the standard library's `DefaultHasher`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    use std::hash::Hasher as _;
    let mut h = gcr_reuse::FnvHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_a_window_around_p99() {
        // 1600 samples: ranks 1576..=1592, centred on 1584.
        let v: Vec<f64> = (1..=1600).map(f64::from).collect();
        assert_eq!(tail_p99(&v), 1584.0);
        // 72 samples: the top two. 8 samples: the maximum.
        let v: Vec<f64> = (1..=72).map(f64::from).collect();
        assert_eq!(tail_p99(&v), 71.5);
        assert_eq!(tail_p99(&[3.0, 9.0, 1.0, 4.0, 1.0, 5.0, 9.5, 2.0]), 9.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }
}
