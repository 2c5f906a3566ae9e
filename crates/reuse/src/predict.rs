//! Cache-miss prediction from reuse distances.
//!
//! Section 2.1: "On a perfect cache (fully associative with LRU
//! replacement), a data reuse hits in cache if and only if its reuse
//! distance is smaller than the cache size." A reuse-distance histogram
//! therefore predicts, in one measurement pass, the miss count of *every*
//! cache capacity at once — the miss-ratio curve. This is how reuse
//! distance became the standard locality metric in the authors' later
//! work; here it lets users size caches for a program (or a transformed
//! program) without re-simulating.

use crate::distance::Histogram;

/// Predicted misses for a fully associative LRU cache holding `capacity`
/// data items (at the histogram's measurement granularity).
///
/// Exact when `capacity` is a power of two (histogram bins are log₂);
/// otherwise the whole bin containing `capacity` is dropped by
/// [`Histogram::at_least`], *under*-counting misses by up to that bin's
/// population. For exact counts at arbitrary capacities record distances
/// into a [`crate::distance::CapacityCounter`] (what `gcr-static`'s probe
/// sink does) instead of predicting from a finished histogram.
pub fn predicted_misses(hist: &Histogram, capacity: u64) -> u64 {
    hist.cold + hist.at_least(capacity)
}

/// Predicted miss ratio at the given capacity.
pub fn predicted_miss_ratio(hist: &Histogram, capacity: u64) -> f64 {
    let total = hist.reuses + hist.cold;
    if total == 0 {
        0.0
    } else {
        predicted_misses(hist, capacity) as f64 / total as f64
    }
}

/// The full miss-ratio curve: `(capacity, miss ratio)` at every power of
/// two up to the point where only cold misses remain.
pub fn miss_ratio_curve(hist: &Histogram) -> Vec<(u64, f64)> {
    let max_bin = hist.bins.len();
    (0..=max_bin)
        .map(|k| {
            let cap = 1u64 << k;
            (cap, predicted_miss_ratio(hist, cap))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::ReuseDistanceAnalyzer;

    /// Cyclic sweep over W elements: distance W−1 on every reuse; a cache
    /// of ≥ W elements hits everything, smaller caches miss everything.
    #[test]
    fn sweep_curve_is_a_step() {
        let w = 64u64;
        let mut a = ReuseDistanceAnalyzer::new(1);
        for r in 0..10 {
            for e in 0..w {
                a.access(e);
                let _ = r;
            }
        }
        let h = &a.hist;
        // Capacity w (power of two): all reuses hit; only cold misses.
        assert_eq!(predicted_misses(h, w), w);
        // Capacity w/2: everything misses.
        assert_eq!(predicted_misses(h, w / 2), h.cold + h.reuses);
        let curve = miss_ratio_curve(h);
        assert!(curve.first().unwrap().1 > 0.9);
        assert!(curve.last().unwrap().1 < 0.2);
    }

    /// Prediction matches a simulated fully associative LRU cache exactly
    /// at power-of-two capacities (cross-check of the Section 2.1 claim).
    #[test]
    fn prediction_matches_lru_simulation() {
        // Deterministic mixed-locality stream.
        let mut x = 0x12345678u64;
        let addrs: Vec<u64> = (0..5000)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if i % 3 == 0 {
                    (x >> 33) % 700
                } else {
                    i as u64 % 97
                }
            })
            .collect();
        for cap_log in [4u32, 6, 8] {
            let cap = 1usize << cap_log;
            let mut analyzer = ReuseDistanceAnalyzer::new(1);
            let mut misses = 0u64;
            // Simulate fully associative LRU directly via the analyzer's
            // own definition is circular — use an independent naive LRU.
            let mut stack: Vec<u64> = Vec::new();
            for &addr in &addrs {
                analyzer.access(addr);
                match stack.iter().rposition(|&d| d == addr) {
                    Some(p) if stack.len() - 1 - p < cap => {
                        stack.remove(p);
                        stack.push(addr);
                    }
                    Some(p) => {
                        misses += 1;
                        stack.remove(p);
                        stack.push(addr);
                    }
                    None => {
                        misses += 1;
                        stack.push(addr);
                    }
                }
            }
            assert_eq!(predicted_misses(&analyzer.hist, cap as u64), misses, "capacity {cap}");
        }
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let mut a = ReuseDistanceAnalyzer::new(1);
        for i in 0..2000u64 {
            a.access(i * 7 % 311);
            a.access(i % 13);
        }
        let curve = miss_ratio_curve(&a.hist);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "{curve:?}");
        }
    }
}
