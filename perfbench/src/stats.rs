//! The benchmark's metric math: percentiles, medians and geometric means.

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of `values`: the smallest sample such that at
/// least a share `q` of all samples are at most it. `0.0` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// [`percentile`] of values already sorted ascending.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(sorted.len(), q)]
    }
}

/// Index of the nearest-rank `q`-quantile in a sorted slice of `n ≥ 1` samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// How many samples lie strictly beyond the `q`-quantile's rank, i.e. the tail the
/// percentile rests on. A p99 is trustworthy only when this is at least ten.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; `0.0` for an empty slice. Non-positive values have no
/// logarithm, so they make the result `0.0` as well (callers feed ratios of positive times).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `served / reference` for two plan costs, with two equal costs (including two zero costs,
/// which antijoin-heavy plans produce) counting as a ratio of exactly one.
pub fn cost_ratio(served: f64, reference: f64) -> f64 {
    if served == reference {
        1.0
    } else {
        served / reference
    }
}

/// Csg-cmp-pair counts of the paper's closed forms (Sec. 2 of the paper), for `n` relations.
pub mod closed_form {
    /// Chain: `(n³ − n) / 6`.
    pub fn chain(n: u64) -> u64 {
        (n * n * n - n) / 6
    }

    /// Star (one hub, `n − 1` satellites): `(n − 1) · 2^(n−2)`.
    pub fn star(n: u64) -> u64 {
        (n - 1) << (n - 2)
    }

    /// Clique: `(3ⁿ − 2ⁿ⁺¹ + 1) / 2`.
    pub fn clique(n: u64) -> u64 {
        (3u64.pow(n as u32) + 1 - (1u64 << (n + 1))) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest sample count whose `q`-quantile has at least `tail` samples beyond it.
    fn samples_needed(q: f64, tail: usize) -> usize {
        (1..)
            .find(|&n| samples_beyond(n, q) >= tail)
            .expect("unbounded search")
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        // Unsorted input is sorted first.
        assert_eq!(percentile(&[5.0, 4.0, 3.0, 2.0, 1.0], 0.2), 1.0);
    }

    #[test]
    fn p99_needs_about_a_thousand_samples_for_a_ten_sample_tail() {
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_needed(0.99, 10), 1000);
        assert_eq!(samples_needed(0.5, 10), 20);
        assert_eq!(samples_beyond(0, 0.99), 0);
        // The tail really lies beyond the reported value.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 0.99);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert!((mean(&[1.0, 2.0, 6.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cost_ratio_treats_equal_costs_as_one() {
        assert_eq!(cost_ratio(0.0, 0.0), 1.0);
        assert_eq!(cost_ratio(5.0, 5.0), 1.0);
        assert_eq!(cost_ratio(6.0, 4.0), 1.5);
    }

    #[test]
    fn closed_form_pair_counts() {
        // Values from the paper's Sec. 2 and the repository's own counts.
        assert_eq!(closed_form::chain(3), 4);
        assert_eq!(closed_form::chain(20), 1330);
        assert_eq!(closed_form::chain(96), 147_440);
        assert_eq!(closed_form::star(16), 15 * (1 << 14));
        assert_eq!(closed_form::star(20), 4_980_736);
        assert_eq!(closed_form::clique(3), 6);
        assert_eq!(closed_form::clique(12), 261_625);
        assert_eq!(closed_form::clique(14), 2_375_101);
    }
}
