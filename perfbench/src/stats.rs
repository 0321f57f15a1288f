//! Order statistics shared by every workload: medians, the tail rule, and
//! geometric means.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail percentile of a latency sample: the highest percentile that
/// still has at least `beyond` samples strictly above its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in `0..100`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples in the whole set.
    pub count: usize,
    /// Samples ranked beyond the percentile (always `>= beyond`).
    pub beyond: usize,
}

/// Applies the tail rule: with `n` samples sorted ascending, the reported
/// sample is the one at rank `n - beyond - 1` (0-based), so exactly
/// `beyond` samples lie beyond it, and its percentile is the share of
/// samples at or below it. `None` when there are not more than `beyond`
/// samples. Infinite samples (failed requests) sort last, so they are
/// always counted as beyond any finite tail.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n <= beyond {
        return None;
    }
    let rank = n - beyond - 1;
    Some(Tail {
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        value: v[rank],
        count: n,
        beyond,
    })
}

/// Geometric mean of strictly positive, finite values; `None` when there
/// are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (sum, n) = values
        .into_iter()
        .filter(|v| v.is_finite() && *v > 0.0)
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (n > 0).then(|| (sum / n as f64).exp())
}

/// Geometric mean of `eps^(1/qubits)` over `(eps, qubits)` pairs with a
/// representable (positive) EPS: the success probability per qubit,
/// which stays comparable across register sizes where EPS itself spans
/// hundreds of orders of magnitude and underflows to 0.
pub fn eps_per_qubit(artifacts: impl IntoIterator<Item = (f64, usize)>) -> Option<f64> {
    geomean(
        artifacts
            .into_iter()
            .filter(|(eps, qubits)| *eps > 0.0 && *qubits > 0)
            .map(|(eps, qubits)| eps.powf(1.0 / qubits as f64)),
    )
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
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
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values, 10).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!((t.count, t.beyond), (100, 10));
        // 1000 samples: the 990th value, p99.0.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values, 10).unwrap();
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
        // Input order does not matter.
        let mut shuffled: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        shuffled.swap(0, 7);
        let t = tail(&shuffled, 10).unwrap();
        assert_eq!((t.value, t.percentile, t.count), (15.0, 60.0, 25));
    }

    #[test]
    fn tail_needs_more_samples_than_the_margin() {
        assert_eq!(tail(&[1.0; 10], 10), None);
        assert!(tail(&[1.0; 11], 10).is_some());
    }

    #[test]
    fn failures_count_as_infinitely_late() {
        let mut values: Vec<f64> = (1..=20).map(f64::from).collect();
        values.extend([f64::INFINITY; 3]);
        let t = tail(&values, 10).unwrap();
        // 23 samples: the three failures plus the seven slowest successes
        // are beyond the reported value.
        assert_eq!(t.value, 13.0);
        assert_eq!(t.count, 23);
        let all_failed = tail(&[f64::INFINITY; 12], 10).unwrap();
        assert!(all_failed.value.is_infinite());
    }

    #[test]
    fn eps_per_qubit_normalises_register_size() {
        // 0.5^2 on 2 qubits and 0.5^20 on 20 qubits are both 0.5 per
        // qubit; an underflowed EPS of 0 is skipped.
        let v = eps_per_qubit([(0.25, 2), (0.5f64.powi(20), 20), (0.0, 250)]).unwrap();
        assert!((v - 0.5).abs() < 1e-12);
        assert_eq!(eps_per_qubit([(0.0, 5)]), None);
    }

    #[test]
    fn geomean_skips_nonpositive_values() {
        assert_eq!(geomean([]), None);
        assert_eq!(geomean([0.0]), None);
        let g = geomean([1.0, 100.0, 0.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
    }
}
