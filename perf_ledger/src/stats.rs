//! Order statistics and digests shared by every workload.

/// Percentiles a latency report may carry, highest first.
const REPORTED: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Integer per-mille arithmetic: `0.99 * 1000.0` must not round up.
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// A percentile is supported when at least ten samples lie beyond it,
/// so p99 needs 1000 samples and p90 needs 100.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= 10
}

/// The highest reported percentile that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    REPORTED.into_iter().find(|&p| supported(n, p))
}

/// Nearest-rank percentile of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` (the default exclusive method) computes them — the spread
/// rule the regression bounds are written against.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let q = |i: usize| {
                let m = ld + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range over the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// 64-bit FNV-1a, the benchmark's own byte digest (independent of the
/// service's hashing code).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a digest over more bytes.
pub fn fnv1a_from(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supported(999, 99.0));
        assert!(supported(1000, 99.0));
        assert!(!supported(99, 90.0));
        assert!(supported(100, 90.0));
        assert_eq!(highest_supported(1500), Some(99.0));
        assert_eq!(highest_supported(250), Some(95.0));
        assert_eq!(highest_supported(120), Some(90.0));
        assert_eq!(highest_supported(25), Some(50.0));
        assert_eq!(highest_supported(5), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_from(fnv1a(b"fo"), b"o"), fnv1a(b"foo"));
    }
}
