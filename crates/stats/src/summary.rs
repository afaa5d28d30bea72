//! Summary statistics over `f64` samples.

/// Summary statistics of a sample: mean, standard deviation, extrema and
/// selected percentiles.
///
/// # Examples
///
/// ```
/// use bpimc_stats::Summary;
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.n, 4);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes summary statistics of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or contains non-finite values.
    pub fn from_slice(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "cannot summarise an empty sample");
        assert!(
            xs.iter().all(|x| x.is_finite()),
            "sample contains non-finite values"
        );
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Self {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        }
    }
}

/// Linear-interpolated percentile on pre-sorted data; `q` in `[0, 1]`.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "percentile q out of range: {q}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stats() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std of the canonical data set (population std = 2).
        assert!((s.std - 2.138).abs() < 1e-3, "std {}", s.std);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        let s = Summary::from_slice(&xs);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_slice(&[3.5]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.p50, 3.5);
        assert_eq!(s.p99, 3.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        let _ = Summary::from_slice(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_panics() {
        let _ = Summary::from_slice(&[1.0, f64::NAN]);
    }
}
