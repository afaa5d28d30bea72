//! Fixed-bin histograms, used to regenerate distribution figures.

use std::fmt;

/// A histogram with uniform bins over `[lo, hi)`.
///
/// Out-of-range samples are counted in saturating under/overflow bins so no
/// data is silently dropped — important when comparing a short-tailed and a
/// long-tailed delay distribution on a common axis as in the paper's Fig. 2.
///
/// # Examples
///
/// ```
/// use bpimc_stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// h.add(0.5);
/// h.add(9.5);
/// h.add(11.0); // overflow bin
/// assert_eq!(h.count(0), 1);
/// assert_eq!(h.count(9), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `nbins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if `nbins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(
            hi > lo,
            "histogram range must be non-empty (lo {lo}, hi {hi})"
        );
        Self {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / self.width() * self.bins.len() as f64) as usize;
            // Guard against the extremely rare case of floating rounding up.
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Adds every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Number of bins.
    pub fn nbins(&self) -> usize {
        self.bins.len()
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of samples, including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The center of bin `i`.
    pub(crate) fn bin_center(&self, i: usize) -> f64 {
        let w = self.width() / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// All `(bin_center, fraction)` points, the series a plot would use.
    pub fn series(&self) -> Vec<(f64, f64)> {
        (0..self.nbins())
            .map(|i| (self.bin_center(i), self.frac(i)))
            .collect()
    }

    /// Fraction of samples (of total) in bin `i`.
    fn frac(&self, i: usize) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.count(i) as f64 / self.total() as f64
        }
    }

    fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

impl fmt::Display for Histogram {
    /// Renders an ASCII bar chart, one row per bin.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.bins.iter().enumerate() {
            let bar_len = (c as f64 / max as f64 * 50.0).round() as usize;
            writeln!(
                f,
                "{:>10.4} | {:<50} {}",
                self.bin_center(i),
                "#".repeat(bar_len),
                c
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for x in [0.0, 0.24, 0.25, 0.5, 0.75, 0.99] {
            h.add(x);
        }
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-0.1);
        h.add(1.0);
        h.add(5.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn centers_and_series() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.add(0.5);
        h.add(1.5);
        h.add(1.6);
        assert_eq!(h.bin_center(0), 0.5);
        assert_eq!(h.bin_center(1), 1.5);
        let s = h.series();
        assert_eq!(s.len(), 2);
        assert!((s[1].1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let mut h = Histogram::new(0.0, 1.0, 3);
        h.add(0.1);
        assert!(!format!("{h}").is_empty());
    }
}
