//! Synthetic classification data (Gaussian blobs).

use bpimc_stats::normal::standard_normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labelled dataset of non-negative feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature dimensionality.
    pub dim: usize,
    /// Class count.
    pub classes: usize,
    /// Samples (`len = classes * per_class`).
    pub(crate) samples: Vec<Vec<f64>>,
    /// Labels aligned with `samples`.
    pub(crate) labels: Vec<usize>,
    /// The class centroids used to generate the data.
    pub(crate) prototypes: Vec<Vec<f64>>,
}

impl Dataset {
    /// Generates `classes` Gaussian blobs of `per_class` points in
    /// `dim`-dimensional space, deterministically from `seed`. Features are
    /// clipped to be non-negative (the unsigned datapath of the macro).
    ///
    /// # Panics
    ///
    /// Panics if `dim`, `classes` or `per_class` is zero.
    pub fn synthetic_blobs(classes: usize, dim: usize, per_class: usize, seed: u64) -> Self {
        assert!(
            dim > 0 && classes > 0 && per_class > 0,
            "empty dataset requested"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // Well-separated prototypes on [0.2, 1.0]^dim.
        let prototypes: Vec<Vec<f64>> = (0..classes)
            .map(|_| (0..dim).map(|_| 0.2 + 0.8 * rng.random::<f64>()).collect())
            .collect();
        let mut samples = Vec::with_capacity(classes * per_class);
        let mut labels = Vec::with_capacity(classes * per_class);
        for (c, proto) in prototypes.iter().enumerate() {
            for _ in 0..per_class {
                let point: Vec<f64> = proto
                    .iter()
                    .map(|&m| (m + 0.08 * standard_normal(&mut rng)).max(0.0))
                    .collect();
                samples.push(point);
                labels.push(c);
            }
        }
        Self {
            dim,
            classes,
            samples,
            labels,
            prototypes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The largest feature value in the dataset (for quantization ranges).
    pub(crate) fn max_feature(&self) -> f64 {
        self.samples
            .iter()
            .flat_map(|s| s.iter().copied())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::synthetic_blobs(3, 8, 10, 7);
        let b = Dataset::synthetic_blobs(3, 8, 10, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        assert_eq!(a.labels.iter().filter(|&&l| l == 2).count(), 10);
    }

    #[test]
    fn features_are_non_negative() {
        let d = Dataset::synthetic_blobs(4, 8, 25, 3);
        assert!(d.samples.iter().all(|s| s.iter().all(|&x| x >= 0.0)));
        assert!(d.max_feature() > 0.0);
    }
}
