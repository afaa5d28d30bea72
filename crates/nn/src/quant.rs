//! Uniform unsigned quantization.

use bpimc_core::Precision;

/// Quantization parameters: a uniform unsigned grid over `[0, max_abs]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QuantParams {
    /// The word precision quantized values target.
    pub(crate) precision: Precision,
    /// The real value mapped to the largest code.
    pub(crate) max_abs: f64,
}

impl QuantParams {
    /// Parameters covering `[0, max_abs]` at `precision`.
    ///
    /// # Panics
    ///
    /// Panics if `max_abs` is not positive.
    pub(crate) fn new(precision: Precision, max_abs: f64) -> Self {
        assert!(max_abs > 0.0, "max_abs must be positive");
        Self { precision, max_abs }
    }

    /// The quantization step.
    pub(crate) fn step(&self) -> f64 {
        self.max_abs / self.precision.max_value() as f64
    }

    /// Quantizes one value (clamping into range).
    pub(crate) fn quantize(&self, x: f64) -> u64 {
        let q = (x / self.step()).round();
        q.clamp(0.0, self.precision.max_value() as f64) as u64
    }

    /// Quantizes a slice.
    pub(crate) fn quantize_all(&self, xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|&x| self.quantize(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_is_bounded_by_half_step() {
        let q = QuantParams::new(Precision::P8, 2.0);
        for i in 0..100 {
            let x = i as f64 * 0.02;
            let err = (q.quantize(x) as f64 * q.step() - x).abs();
            assert!(err <= q.step() / 2.0 + 1e-12, "x={x} err={err}");
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let q = QuantParams::new(Precision::P4, 1.0);
        assert_eq!(q.quantize(-5.0), 0);
        assert_eq!(q.quantize(99.0), 15);
    }

    #[test]
    fn coarser_precision_has_bigger_step() {
        let fine = QuantParams::new(Precision::P8, 1.0);
        let coarse = QuantParams::new(Precision::P2, 1.0);
        assert!(coarse.step() > 10.0 * fine.step());
    }
}
