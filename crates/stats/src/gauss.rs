//! Standard normal CDF and quantile function.
//!
//! Implemented from standard published rational approximations so the
//! workspace carries no special-function dependency:
//!
//! * `norm_cdf` uses the complementary error function of W. J. Cody's
//!   rational-approximation family (abs. error < 1.2e-7, ample for
//!   failure-rate work at the 1e-7 level),
//! * `inv_norm_cdf` uses Acklam's algorithm with one Halley refinement step,
//!   giving ~1e-9 relative accuracy over (0, 1).

/// The error function `erf(x)`, Abramowitz & Stegun 7.1.26 style rational
/// approximation with |error| < 1.5e-7.
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function `P(Z <= z)`.
///
/// # Examples
///
/// ```
/// let p = bpimc_stats::norm_cdf(0.0);
/// assert!((p - 0.5).abs() < 1e-7);
/// ```
pub fn norm_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Upper-tail probability `P(Z > z)` computed stably for large `z`.
///
/// For `z > 6` the rational `erf` approximation underflows its useful range,
/// so the asymptotic expansion `phi(z)/z * (1 - 1/z^2 + 3/z^4)` is used
/// instead; this keeps tail extrapolation accurate down to ~1e-12.
pub(crate) fn norm_sf(z: f64) -> f64 {
    if z > 6.0 {
        let phi = (-0.5 * z * z).exp() / (std::f64::consts::TAU).sqrt();
        phi / z * (1.0 - 1.0 / (z * z) + 3.0 / (z * z * z * z))
    } else if z < -6.0 {
        1.0 - norm_sf(-z)
    } else {
        1.0 - norm_cdf(z)
    }
}

/// Standard normal quantile function (inverse CDF), Acklam's algorithm with a
/// single Halley refinement step.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// # Examples
///
/// ```
/// let z = bpimc_stats::inv_norm_cdf(0.975);
/// assert!((z - 1.959964).abs() < 1e-4);
/// ```
pub fn inv_norm_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step against the CDF residual. Only worthwhile in the
    // central region: in the tails the rational-erf CDF error (~1.5e-7) is
    // amplified by exp(x^2/2) and would *degrade* Acklam's ~1e-9 raw result.
    if (0.01..=0.99).contains(&p) {
        let e = norm_cdf(x) - p;
        let u = e * (std::f64::consts::TAU).sqrt() * (0.5 * x * x).exp();
        x - u / (1.0 + x * u / 2.0)
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_known_points() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.0) - 0.841345).abs() < 1e-4);
        assert!((norm_cdf(-1.0) - 0.158655).abs() < 1e-4);
        assert!((norm_cdf(2.0) - 0.977250).abs() < 1e-4);
    }

    #[test]
    fn sf_matches_cdf_in_core_range() {
        for z in [-3.0, -1.0, 0.0, 0.5, 2.0, 5.0] {
            assert!((norm_sf(z) - (1.0 - norm_cdf(z))).abs() < 1e-7, "z={z}");
        }
    }

    #[test]
    fn sf_deep_tail_is_sane() {
        // P(Z > 7) ~ 1.28e-12; the asymptotic branch should be within 10%.
        let p = norm_sf(7.0);
        assert!(p > 1.0e-12 && p < 1.5e-12, "p {p}");
        // Monotone decreasing in the tail.
        assert!(norm_sf(6.5) > norm_sf(7.0));
    }

    #[test]
    fn quantile_round_trips() {
        for p in [1e-6, 1e-4, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-6] {
            let z = inv_norm_cdf(p);
            let back = norm_cdf(z);
            assert!((back - p).abs() < 2e-7, "p={p} z={z} back={back}");
        }
    }

    #[test]
    fn quantile_known_values() {
        assert!(inv_norm_cdf(0.5).abs() < 1e-8);
        assert!((inv_norm_cdf(2.5e-5) + 4.0556).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "p must be in (0,1)")]
    fn quantile_rejects_zero() {
        let _ = inv_norm_cdf(0.0);
    }
}
