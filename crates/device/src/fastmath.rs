//! Branch-free transcendental kernels for the device model's hot loops,
//! written once over lane arrays.
//!
//! The transient solvers spend almost all of their time inside the drain
//! current kernel behind [`crate::model::MosParams::id_g`], whose cost is
//! four transcendental evaluations (`exp`, `ln_1p`, `powf`, `tanh`). The
//! system `libm` versions are precise but opaque to the compiler: they are
//! out-of-line calls with internal branches and table lookups, so a loop
//! over many device instances can neither inline nor vectorize them.
//!
//! This module provides straight-line, branch-free polynomial
//! implementations of exactly the functions the model needs, each generic
//! over a lane count `N`: it takes and returns `[f64; N]` and applies every
//! IEEE operation across all `N` lanes before the next one. At `N = 16`
//! that is four independent 4-wide vector chains per operation, which is
//! how the batch engine in `bpimc-circuit` evaluates a 16-sample cohort;
//! at `N = 1` it is the scalar path the reference solver takes. Lanes never
//! mix and vectorization only regroups IEEE operations without
//! reassociating them, so every width computes the **bit-identical** value
//! per lane. That bit-for-bit agreement between the scalar reference solver
//! and the batched engine is the property the workspace's reproducibility
//! tests pin.
//!
//! Accuracy is ~1 ulp-class (relative error `< 1e-14` over the domains the
//! device model exercises; see the tests), far below the 28 nm model's own
//! fidelity. **Domain contract:** arguments are finite; `ln`/`powf` take
//! positive *normal* inputs (the model guarantees this — effective
//! overdrives are floored well above the subnormal range); `exp` saturates
//! outside `[-700, 700]` instead of overflowing.

use std::array::from_fn;

/// log2(e), for the exp range reduction `x = k ln2 + r`.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// High part of ln2: the leading 33 mantissa bits (trailing bits zero, so
/// `k * LN2_HI` is exact for the `k` range the reduction produces).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// Low part of ln2 (`ln2 - LN2_HI`).
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `1.5 * 2^52`: adding it to an integral `|k| < 2^51` lands in the binade
/// whose unit in the last place is 1, so the sum's low mantissa bits hold
/// `k` in two's complement.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `exp`'s degree-12 Taylor coefficients, highest degree first.
const EXP_POLY: [f64; 13] = [
    1.0 / 479_001_600.0,
    1.0 / 39_916_800.0,
    1.0 / 3_628_800.0,
    1.0 / 362_880.0,
    1.0 / 40_320.0,
    1.0 / 5_040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    0.5,
    1.0,
    1.0,
];

/// `ln`'s odd `atanh` series in `w = s^2`, highest degree first.
const LN_POLY: [f64; 9] = [
    1.0 / 17.0,
    1.0 / 15.0,
    1.0 / 13.0,
    1.0 / 11.0,
    1.0 / 9.0,
    1.0 / 7.0,
    1.0 / 5.0,
    1.0 / 3.0,
    1.0,
];

/// Horner's rule at every lane: `coeffs` highest degree first, one fused
/// multiply-add per coefficient.
#[inline(always)]
fn horner<const N: usize>(coeffs: &[f64], x: [f64; N]) -> [f64; N] {
    let mut p = [coeffs[0]; N];
    for &c in &coeffs[1..] {
        p = from_fn(|j| p[j].mul_add(x[j], c));
    }
    p
}

/// `2^k` for integral `k` with `|k| <= 1022`, by exponent-field assembly.
///
/// The integer comes out of the mantissa of `k + 1.5 * 2^52` rather than
/// from `k as i64`: Rust's `as` saturates (and maps NaN to 0), and LLVM
/// lowers that to a scalar `cvttsd2si` plus compare-and-select fix-ups per
/// lane, which scalarizes every `exp` of a vectorized lane array. The
/// add-and-shift is plain lane arithmetic and exact for every `k` that
/// [`exp`]'s clamp allows (`|k| <= 1010`): the shift keeps only the low 12
/// bits of the biased sum, a zero sign bit above `k + 1023` in the exponent
/// field.
#[inline(always)]
fn exp2i<const N: usize>(k: [f64; N]) -> [f64; N] {
    from_fn(|j| f64::from_bits((k[j] + ROUND_MAGIC).to_bits().wrapping_add(1023) << 52))
}

/// `e^x`, saturating outside `[-700, 700]` (no overflow/underflow in the
/// device model's domain).
///
/// Range reduction to `|r| <= ln2 / 2` plus a degree-12 Taylor polynomial;
/// relative error `< 1e-15`.
#[inline(always)]
pub(crate) fn exp<const N: usize>(x: [f64; N]) -> [f64; N] {
    let x: [f64; N] = from_fn(|j| x[j].clamp(-700.0, 700.0));
    let k: [f64; N] = from_fn(|j| (x[j] * LOG2_E).round());
    let r: [f64; N] = from_fn(|j| (x[j] - k[j] * LN2_HI) - k[j] * LN2_LO);
    let p = horner(&EXP_POLY, r);
    let scale = exp2i(k);
    from_fn(|j| p[j] * scale[j])
}

/// Natural logarithm of a positive, normal, finite `x`.
///
/// Mantissa/exponent split with the pivot at `sqrt(2)` (so the reduced
/// argument is symmetric about 1), then the odd `atanh` series in
/// `s = (f-1)/(f+1)`, `|s| <= 0.1716`, up to `s^17`; relative error
/// `< 1e-15` away from 1 and absolute error `< 1e-17` near 1.
#[inline(always)]
pub(crate) fn ln<const N: usize>(x: [f64; N]) -> [f64; N] {
    let m: [f64; N] = from_fn(|j| {
        f64::from_bits((x[j].to_bits() & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000)
    });
    let big: [bool; N] = from_fn(|j| m[j] > std::f64::consts::SQRT_2);
    let f: [f64; N] = from_fn(|j| if big[j] { 0.5 * m[j] } else { m[j] });
    let e: [f64; N] = from_fn(|j| {
        let e_raw = ((x[j].to_bits() >> 52) & 0x7ff) as i64;
        (e_raw - 1023 + big[j] as i64) as f64
    });
    let s: [f64; N] = from_fn(|j| (f[j] - 1.0) / (f[j] + 1.0));
    let w: [f64; N] = from_fn(|j| s[j] * s[j]);
    let q = horner(&LN_POLY, w);
    from_fn(|j| e[j].mul_add(std::f64::consts::LN_2, 2.0 * s[j] * q[j]))
}

/// `ln(1 + z)` for `z > -1` with `1 + z` normal.
///
/// `ln(1+z)` through [`ln`] with the classic first-order correction for
/// the rounding of `1 + z`, which keeps small-`z` relative error at the
/// base kernels' level instead of losing half the mantissa.
#[inline(always)]
pub(crate) fn ln_1p<const N: usize>(z: [f64; N]) -> [f64; N] {
    let u: [f64; N] = from_fn(|j| 1.0 + z[j]);
    let l = ln(u);
    from_fn(|j| l[j] + (z[j] - (u[j] - 1.0)) / u[j])
}

/// The softplus `ln(1 + e^x)` — the model's smooth overdrive.
///
/// Computed as `max(x, 0) + ln_1p(e^{-|x|})`, which is exact in both
/// asymptotes and branch-free.
#[inline(always)]
pub(crate) fn softplus<const N: usize>(x: [f64; N]) -> [f64; N] {
    let tail = ln_1p(exp::<N>(from_fn(|j| -x[j].abs())));
    from_fn(|j| x[j].max(0.0) + tail[j])
}

/// `x^a` for positive normal `x`, as `exp(a ln x)` (the error of the
/// reduced-precision exponent `a ln x` dominates).
#[inline(always)]
pub(crate) fn powf<const N: usize>(x: [f64; N], a: [f64; N]) -> [f64; N] {
    let l = ln(x);
    exp::<N>(from_fn(|j| a[j] * l[j]))
}

/// `tanh(u)` for `u >= 0`, as `(1 - e^{-2u}) / (1 + e^{-2u})`. The mild
/// cancellation for tiny `u` is harmless here — the model multiplies the
/// result by a current that vanishes with `u` anyway.
#[inline(always)]
pub(crate) fn tanh_pos<const N: usize>(u: [f64; N]) -> [f64; N] {
    let t = exp::<N>(from_fn(|j| -2.0 * u[j]));
    from_fn(|j| (1.0 - t[j]) / (1.0 + t[j]))
}

#[cfg(test)]
mod tests {
    // The kernels at `N = 1`, the width the scalar solver runs.
    fn exp(x: f64) -> f64 {
        super::exp([x])[0]
    }
    fn exp2i(k: f64) -> f64 {
        super::exp2i([k])[0]
    }
    fn ln(x: f64) -> f64 {
        super::ln([x])[0]
    }
    fn ln_1p(z: f64) -> f64 {
        super::ln_1p([z])[0]
    }
    fn softplus(x: f64) -> f64 {
        super::softplus([x])[0]
    }
    fn powf(x: f64, a: f64) -> f64 {
        super::powf([x], [a])[0]
    }
    fn tanh_pos(u: f64) -> f64 {
        super::tanh_pos([u])[0]
    }

    fn rel(a: f64, b: f64) -> f64 {
        if b == 0.0 {
            a.abs()
        } else {
            ((a - b) / b).abs()
        }
    }

    #[test]
    fn exp_matches_std_over_the_model_domain() {
        let mut worst = 0.0f64;
        for i in 0..=120_000 {
            let x = -60.0 + i as f64 * 1e-3;
            worst = worst.max(rel(exp(x), x.exp()));
        }
        assert!(worst < 1e-14, "worst rel err {worst:.2e}");
    }

    #[test]
    fn exp2i_equals_integer_exponent_assembly_over_the_clamped_range() {
        // `exp`'s [-700, 700] clamp gives |round(x log2 e)| <= 1010.
        for k in -1010i64..=1010 {
            let want = f64::from_bits(((k + 1023) as u64) << 52);
            assert_eq!(exp2i(k as f64).to_bits(), want.to_bits(), "k = {k}");
        }
    }

    #[test]
    fn exp_saturates_instead_of_overflowing() {
        assert!(exp(1e9).is_finite());
        assert!(exp(-1e9) > 0.0);
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn ln_matches_std_for_positive_normals() {
        let mut worst = 0.0f64;
        for i in 0..=100_000 {
            // Log-spaced from 1e-300 to ~1e+4.
            let x = 1e-300 * (i as f64 * 7e-3).exp();
            if !x.is_normal() {
                continue;
            }
            let err = (ln(x) - x.ln()).abs() / x.ln().abs().max(1.0);
            worst = worst.max(err);
        }
        assert!(worst < 1e-15, "worst rel err {worst:.2e}");
    }

    #[test]
    fn ln_1p_keeps_precision_for_tiny_arguments() {
        for &z in &[1e-18, 1e-12, 1e-6, 0.1, 0.5, 1.0] {
            assert!(
                rel(ln_1p(z), z.ln_1p()) < 1e-14,
                "z = {z}: {} vs {}",
                ln_1p(z),
                z.ln_1p()
            );
        }
    }

    #[test]
    fn softplus_has_exact_asymptotes() {
        // Deep sub-threshold: softplus(x) -> ln(1 + e^x) ~ e^x.
        assert!(rel(softplus(-20.0), (-20.0f64).exp().ln_1p()) < 1e-13);
        // Strong inversion: softplus(x) -> x.
        assert!(rel(softplus(40.0), 40.0) < 1e-15);
        assert!(rel(softplus(0.0), std::f64::consts::LN_2) < 1e-15);
    }

    #[test]
    fn powf_matches_std_over_the_overdrive_range() {
        let mut worst = 0.0f64;
        for i in 1..=50_000 {
            let x = i as f64 * 4e-5; // (0, 2]
            worst = worst.max(rel(powf(x, 1.35), x.powf(1.35)));
        }
        assert!(worst < 1e-13, "worst rel err {worst:.2e}");
    }

    #[test]
    fn tanh_pos_matches_std() {
        let mut worst = 0.0f64;
        for i in 0..=50_000 {
            let u = i as f64 * 1e-3; // [0, 50]
            let t = u.tanh();
            if t > 0.0 {
                worst = worst.max(rel(tanh_pos(u), t));
            }
        }
        assert!(worst < 1e-13, "worst rel err {worst:.2e}");
        assert_eq!(tanh_pos(0.0), 0.0);
    }

    #[test]
    fn kernels_are_monotone_on_a_fine_grid() {
        // The device tests assert Id monotone in Vgs/Vds; the polynomial
        // kernels must not introduce local dips at range-reduction
        // boundaries at the granularity the model sees.
        let mut prev = 0.0;
        for i in 0..=400_000 {
            let x = -10.0 + i as f64 * 5e-5;
            let y = softplus(x);
            assert!(y >= prev, "softplus dip at x = {x}");
            prev = y;
        }
        let mut prev = -1.0;
        for i in 0..=200_000 {
            let u = i as f64 * 1e-4;
            let t = tanh_pos(u);
            assert!(t + 1e-15 >= prev, "tanh dip at u = {u}");
            prev = t;
        }
    }

    /// Every lane of an `N`-wide call against the one-lane call, for
    /// `N`-sized runs of `xs`.
    fn assert_lanes_match_scalar<const N: usize>(xs: &[f64]) {
        for c in xs.chunks_exact(N) {
            let x: [f64; N] = c.try_into().unwrap();
            let pos: [f64; N] = x.map(|x| x.abs() + 1e-3);
            let z: [f64; N] = x.map(|x| x.abs() - 0.5);
            let alpha: [f64; N] = x.map(|x| 1.0 + x.abs() * 0.01);
            let wide = [
                super::exp(x),
                super::ln(pos),
                super::ln_1p(z),
                super::softplus(x),
                super::powf(pos, alpha),
                super::tanh_pos(pos),
            ];
            for j in 0..N {
                let one = [
                    exp(x[j]),
                    ln(pos[j]),
                    ln_1p(z[j]),
                    softplus(x[j]),
                    powf(pos[j], alpha[j]),
                    tanh_pos(pos[j]),
                ];
                for (k, (w, o)) in wide.iter().zip(one).enumerate() {
                    assert_eq!(w[j].to_bits(), o.to_bits(), "kernel {k}, x = {}", x[j]);
                }
            }
        }
    }

    #[test]
    fn every_width_computes_the_one_lane_bits() {
        // 16 lanes (the batch engine's chunk) and an odd width, over
        // arguments spanning the kernels' domains, lane order shuffled so
        // neighbouring lanes take different range-reduction branches.
        let xs: Vec<f64> = (0..4800)
            .map(|i| (((i * 7919) % 4800) as f64 - 2400.0) * 0.0173)
            .collect();
        assert_lanes_match_scalar::<16>(&xs);
        assert_lanes_match_scalar::<3>(&xs);
    }
}
