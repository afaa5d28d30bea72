//! The MOSFET compact model: geometry + flavor + local mismatch.

use crate::env::Env;
use crate::fastmath;
use crate::params::ProcessLibrary;
use crate::types::{DeviceKind, VtFlavor};
use std::array::from_fn;

/// A sized MOSFET instance.
///
/// The drain-current model is a smoothed Sakurai-Newton alpha-power law with
/// an EKV-style soft overdrive that degrades gracefully into sub-threshold:
///
/// ```text
/// veff = 2 n vT ln(1 + exp((Vgs - VT) / (2 n vT)))    // smooth overdrive
/// Idsat = kp (W/L) veff^alpha
/// Id = Idsat * tanh(Vds / Vdsat) * (1 + lambda Vds)   // triode/sat blend
/// ```
///
/// Voltages passed to [`Mosfet::id`] are *magnitudes* relative to the source
/// (a PMOS caller passes `|Vgs|`, `|Vds|`); the circuit solver orients
/// terminals, which also makes bidirectional pass-transistor conduction (the
/// 6T access devices) come out naturally.
///
/// # Examples
///
/// ```
/// use bpimc_device::{Env, Mosfet, VtFlavor};
/// let m = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
/// let env = Env::nominal();
/// // Monotone in Vgs.
/// assert!(m.id(0.9, 0.9, &env) > m.id(0.7, 0.9, &env));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    kind: DeviceKind,
    flavor: VtFlavor,
    w_nm: f64,
    l_nm: f64,
    /// Local threshold shift from mismatch sampling (V, magnitude space).
    dvt: f64,
}

impl Mosfet {
    /// Creates an NMOS with the given flavor and drawn W/L in nanometres.
    ///
    /// # Panics
    ///
    /// Panics if `w_nm` or `l_nm` is not positive.
    pub fn nmos(flavor: VtFlavor, w_nm: f64, l_nm: f64) -> Self {
        Self::new(DeviceKind::Nmos, flavor, w_nm, l_nm)
    }

    /// Creates a PMOS with the given flavor and drawn W/L in nanometres.
    ///
    /// # Panics
    ///
    /// Panics if `w_nm` or `l_nm` is not positive.
    pub fn pmos(flavor: VtFlavor, w_nm: f64, l_nm: f64) -> Self {
        Self::new(DeviceKind::Pmos, flavor, w_nm, l_nm)
    }

    fn new(kind: DeviceKind, flavor: VtFlavor, w_nm: f64, l_nm: f64) -> Self {
        assert!(
            w_nm > 0.0 && l_nm > 0.0,
            "W/L must be positive: {w_nm}/{l_nm}"
        );
        Self {
            kind,
            flavor,
            w_nm,
            l_nm,
            dvt: 0.0,
        }
    }

    /// Returns a copy with an explicit local threshold shift (volts).
    ///
    /// Positive `dvt` always makes the device *weaker* regardless of
    /// polarity (the shift is applied in magnitude space).
    pub fn with_dvt(mut self, dvt: f64) -> Self {
        self.dvt = dvt;
        self
    }

    /// Device polarity.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Local threshold shift in volts.
    pub fn dvt(&self) -> f64 {
        self.dvt
    }

    /// Aspect ratio W/L.
    pub(crate) fn aspect(&self) -> f64 {
        self.w_nm / self.l_nm
    }

    /// Drain current magnitude in amperes for source-referenced voltage
    /// magnitudes `vgs` and `vds` (both may be any sign; conduction requires
    /// positive `vds`, and negative `vgs` simply lands deep in
    /// sub-threshold).
    pub fn id(&self, vgs: f64, vds: f64, env: &Env) -> f64 {
        MosParams::compile(self, env).id_g(vgs, vds).0
    }

    /// Gate capacitance estimate in farads (oxide + ~30% overlap/fringe).
    pub fn gate_cap(&self) -> f64 {
        let p = ProcessLibrary::base(self.kind, self.flavor);
        let area_m2 = (self.w_nm * 1e-9) * (self.l_nm * 1e-9);
        1.3 * p.cox * area_m2
    }

    /// Drain junction/diffusion capacitance estimate in farads.
    ///
    /// A simple per-width figure (~0.6 fF/um) adequate for loading hand-built
    /// nets like the BL mirror node.
    pub fn drain_cap(&self) -> f64 {
        0.6e-15 * (self.w_nm / 1000.0)
    }

    /// Pelgrom sigma of the local threshold for this geometry (volts).
    pub(crate) fn sigma_vt(&self) -> f64 {
        let p = ProcessLibrary::base(self.kind, self.flavor);
        let area_m2 = (self.w_nm * 1e-9) * (self.l_nm * 1e-9);
        p.avt / area_m2.sqrt()
    }
}

/// A MOSFET instance flattened to the electrical parameters its drain
/// current depends on, at one operating environment — the form every hot
/// loop wants.
///
/// Compiling a [`Mosfet`] resolves the process-library lookup, the corner
/// and temperature adjustments, the mismatch shift and the geometry once;
/// [`MosParams::id_g`] is then pure arithmetic. The transient solvers in
/// `bpimc-circuit` compile each device up front (the scalar solver into one
/// `MosParams` per device, the batch engine into per-field parameter arrays
/// evaluated through [`MosParamsLanes::id_g`]) — both paths run the one
/// lane-generic `fastmath` kernel, so their results agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Device polarity (the solvers orient terminals with it).
    pub(crate) kind: DeviceKind,
    /// Effective threshold (magnitude), including flavor, corner,
    /// temperature and local mismatch, volts.
    pub vt: f64,
    /// Smooth-overdrive knee width `2 n vT`, volts.
    pub phi: f64,
    /// `kp * W/L`.
    pub keff: f64,
    /// Velocity-saturation exponent.
    pub alpha: f64,
    /// Channel-length modulation, 1/V.
    pub lambda: f64,
    /// `Vdsat = sat_frac * veff`, floored at `vdsat_min`.
    pub sat_frac: f64,
    /// Saturation-voltage floor, volts.
    pub vdsat_min: f64,
}

impl MosParams {
    /// Flattens `dev` at environment `env`.
    pub fn compile(dev: &Mosfet, env: &Env) -> Self {
        let p = ProcessLibrary::at(dev.kind, dev.flavor, env);
        Self {
            kind: dev.kind,
            vt: p.vt0 + dev.dvt,
            phi: 2.0 * p.nsub * env.thermal_voltage(),
            keff: p.kp * dev.aspect(),
            alpha: p.alpha,
            lambda: p.lambda,
            sat_frac: p.sat_frac,
            vdsat_min: p.vdsat_min,
        }
    }

    /// Drain current magnitude (amperes) and output conductance
    /// `d Id / d Vds` (siemens) at source-referenced voltage magnitudes:
    /// the lane kernel at one lane.
    ///
    /// `vds <= 0` yields `(0, 0)` (the solvers orient terminals so `vds`
    /// is non-negative; exactly zero bias must carry no current).
    #[inline(always)]
    pub fn id_g(&self, vgs: f64, vds: f64) -> (f64, f64) {
        let ([i], [g]) = mos_id_g::<1, true>(
            &[self.vt],
            &[self.phi],
            &[self.keff],
            &[self.alpha],
            &[self.lambda],
            &[self.sat_frac],
            &[self.vdsat_min],
            [vgs],
            [vds],
        );
        (i, g)
    }
}

/// Borrowed per-field parameter lanes for a run of device instances — the
/// structure-of-arrays view the lane kernel reads its operands from. All
/// slices have the same length (one element per instance; the batch engine
/// lays every device position's instances end to end).
#[derive(Debug, Clone, Copy)]
pub struct MosParamsLanes<'a> {
    /// Effective thresholds, volts.
    pub vt: &'a [f64],
    /// Smooth-overdrive knee widths, volts.
    pub phi: &'a [f64],
    /// `kp * W/L` per instance.
    pub keff: &'a [f64],
    /// Velocity-saturation exponents.
    pub alpha: &'a [f64],
    /// Channel-length modulation, 1/V.
    pub lambda: &'a [f64],
    /// Saturation fractions.
    pub sat_frac: &'a [f64],
    /// Saturation-voltage floors, volts.
    pub vdsat_min: &'a [f64],
}

impl<'a> MosParamsLanes<'a> {
    /// The lane kernel on instances `at..at + N`: drain currents and, when
    /// `G`, output conductances (all zero otherwise, and not computed).
    /// Lane `j` is bit-identical to [`MosParams::id_g`] with instance
    /// `at + j`'s parameters and `vgs[j]`, `vds[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `at + N` exceeds a slice's length.
    #[inline(always)]
    pub fn id_g<const N: usize, const G: bool>(
        &self,
        at: usize,
        vgs: [f64; N],
        vds: [f64; N],
    ) -> ([f64; N], [f64; N]) {
        let lanes = |xs: &'a [f64]| -> &'a [f64; N] {
            xs[at..]
                .first_chunk()
                .expect("lane range inside the parameter slices")
        };
        mos_id_g::<N, G>(
            lanes(self.vt),
            lanes(self.phi),
            lanes(self.keff),
            lanes(self.alpha),
            lanes(self.lambda),
            lanes(self.sat_frac),
            lanes(self.vdsat_min),
            vgs,
            vds,
        )
    }
}

/// Lanes per kernel call in [`Mosfet::ids_batch`]: four independent 4-wide
/// vector chains per operation, the batch engine's chunk width.
const IDS_LANES: usize = 16;

impl Mosfet {
    /// Slice-based drain-current evaluation: computes current and output
    /// conductance for every instance `j` of one device position, reading
    /// `lanes.*[j]`, `vgs[j]`, `vds[j]` and writing `ids[j]`, `gs[j]`.
    ///
    /// Runs the lane kernel on 16-lane chunks and the remainder one lane
    /// at a time; element `j` of the output is bit-identical to the scalar
    /// call [`MosParams::id_g`] with instance `j`'s parameters.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree.
    pub fn ids_batch(
        lanes: &MosParamsLanes<'_>,
        vgs: &[f64],
        vds: &[f64],
        ids: &mut [f64],
        gs: &mut [f64],
    ) {
        let n = ids.len();
        assert!(
            [
                lanes.vt.len(),
                lanes.phi.len(),
                lanes.keff.len(),
                lanes.alpha.len(),
                lanes.lambda.len(),
                lanes.sat_frac.len(),
                lanes.vdsat_min.len(),
                vgs.len(),
                vds.len(),
                gs.len(),
            ]
            .iter()
            .all(|&l| l == n),
            "ids_batch slices must share one length"
        );
        fn chunk<const N: usize>(
            lanes: &MosParamsLanes<'_>,
            at: usize,
            vgs: &[f64],
            vds: &[f64],
            ids: &mut [f64],
            gs: &mut [f64],
        ) {
            let load = |xs: &[f64]| -> [f64; N] { *xs[at..].first_chunk().expect("in range") };
            let (i, g) = lanes.id_g::<N, true>(at, load(vgs), load(vds));
            ids[at..at + N].copy_from_slice(&i);
            gs[at..at + N].copy_from_slice(&g);
        }
        let full = n - n % IDS_LANES;
        for at in (0..full).step_by(IDS_LANES) {
            chunk::<IDS_LANES>(lanes, at, vgs, vds, ids, gs);
        }
        for at in full..n {
            chunk::<1>(lanes, at, vgs, vds, ids, gs);
        }
    }
}

/// The one drain-current kernel every solver path runs: the smoothed
/// Sakurai-Newton alpha-power law (see [`Mosfet`]), written branch-free on
/// [`fastmath`]'s lane arrays, each operation across all `N` lanes before
/// the next. `N = 1` is the scalar path ([`MosParams::id_g`]); the batch
/// engine runs `N = 16`. Without `G` the conductance is neither computed
/// nor returned (zeros stand in).
#[allow(clippy::too_many_arguments)] // flattened on purpose: this is the SoA lane kernel
#[inline(always)]
fn mos_id_g<const N: usize, const G: bool>(
    vt: &[f64; N],
    phi: &[f64; N],
    keff: &[f64; N],
    alpha: &[f64; N],
    lambda: &[f64; N],
    sat_frac: &[f64; N],
    vdsat_min: &[f64; N],
    vgs: [f64; N],
    vds: [f64; N],
) -> ([f64; N], [f64; N]) {
    // Smooth overdrive: -> (vgs - vt) in strong inversion, exponential below.
    let soft = fastmath::softplus::<N>(from_fn(|j| (vgs[j] - vt[j]) / phi[j]));
    let veff: [f64; N] = from_fn(|j| phi[j] * soft[j]);
    let pow = fastmath::powf(veff, *alpha);
    let idsat: [f64; N] = from_fn(|j| keff[j] * pow[j]);
    let vdsat: [f64; N] = from_fn(|j| (sat_frac[j] * veff[j]).max(vdsat_min[j]));
    let th = fastmath::tanh_pos::<N>(from_fn(|j| vds[j] / vdsat[j]));
    let clm: [f64; N] = from_fn(|j| 1.0 + lambda[j] * vds[j]);
    // Zero drain bias (or a mis-oriented caller) carries no current; the
    // multiplicative mask keeps the kernel branch-free.
    let live: [f64; N] = from_fn(|j| (vds[j] > 0.0) as u64 as f64);
    let i: [f64; N] = from_fn(|j| idsat[j] * th[j] * clm[j] * live[j]);
    let g = if G {
        from_fn(|j| {
            idsat[j] * ((1.0 - th[j] * th[j]) / vdsat[j] * clm[j] + th[j] * lambda[j]) * live[j]
        })
    } else {
        [0.0; N]
    };
    (i, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Corner;

    fn env() -> Env {
        Env::nominal()
    }

    #[test]
    fn on_current_magnitude_is_plausible() {
        // A 28 nm cell access device should carry tens of microamperes.
        let m = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
        let i = m.id(0.9, 0.9, &env());
        assert!(i > 10e-6 && i < 200e-6, "Ion = {i}");
    }

    #[test]
    fn leakage_is_orders_of_magnitude_below_on_current() {
        let m = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
        let ion = m.id(0.9, 0.9, &env());
        let ioff = m.id(0.0, 0.9, &env());
        assert!(ioff < 1e-4 * ion, "Ion {ion}, Ioff {ioff}");
        assert!(ioff > 0.0, "sub-threshold conduction should not be zero");
    }

    #[test]
    fn no_conduction_without_drain_bias() {
        let m = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
        assert_eq!(m.id(0.9, 0.0, &env()), 0.0);
        assert_eq!(m.id(0.9, -0.5, &env()), 0.0);
    }

    #[test]
    fn monotone_in_vgs_and_vds() {
        let m = Mosfet::nmos(VtFlavor::Rvt, 120.0, 30.0);
        let e = env();
        let mut prev = 0.0;
        for i in 0..=20 {
            let vgs = i as f64 * 0.05;
            let id = m.id(vgs, 0.9, &e);
            assert!(id >= prev, "Id must be monotone in Vgs at vgs={vgs}");
            prev = id;
        }
        let mut prev = 0.0;
        for i in 0..=20 {
            let vds = i as f64 * 0.05;
            let id = m.id(0.9, vds, &e);
            assert!(id >= prev, "Id must be monotone in Vds at vds={vds}");
            prev = id;
        }
    }

    #[test]
    fn lvt_beats_rvt_at_low_overdrive() {
        let rvt = Mosfet::nmos(VtFlavor::Rvt, 100.0, 30.0);
        let lvt = Mosfet::nmos(VtFlavor::Lvt, 100.0, 30.0);
        // At a small gate bias the LVT device conducts much more.
        let e = env();
        assert!(lvt.id(0.45, 0.9, &e) > 2.0 * rvt.id(0.45, 0.9, &e));
    }

    #[test]
    fn mismatch_shift_weakens_or_strengthens() {
        let m = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
        let weak = m.with_dvt(0.05);
        let strong = m.with_dvt(-0.05);
        let e = env();
        assert!(weak.id(0.6, 0.9, &e) < m.id(0.6, 0.9, &e));
        assert!(strong.id(0.6, 0.9, &e) > m.id(0.6, 0.9, &e));
    }

    #[test]
    fn corner_current_ordering() {
        let m = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
        let ss = m.id(0.9, 0.9, &env().with_corner(Corner::Ss));
        let nn = m.id(0.9, 0.9, &env());
        let ff = m.id(0.9, 0.9, &env().with_corner(Corner::Ff));
        assert!(ss < nn && nn < ff);
    }

    #[test]
    fn pmos_weaker_than_nmos_at_same_size() {
        let n = Mosfet::nmos(VtFlavor::Rvt, 100.0, 30.0);
        let p = Mosfet::pmos(VtFlavor::Rvt, 100.0, 30.0);
        let e = env();
        assert!(p.id(0.9, 0.9, &e) < n.id(0.9, 0.9, &e));
    }

    #[test]
    fn sigma_vt_scales_with_area() {
        let small = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
        let big = Mosfet::nmos(VtFlavor::Rvt, 360.0, 30.0);
        assert!((small.sigma_vt() / big.sigma_vt() - 2.0).abs() < 1e-9);
        // ~ 35 mV for a minimal cell transistor: the well-known 28 nm figure.
        assert!(small.sigma_vt() > 0.02 && small.sigma_vt() < 0.05);
    }

    #[test]
    fn compiled_params_match_the_device_model() {
        let e = env();
        for dev in [
            Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0).with_dvt(0.02),
            Mosfet::pmos(VtFlavor::Lvt, 200.0, 30.0).with_dvt(-0.03),
        ] {
            let p = MosParams::compile(&dev, &e);
            for i in 0..=12 {
                for j in 0..=12 {
                    let vgs = i as f64 * 0.1 - 0.2;
                    let vds = j as f64 * 0.1;
                    let a = dev.id(vgs, vds, &e);
                    let b = p.id_g(vgs, vds).0;
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "id mismatch at vgs={vgs} vds={vds}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn ids_batch_is_bit_identical_to_scalar_id_g() {
        // Lengths below, at and past one 16-lane chunk, and two chunks plus
        // a tail; lanes cycle through reversed (`vds < 0`) and zero drain
        // bias and gates far below threshold among ordinary biases.
        let e = env();
        for n in [1, 15, 16, 17, 33] {
            let devs: Vec<Mosfet> = (0..n)
                .map(|i| {
                    let flavor = [VtFlavor::Rvt, VtFlavor::Lvt, VtFlavor::Hvt][i % 3];
                    Mosfet::nmos(flavor, 80.0 + i as f64, 30.0).with_dvt(i as f64 * 1e-3 - 0.02)
                })
                .collect();
            let params: Vec<MosParams> = devs.iter().map(|d| MosParams::compile(d, &e)).collect();
            let field = |f: fn(&MosParams) -> f64| params.iter().map(f).collect::<Vec<f64>>();
            let (vt, phi, keff) = (field(|p| p.vt), field(|p| p.phi), field(|p| p.keff));
            let (alpha, lambda) = (field(|p| p.alpha), field(|p| p.lambda));
            let (sat_frac, vdsat_min) = (field(|p| p.sat_frac), field(|p| p.vdsat_min));
            let vgs: Vec<f64> = (0..n)
                .map(|i| match i % 5 {
                    3 => -0.8, // far below threshold: deep sub-threshold
                    _ => -0.1 + i as f64 * 0.03,
                })
                .collect();
            let vds: Vec<f64> = (0..n)
                .map(|i| match i % 4 {
                    1 => -0.05 - i as f64 * 0.01, // reversed
                    2 => 0.0,
                    _ => i as f64 * 0.025 + 0.01,
                })
                .collect();
            let mut ids = vec![f64::NAN; n];
            let mut gs = vec![f64::NAN; n];
            let lanes = MosParamsLanes {
                vt: &vt,
                phi: &phi,
                keff: &keff,
                alpha: &alpha,
                lambda: &lambda,
                sat_frac: &sat_frac,
                vdsat_min: &vdsat_min,
            };
            Mosfet::ids_batch(&lanes, &vgs, &vds, &mut ids, &mut gs);
            for j in 0..n {
                let (i, g) = params[j].id_g(vgs[j], vds[j]);
                assert_eq!(i.to_bits(), ids[j].to_bits(), "n = {n}, id lane {j}");
                assert_eq!(g.to_bits(), gs[j].to_bits(), "n = {n}, g lane {j}");
                if vds[j] <= 0.0 {
                    assert_eq!((i, g), (0.0, 0.0), "n = {n}, lane {j} carries no current");
                }
            }
        }
    }

    #[test]
    fn caps_are_femtofarad_scale() {
        let m = Mosfet::nmos(VtFlavor::Rvt, 100.0, 30.0);
        assert!(m.gate_cap() > 1e-17 && m.gate_cap() < 1e-15);
        assert!(m.drain_cap() > 1e-17 && m.drain_cap() < 1e-15);
    }
}
