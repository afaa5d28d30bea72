//! The MOSFET compact model: geometry + flavor + local mismatch.

use crate::env::Env;
use crate::fastmath;
use crate::params::ProcessLibrary;
use crate::types::{DeviceKind, VtFlavor};

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

    /// Threshold flavor.
    pub fn flavor(&self) -> VtFlavor {
        self.flavor
    }

    /// Drawn width in nanometres.
    pub fn w_nm(&self) -> f64 {
        self.w_nm
    }

    /// Drawn length in nanometres.
    pub fn l_nm(&self) -> f64 {
        self.l_nm
    }

    /// Local threshold shift in volts.
    pub fn dvt(&self) -> f64 {
        self.dvt
    }

    /// Aspect ratio W/L.
    pub fn aspect(&self) -> f64 {
        self.w_nm / self.l_nm
    }

    /// The effective threshold voltage (magnitude) at this operating point,
    /// including flavor, corner, temperature and local mismatch.
    pub fn vt(&self, env: &Env) -> f64 {
        ProcessLibrary::at(self.kind, self.flavor, env).vt0 + self.dvt
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
    pub fn sigma_vt(&self) -> f64 {
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
/// evaluated by [`Mosfet::ids_batch`]) — both paths run the identical
/// [`crate::fastmath`] kernel, so their results agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Device polarity (the solvers orient terminals with it).
    pub kind: DeviceKind,
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
    /// `d Id / d Vds` (siemens) at source-referenced voltage magnitudes.
    ///
    /// `vds <= 0` yields `(0, 0)` (the solvers orient terminals so `vds`
    /// is non-negative; exactly zero bias must carry no current).
    #[inline(always)]
    pub fn id_g(&self, vgs: f64, vds: f64) -> (f64, f64) {
        mos_id_g(
            self.vt,
            self.phi,
            self.keff,
            self.alpha,
            self.lambda,
            self.sat_frac,
            self.vdsat_min,
            vgs,
            vds,
        )
    }
}

/// Borrowed per-field parameter lanes for a run of device instances — the
/// structure-of-arrays view [`Mosfet::ids_batch`] evaluates over. All
/// slices have the same length (one element per instance).
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

impl Mosfet {
    /// Slice-based drain-current evaluation: computes current and output
    /// conductance for every instance `j` of one device position, reading
    /// `lanes.*[j]`, `vgs[j]`, `vds[j]` and writing `ids[j]`, `gs[j]`.
    ///
    /// The body is the same branch-free [`crate::fastmath`] arithmetic as
    /// [`MosParams::id_g`], laid out so the compiler vectorizes across
    /// instances; element `j` of the output is bit-identical to the scalar
    /// call with instance `j`'s parameters.
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
        for j in 0..n {
            let (i, g) = mos_id_g(
                lanes.vt[j],
                lanes.phi[j],
                lanes.keff[j],
                lanes.alpha[j],
                lanes.lambda[j],
                lanes.sat_frac[j],
                lanes.vdsat_min[j],
                vgs[j],
                vds[j],
            );
            ids[j] = i;
            gs[j] = g;
        }
    }
}

/// The one drain-current kernel every solver path runs: the smoothed
/// Sakurai-Newton alpha-power law (see [`Mosfet`]), written branch-free on
/// [`fastmath`] so batched loops vectorize and scalar calls stay
/// bit-identical to them.
#[allow(clippy::too_many_arguments)] // flattened on purpose: this is the SoA lane kernel
#[inline(always)]
fn mos_id_g(
    vt: f64,
    phi: f64,
    keff: f64,
    alpha: f64,
    lambda: f64,
    sat_frac: f64,
    vdsat_min: f64,
    vgs: f64,
    vds: f64,
) -> (f64, f64) {
    // Smooth overdrive: -> (vgs - vt) in strong inversion, exponential below.
    let veff = phi * fastmath::softplus((vgs - vt) / phi);
    let idsat = keff * fastmath::powf(veff, alpha);
    let vdsat = (sat_frac * veff).max(vdsat_min);
    let th = fastmath::tanh_pos(vds / vdsat);
    let clm = 1.0 + lambda * vds;
    // Zero drain bias (or a mis-oriented caller) carries no current; the
    // multiplicative mask keeps the kernel branch-free.
    let live = (vds > 0.0) as u64 as f64;
    let i = idsat * th * clm * live;
    let g = idsat * ((1.0 - th * th) / vdsat * clm + th * lambda) * live;
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
        let e = env();
        let n = 37; // odd on purpose: exercises any vector remainder
        let devs: Vec<Mosfet> = (0..n)
            .map(|i| {
                let flavor = [VtFlavor::Rvt, VtFlavor::Lvt, VtFlavor::Hvt][i % 3];
                Mosfet::nmos(flavor, 80.0 + i as f64, 30.0).with_dvt(i as f64 * 1e-3 - 0.02)
            })
            .collect();
        let params: Vec<MosParams> = devs.iter().map(|d| MosParams::compile(d, &e)).collect();
        let vt: Vec<f64> = params.iter().map(|p| p.vt).collect();
        let phi: Vec<f64> = params.iter().map(|p| p.phi).collect();
        let keff: Vec<f64> = params.iter().map(|p| p.keff).collect();
        let alpha: Vec<f64> = params.iter().map(|p| p.alpha).collect();
        let lambda: Vec<f64> = params.iter().map(|p| p.lambda).collect();
        let sat_frac: Vec<f64> = params.iter().map(|p| p.sat_frac).collect();
        let vdsat_min: Vec<f64> = params.iter().map(|p| p.vdsat_min).collect();
        let vgs: Vec<f64> = (0..n).map(|i| -0.1 + i as f64 * 0.03).collect();
        let vds: Vec<f64> = (0..n).map(|i| i as f64 * 0.025).collect();
        let mut ids = vec![0.0; n];
        let mut gs = vec![0.0; n];
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
            assert_eq!(i.to_bits(), ids[j].to_bits(), "id lane {j}");
            assert_eq!(g.to_bits(), gs[j].to_bits(), "g lane {j}");
        }
    }

    #[test]
    fn caps_are_femtofarad_scale() {
        let m = Mosfet::nmos(VtFlavor::Rvt, 100.0, 30.0);
        assert!(m.gate_cap() > 1e-17 && m.gate_cap() < 1e-15);
        assert!(m.drain_cap() > 1e-17 && m.drain_cap() < 1e-15);
    }
}
