//! Process parameter tables for the behavioral 28 nm library.

use crate::env::Env;
use crate::types::{DeviceKind, VtFlavor};

#[cfg(test)]
use crate::types::Corner;

/// Electrical parameters of one device type at one operating point.
///
/// All parameters are in SI units (volts, amperes, farads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DeviceParams {
    /// Zero-bias threshold voltage (magnitude) in volts.
    pub(crate) vt0: f64,
    /// Transconductance coefficient: `Id = kp * (W/L) * veff^alpha * f(Vds)`.
    pub(crate) kp: f64,
    /// Velocity-saturation exponent (Sakurai-Newton alpha), ~1.3 at 28 nm.
    pub(crate) alpha: f64,
    /// Sub-threshold slope factor `n` (swing = n * kT/q * ln 10).
    pub(crate) nsub: f64,
    /// Channel-length modulation coefficient (1/V).
    pub(crate) lambda: f64,
    /// Fraction of the effective overdrive at which the drain saturates
    /// (`Vdsat = sat_frac * veff`, floored at `vdsat_min`).
    pub(crate) sat_frac: f64,
    /// Minimum saturation voltage in volts (keeps `tanh(Vds/Vdsat)` sane in
    /// sub-threshold where `veff` is tiny).
    pub(crate) vdsat_min: f64,
    /// Gate capacitance per gate area, F/m^2.
    pub(crate) cox: f64,
    /// Pelgrom mismatch coefficient `A_vt` in V*m (sigma_vt = A_vt/sqrt(WL)).
    pub(crate) avt: f64,
}

/// The behavioral 28 nm process library.
///
/// Exposes per-(kind, flavor) parameters adjusted for corner and temperature.
/// Numbers are representative of published 28 nm HKMG data: RVT |VT| ~ 0.4 V,
/// LVT ~ 130 mV lower, corner shift +/- 35 mV, A_vt ~ 1.8 mV*um.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ProcessLibrary;

impl ProcessLibrary {
    /// Corner threshold shift magnitude (V). Slow = +shift, fast = -shift.
    pub(crate) const CORNER_DVT: f64 = 0.035;
    /// Corner transconductance factor. Slow = 1-x, fast = 1+x.
    pub(crate) const CORNER_DKP: f64 = 0.08;
    /// VT temperature coefficient (V/K); VT falls as temperature rises.
    pub(crate) const VT_TEMP_COEFF: f64 = -0.7e-3;
    /// Mobility temperature exponent: kp ~ (T0/T)^1.4.
    pub(crate) const MOBILITY_TEMP_EXP: f64 = 1.4;

    /// Base (NN corner, 25 C) parameters for one device type.
    pub(crate) fn base(kind: DeviceKind, flavor: VtFlavor) -> DeviceParams {
        let (vt0, kp) = match kind {
            DeviceKind::Nmos => (0.44, 3.6e-5),
            DeviceKind::Pmos => (0.40, 1.9e-5),
        };
        let dvt_flavor = match flavor {
            VtFlavor::Rvt => 0.0,
            VtFlavor::Lvt => -0.13,
            VtFlavor::Hvt => 0.10,
        };
        // LVT devices trade leakage for drive: slightly stronger kp.
        let kp_flavor = match flavor {
            VtFlavor::Rvt => 1.0,
            VtFlavor::Lvt => 1.05,
            VtFlavor::Hvt => 0.95,
        };
        DeviceParams {
            vt0: vt0 + dvt_flavor,
            kp: kp * kp_flavor,
            alpha: 1.35,
            nsub: 1.35,
            lambda: 0.06,
            sat_frac: 0.55,
            vdsat_min: 0.06,
            cox: 0.030,  // 30 fF/um^2
            avt: 1.8e-9, // 1.8 mV*um in V*m
        }
    }

    /// Parameters adjusted for the environment's corner and temperature.
    pub(crate) fn at(kind: DeviceKind, flavor: VtFlavor, env: &Env) -> DeviceParams {
        let mut p = Self::base(kind, flavor);
        let skew = match kind {
            DeviceKind::Nmos => env.corner.nmos_skew(),
            DeviceKind::Pmos => env.corner.pmos_skew(),
        };
        // Fast corner: lower VT, higher kp. Slow corner: the opposite.
        p.vt0 -= skew * Self::CORNER_DVT;
        p.kp *= 1.0 + skew * Self::CORNER_DKP;
        // Temperature.
        let dt = env.temp_c - 25.0;
        p.vt0 += Self::VT_TEMP_COEFF * dt;
        p.kp *= (298.15_f64 / env.temp_k()).powf(Self::MOBILITY_TEMP_EXP);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lvt_is_lower_threshold() {
        let rvt = ProcessLibrary::base(DeviceKind::Nmos, VtFlavor::Rvt);
        let lvt = ProcessLibrary::base(DeviceKind::Nmos, VtFlavor::Lvt);
        let hvt = ProcessLibrary::base(DeviceKind::Nmos, VtFlavor::Hvt);
        assert!(lvt.vt0 < rvt.vt0);
        assert!(hvt.vt0 > rvt.vt0);
    }

    #[test]
    fn corners_shift_vt_in_the_right_direction() {
        let nominal = Env::nominal();
        let ss = nominal.with_corner(Corner::Ss);
        let ff = nominal.with_corner(Corner::Ff);
        let p_nn = ProcessLibrary::at(DeviceKind::Nmos, VtFlavor::Rvt, &nominal);
        let p_ss = ProcessLibrary::at(DeviceKind::Nmos, VtFlavor::Rvt, &ss);
        let p_ff = ProcessLibrary::at(DeviceKind::Nmos, VtFlavor::Rvt, &ff);
        assert!(p_ss.vt0 > p_nn.vt0 && p_nn.vt0 > p_ff.vt0);
        assert!(p_ss.kp < p_nn.kp && p_nn.kp < p_ff.kp);
    }

    #[test]
    fn skewed_corners_split_polarity() {
        let sf = Env::nominal().with_corner(Corner::Sf);
        let n = ProcessLibrary::at(DeviceKind::Nmos, VtFlavor::Rvt, &sf);
        let p = ProcessLibrary::at(DeviceKind::Pmos, VtFlavor::Rvt, &sf);
        let n_nn = ProcessLibrary::at(DeviceKind::Nmos, VtFlavor::Rvt, &Env::nominal());
        let p_nn = ProcessLibrary::at(DeviceKind::Pmos, VtFlavor::Rvt, &Env::nominal());
        assert!(n.vt0 > n_nn.vt0, "slow NMOS has raised VT");
        assert!(p.vt0 < p_nn.vt0, "fast PMOS has lowered VT");
    }

    #[test]
    fn hot_devices_are_weaker_in_strong_inversion() {
        let hot = Env {
            temp_c: 125.0,
            ..Env::nominal()
        };
        let p_hot = ProcessLibrary::at(DeviceKind::Nmos, VtFlavor::Rvt, &hot);
        let p_cold = ProcessLibrary::at(DeviceKind::Nmos, VtFlavor::Rvt, &Env::nominal());
        assert!(p_hot.kp < p_cold.kp);
        assert!(p_hot.vt0 < p_cold.vt0, "VT drops with temperature");
    }
}
