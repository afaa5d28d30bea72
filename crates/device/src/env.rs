//! Operating environment: supply voltage, temperature and process corner.

use crate::types::Corner;

/// The global operating point shared by all devices in a simulation.
///
/// # Examples
///
/// ```
/// use bpimc_device::{Corner, Env};
/// let env = Env::new(0.9, 25.0, Corner::Nn);
/// assert_eq!(env, Env::nominal());
/// let ff = Env::nominal().with_corner(Corner::Ff).with_vdd(1.1);
/// assert_eq!(ff.vdd, 1.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Env {
    /// Supply voltage in volts. The paper sweeps 0.6 V - 1.1 V.
    pub vdd: f64,
    /// Junction temperature in degrees Celsius.
    pub(crate) temp_c: f64,
    /// Global process corner.
    pub corner: Corner,
}

impl Env {
    /// Creates an environment.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not positive or not finite.
    pub fn new(vdd: f64, temp_c: f64, corner: Corner) -> Self {
        assert!(
            vdd.is_finite() && vdd > 0.0,
            "vdd must be positive, got {vdd}"
        );
        assert!(temp_c.is_finite(), "temperature must be finite");
        Self {
            vdd,
            temp_c,
            corner,
        }
    }

    /// The paper's nominal simulation condition: 0.9 V, 25 C, NN.
    pub fn nominal() -> Self {
        Self::new(0.9, 25.0, Corner::Nn)
    }

    /// Returns a copy with a different supply voltage.
    pub fn with_vdd(mut self, vdd: f64) -> Self {
        assert!(
            vdd.is_finite() && vdd > 0.0,
            "vdd must be positive, got {vdd}"
        );
        self.vdd = vdd;
        self
    }

    /// Returns a copy with a different corner.
    pub fn with_corner(mut self, corner: Corner) -> Self {
        self.corner = corner;
        self
    }

    /// Absolute temperature in kelvin.
    pub(crate) fn temp_k(&self) -> f64 {
        self.temp_c + 273.15
    }

    /// Thermal voltage `kT/q` in volts at this temperature.
    pub(crate) fn thermal_voltage(&self) -> f64 {
        8.617_333e-5 * self.temp_k()
    }
}

impl Default for Env {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_values() {
        let e = Env::nominal();
        assert_eq!(e.vdd, 0.9);
        assert_eq!(e.temp_c, 25.0);
        assert_eq!(e.corner, Corner::Nn);
    }

    #[test]
    fn thermal_voltage_at_room_temp() {
        let vt = Env::nominal().thermal_voltage();
        assert!((vt - 0.0257).abs() < 0.0003, "vt = {vt}");
    }

    #[test]
    #[should_panic(expected = "vdd must be positive")]
    fn zero_vdd_rejected() {
        let _ = Env::new(0.0, 25.0, Corner::Nn);
    }

    #[test]
    fn builder_chain() {
        let e = Env::nominal().with_vdd(0.6).with_corner(Corner::Ss);
        assert_eq!(e.vdd, 0.6);
        assert_eq!(e.corner, Corner::Ss);
    }
}
