//! Single-ended sense amplifier model.
//!
//! The paper uses single-ended SAs on BLT and BLB producing `AB` and
//! `~(A+B)` for dual-WL accesses. For delay purposes an SA is a trip level
//! plus a resolve latency; the trip-crossing time comes from the simulated
//! bit-line waveform.

use bpimc_circuit::{CircuitError, Crossing, Edge, NodeId, Trace};

/// Trip level (fraction of VDD) and resolve latency of the single-ended SA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseAmp {
    /// Input trip level as a fraction of VDD.
    pub(crate) trip_frac: f64,
    /// Internal resolve latency, seconds.
    pub(crate) resolve_s: f64,
}

impl SenseAmp {
    /// The default SA: trips at VDD/2 and resolves in 30 ps.
    pub(crate) fn default_28nm() -> Self {
        Self {
            trip_frac: 0.5,
            resolve_s: 30e-12,
        }
    }

    /// Absolute trip voltage at a given supply.
    pub(crate) fn trip_voltage(&self, vdd: f64) -> f64 {
        self.trip_frac * vdd
    }

    /// The event this SA fires on: `bl` falling through the trip level at
    /// or after `t_from`.
    pub(crate) fn trip(&self, bl: NodeId, vdd: f64, t_from: f64) -> Crossing {
        Crossing {
            node: bl,
            level: self.trip_voltage(vdd),
            edge: Edge::Falling,
            t_from,
        }
    }

    /// The sensing delay for a *discharging* bit-line: time from `t_from`
    /// (WL activation) until the BL crosses the trip level, plus resolve.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NoCrossing`] if the BL never reaches the trip
    /// level in the simulated window (i.e. the SA would output "high").
    pub(crate) fn sense_delay(
        &self,
        trace: &Trace,
        bl: NodeId,
        vdd: f64,
        t_from: f64,
    ) -> Result<f64, CircuitError> {
        let t_cross = self.trip(bl, vdd, t_from).time_in(trace)?;
        Ok(t_cross - t_from + self.resolve_s)
    }
}

impl Default for SenseAmp {
    fn default() -> Self {
        Self::default_28nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpimc_circuit::{Circuit, SimOptions, Waveform};
    use bpimc_device::Env;

    fn discharging_trace() -> (Trace, NodeId) {
        let mut ckt = Circuit::new(Env::nominal());
        let bl = ckt.add_node("bl", 10e-15, 0.9);
        ckt.add_resistor(bl, ckt.gnd(), 20_000.0); // tau = 200 ps
        (ckt.run(&SimOptions::for_window(2e-9)), bl)
    }

    #[test]
    fn delay_includes_resolve() {
        let (tr, bl) = discharging_trace();
        let sa = SenseAmp::default_28nm();
        let d = sa.sense_delay(&tr, bl, 0.9, 0.0).unwrap();
        // RC to 50%: t = tau ln 2 = 138.6 ps, plus 30 ps resolve.
        assert!((d - (138.6e-12 + 30e-12)).abs() < 6e-12, "d = {d:.3e}");
    }

    #[test]
    fn high_bl_reads_high() {
        let mut ckt = Circuit::new(Env::nominal());
        let vdd = ckt.add_source("vdd", Waveform::dc(0.9));
        let bl = ckt.add_node("bl", 10e-15, 0.9);
        ckt.add_resistor(bl, vdd, 10_000.0); // held high
        let tr = ckt.run(&SimOptions::for_window(1e-9));
        let sa = SenseAmp::default_28nm();
        assert!(sa.sense_delay(&tr, bl, 0.9, 0.0).is_err());
    }

    #[test]
    fn trip_voltage_scales_with_vdd() {
        let sa = SenseAmp::default_28nm();
        assert_eq!(sa.trip_voltage(1.0), 0.5);
        assert_eq!(sa.trip_voltage(0.6), 0.3);
    }
}
