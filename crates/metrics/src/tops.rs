//! TOPS/W efficiency (Fig. 8 right, Table III).
//!
//! With one operation costing `E` joules, the efficiency is simply `1/E`
//! operations per joule; the voltage dependence is the CV^2 law. The
//! paper's headline numbers are reproduced at 0.6 V: 8.09 TOPS/W for 8-bit
//! ADD and 0.68 TOPS/W for 8-bit MULT (Table III — note the abstract swaps
//! the two by mistake; Table II + the CV^2 law confirm the Table III
//! assignment).

use crate::calibrate::paper_calibrated_params;
use crate::energy::{table2_energy_fj, EnergyParams, Table2Op};
use bpimc_core::Precision;

/// TOPS/W evaluator bound to a set of energy coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopsModel {
    params: EnergyParams,
}

impl TopsModel {
    /// A model using the Table II-calibrated coefficients.
    pub fn paper_calibrated() -> Self {
        Self {
            params: paper_calibrated_params(),
        }
    }

    /// Energy of one operation at `vdd`, femtojoules.
    pub(crate) fn op_energy_fj(
        &self,
        op: Table2Op,
        precision: Precision,
        separator: bool,
        vdd: f64,
    ) -> f64 {
        table2_energy_fj(op, precision, separator, &self.params) * EnergyParams::voltage_scale(vdd)
    }

    /// Tera-operations per second per watt (= operations per picojoule).
    pub fn tops_per_watt(
        &self,
        op: Table2Op,
        precision: Precision,
        separator: bool,
        vdd: f64,
    ) -> f64 {
        let fj = self.op_energy_fj(op, precision, separator, vdd);
        // 1 / (fJ) op/J = 1e15/fj ops/J; TOPS/W = ops/J / 1e12.
        1e3 / fj
    }

    /// `(vdd, TOPS/W)` sweep for the Fig. 8 (right) curves.
    pub fn sweep(
        &self,
        op: Table2Op,
        precision: Precision,
        separator: bool,
        voltages: &[f64],
    ) -> Vec<(f64, f64)> {
        voltages
            .iter()
            .map(|&v| (v, self.tops_per_watt(op, precision, separator, v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_numbers_at_0v6() {
        let m = TopsModel::paper_calibrated();
        let add = m.tops_per_watt(Table2Op::Add, Precision::P8, true, 0.6);
        let mult = m.tops_per_watt(Table2Op::Mult, Precision::P8, true, 0.6);
        // Paper (Table III): ADD 8.09, MULT 0.68 at 0.6 V.
        assert!((add - 8.09).abs() / 8.09 < 0.15, "ADD {add:.2} TOPS/W");
        assert!((mult - 0.68).abs() / 0.68 < 0.15, "MULT {mult:.2} TOPS/W");
    }

    #[test]
    fn efficiency_falls_with_voltage() {
        let m = TopsModel::paper_calibrated();
        let lo = m.tops_per_watt(Table2Op::Add, Precision::P8, true, 0.6);
        let hi = m.tops_per_watt(Table2Op::Add, Precision::P8, true, 1.1);
        assert!(lo > 3.0 * hi, "CV^2: {lo} vs {hi}");
    }

    #[test]
    fn add_is_roughly_10x_mult_as_the_fig8_axis_note_says() {
        // The paper plots ADD TOPS/W on a x10 axis — the two curves are an
        // order of magnitude apart.
        let m = TopsModel::paper_calibrated();
        let add = m.tops_per_watt(Table2Op::Add, Precision::P8, true, 0.9);
        let mult = m.tops_per_watt(Table2Op::Mult, Precision::P8, true, 0.9);
        let ratio = add / mult;
        assert!((8.0..16.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sweep_shape() {
        let m = TopsModel::paper_calibrated();
        let s = m.sweep(Table2Op::Mult, Precision::P8, true, &[0.6, 0.8, 1.0]);
        assert_eq!(s.len(), 3);
        assert!(s[0].1 > s[1].1 && s[1].1 > s[2].1);
    }
}
