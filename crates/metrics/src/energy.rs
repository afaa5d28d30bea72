//! Activity-driven energy model.
//!
//! The executor (`bpimc-core`) logs, per cycle, how many columns computed,
//! how many were written back (and whether the BL separator shielded them or
//! the write inverted the read data), and how many multiplier FF bits
//! clocked. This module turns those counts into femtojoules using per-event
//! coefficients; [`crate::calibrate`] fits the coefficients to the paper's
//! Table II.
//!
//! Energies scale with `(V / 0.9)^2` (CV^2 dominated), which is exactly the
//! consistency the paper's own numbers exhibit: Table II's 274.8 fJ 8-bit
//! ADD at 0.9 V corresponds to Table III's 8.09 TOPS/W at 0.6 V.

use bpimc_array::CycleKind;
use bpimc_core::{ActivityLog, CycleActivity, ImcMacro, MacroConfig, Precision};

/// Per-event energy coefficients in femtojoules at the 0.9 V NN reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Per column of a dual-WL compute cycle (precharge + cells + boost +
    /// SA + FA logic).
    pub compute_dual_fj: f64,
    /// Per column of a single-WL access cycle.
    pub compute_single_fj: f64,
    /// Per column of a write-back swinging the full bit-line.
    pub wb_full_fj: f64,
    /// Per column of a write-back shielded by the BL separator.
    pub wb_shielded_fj: f64,
    /// Extra per column when the write inverts the just-read data (NOT).
    pub wb_invert_extra_fj: f64,
    /// Per multiplier FF bit event.
    pub ff_fj: f64,
    /// Fixed per cycle (WL driver, decoder, control).
    pub cycle_fixed_fj: f64,
}

impl EnergyParams {
    /// The CV^2 voltage scale factor relative to the 0.9 V reference.
    pub(crate) fn voltage_scale(vdd: f64) -> f64 {
        (vdd / 0.9) * (vdd / 0.9)
    }

    /// Energy of one logged cycle, femtojoules (at reference voltage).
    pub(crate) fn cycle_energy_fj(&self, c: &CycleActivity) -> f64 {
        let compute = match c.kind {
            CycleKind::Compute => c.compute_cols as f64 * self.compute_dual_fj,
            CycleKind::SingleAccess | CycleKind::ReadOnly => {
                c.compute_cols as f64 * self.compute_single_fj
            }
            CycleKind::WriteOnly => 0.0,
        };
        let wb_base = if c.wb_shielded {
            self.wb_shielded_fj
        } else {
            self.wb_full_fj
        };
        let wb_extra = if c.wb_inverting {
            self.wb_invert_extra_fj
        } else {
            0.0
        };
        let wb = c.wb_cols as f64 * (wb_base + wb_extra);
        compute + wb + c.ff_bits as f64 * self.ff_fj + self.cycle_fixed_fj
    }

    /// Energy of a slice of cycles, femtojoules.
    pub fn cycles_energy_fj(&self, cycles: &[CycleActivity]) -> f64 {
        cycles.iter().map(|c| self.cycle_energy_fj(c)).sum()
    }

    /// Energy of an entire activity log, femtojoules.
    pub fn log_energy_fj(&self, log: &ActivityLog) -> f64 {
        self.cycles_energy_fj(log.cycles())
    }

    /// Builds coefficients from a vector (for the calibration optimiser).
    pub(crate) fn from_vec(v: [f64; 7]) -> Self {
        Self {
            compute_dual_fj: v[0],
            compute_single_fj: v[1],
            wb_full_fj: v[2],
            wb_shielded_fj: v[3],
            wb_invert_extra_fj: v[4],
            ff_fj: v[5],
            cycle_fixed_fj: v[6],
        }
    }
}

/// The operations of the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table2Op {
    /// Per-lane addition.
    Add,
    /// Per-lane subtraction (with or without separator).
    Sub,
    /// Per-lane multiplication (with or without separator).
    Mult,
}

/// Measures the per-word energy of one operation by running it on a
/// minimal-width macro (one lane) and pricing the logged activity.
///
/// This mirrors how the paper reports Table II: energy *per operation* on
/// one word, at 0.9 V.
pub fn table2_energy_fj(
    op: Table2Op,
    precision: Precision,
    separator_on: bool,
    params: &EnergyParams,
) -> f64 {
    let bits = precision.bits();
    let cols = match op {
        Table2Op::Mult => 2 * bits,
        _ => bits,
    };
    let mut mac = ImcMacro::new(MacroConfig::with_cols(cols).with_separator(separator_on));
    match op {
        Table2Op::Add => {
            mac.write_words(0, precision, &[1]).expect("operand fits");
            mac.write_words(1, precision, &[2]).expect("operand fits");
            mac.clear_activity();
            mac.add(0, 1, 2, precision).expect("add runs");
        }
        Table2Op::Sub => {
            mac.write_words(0, precision, &[3]).expect("operand fits");
            mac.write_words(1, precision, &[1]).expect("operand fits");
            mac.clear_activity();
            mac.sub(0, 1, 2, precision).expect("sub runs");
        }
        Table2Op::Mult => {
            mac.write_mult_operands(0, precision, &[3])
                .expect("operand fits");
            mac.write_mult_operands(1, precision, &[2])
                .expect("operand fits");
            mac.clear_activity();
            mac.mult(0, 1, 2, precision).expect("mult runs");
        }
    }
    params.log_energy_fj(mac.activity())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_params() -> EnergyParams {
        EnergyParams {
            compute_dual_fj: 1.0,
            compute_single_fj: 1.0,
            wb_full_fj: 1.0,
            wb_shielded_fj: 0.5,
            wb_invert_extra_fj: 0.0,
            ff_fj: 0.1,
            cycle_fixed_fj: 2.0,
        }
    }

    #[test]
    fn voltage_scale_is_quadratic() {
        assert!((EnergyParams::voltage_scale(0.9) - 1.0).abs() < 1e-12);
        assert!((EnergyParams::voltage_scale(0.6) - 4.0 / 9.0).abs() < 1e-12);
        assert!((EnergyParams::voltage_scale(1.8) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn add_energy_grows_with_precision() {
        let p = unit_params();
        let e2 = table2_energy_fj(Table2Op::Add, Precision::P2, true, &p);
        let e8 = table2_energy_fj(Table2Op::Add, Precision::P8, true, &p);
        assert!(e8 > 2.0 * e2, "e2 {e2} e8 {e8}");
    }

    #[test]
    fn separator_saves_energy_on_sub_and_mult_only() {
        let p = unit_params();
        for op in [Table2Op::Sub, Table2Op::Mult] {
            let with = table2_energy_fj(op, Precision::P8, true, &p);
            let without = table2_energy_fj(op, Precision::P8, false, &p);
            assert!(with < without, "{op:?}: {with} !< {without}");
        }
        // ADD writes to the main array; the separator cannot help.
        let with = table2_energy_fj(Table2Op::Add, Precision::P8, true, &p);
        let without = table2_energy_fj(Table2Op::Add, Precision::P8, false, &p);
        assert_eq!(with, without);
    }

    #[test]
    fn mult_energy_is_superlinear_in_precision() {
        let p = unit_params();
        let e2 = table2_energy_fj(Table2Op::Mult, Precision::P2, false, &p);
        let e4 = table2_energy_fj(Table2Op::Mult, Precision::P4, false, &p);
        let e8 = table2_energy_fj(Table2Op::Mult, Precision::P8, false, &p);
        assert!(e4 / e2 > 2.0, "quadratic-ish growth: {e2} {e4} {e8}");
        assert!(e8 / e4 > 2.0);
    }

    #[test]
    fn inverting_write_costs_extra() {
        let mut p = unit_params();
        p.wb_invert_extra_fj = 5.0;
        let base = unit_params();
        let with = table2_energy_fj(Table2Op::Sub, Precision::P8, true, &p);
        let without_extra = table2_energy_fj(Table2Op::Sub, Precision::P8, true, &base);
        // The NOT cycle writes 8 inverted columns: +40 fJ.
        assert!((with - without_extra - 40.0).abs() < 1e-9);
    }
}
