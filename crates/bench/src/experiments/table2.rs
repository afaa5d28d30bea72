//! Table II — energy per operation, model vs paper.
//!
//! Prints the calibrated activity-model energies next to the paper's
//! SPICE-measured values with per-cell relative errors.

use crate::textfmt::TextTable;
use bpimc_metrics::calibrate::{calibrate, CalibrationReport};
use std::fmt;

/// The Table II reproduction: the full calibration report.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// The calibration fit and per-cell residuals.
    pub(crate) report: CalibrationReport,
}

/// Runs the calibration and packages the comparison.
pub fn run() -> Table2Result {
    Table2Result {
        report: calibrate(),
    }
}

impl fmt::Display for Table2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table II — energy per operation [fJ] @ 0.9 V (model vs paper)"
        )?;
        let mut t = TextTable::new([
            "operation",
            "precision",
            "separator",
            "paper",
            "model",
            "rel. err",
        ]);
        for (cell, model, rel) in &self.report.cells {
            t.row([
                format!("{:?}", cell.op),
                cell.precision.to_string(),
                if cell.separator {
                    "w/".to_string()
                } else {
                    "w/o".to_string()
                },
                format!("{:.1}", cell.paper_fj),
                format!("{model:.1}"),
                format!("{:+.1} %", rel * 100.0),
            ]);
        }
        write!(f, "{}", t.render())?;
        writeln!(
            f,
            "fit quality: rms {:.1} %, worst {:.1} %",
            self.report.rms_rel_err * 100.0,
            self.report.max_rel_err * 100.0
        )?;
        let p = self.report.params;
        writeln!(
            f,
            "fitted coefficients [fJ]: compute(dual) {:.2}, compute(single) {:.2}, wb(full) {:.2}, wb(shielded) {:.2}, wb(invert extra) {:.2}, ff {:.2}, fixed/cycle {:.2}",
            p.compute_dual_fj,
            p.compute_single_fj,
            p.wb_full_fj,
            p.wb_shielded_fj,
            p.wb_invert_extra_fj,
            p.ff_fj,
            p.cycle_fixed_fj
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_report_covers_all_15_cells() {
        let r = run();
        assert_eq!(r.report.cells.len(), 15);
        assert!(r.report.rms_rel_err < 0.10);
        assert!(format!("{r}").contains("rms"));
        crate::experiments::assert_pinned("table2", &r, 0xb064_82d9_2613_ba2a);
    }
}
