//! Transistor-count area model (the 5.2 % overhead claim).
//!
//! The paper keeps the 6T cell and array structure untouched; all additions
//! live in the column periphery (BL booster, FA-Logics, muxes, FFs) plus the
//! BL separator and three dummy rows. The model counts transistors per
//! column, prices them at a 28 nm logic density, and compares against the
//! bit-cell array area.

use bpimc_array::ArrayGeometry;

/// Area model constants and per-column transistor budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// 6T bit-cell area, um^2 (28 nm high-density cell).
    pub(crate) cell_area_um2: f64,
    /// Average drawn area per peripheral logic transistor including local
    /// routing, um^2.
    pub(crate) logic_area_per_t_um2: f64,
    /// Booster transistors per column (P0/N0/N1/reset on both BLT and BLB).
    pub(crate) boost_t_per_col: usize,
    /// BL separator pass-gate transistors per column.
    pub(crate) separator_t_per_col: usize,
    /// Write driver transistors per column.
    pub(crate) driver_t_per_col: usize,
    /// Shared Y-path transistors per peripheral unit (single-ended SA pair,
    /// FA-Logics, logic unit, MX0-MX2, write-back latch).
    pub(crate) ypath_t_per_unit: usize,
    /// Multiplier FF transistors per 2-bit FF unit.
    pub(crate) ff_t_per_unit: usize,
}

impl AreaModel {
    /// The default 28 nm budget.
    pub fn default_28nm() -> Self {
        Self {
            cell_area_um2: 0.13,
            // Custom pitch-matched column layout is denser than standard
            // cells (~0.03 um^2/T); 0.022 reflects hand layout under the
            // array pitch.
            logic_area_per_t_um2: 0.022,
            boost_t_per_col: 8,
            separator_t_per_col: 2,
            driver_t_per_col: 2,
            ypath_t_per_unit: 62,
            ff_t_per_unit: 24,
        }
    }

    /// Bit-cell array area of a geometry (main rows only), um^2.
    pub(crate) fn array_area_um2(&self, g: &ArrayGeometry) -> f64 {
        (g.rows * g.cols) as f64 * self.cell_area_um2
    }

    /// Dummy-row area, um^2 (reported separately; the paper's overhead
    /// figure covers the added periphery).
    pub fn dummy_area_um2(&self, g: &ArrayGeometry) -> f64 {
        (g.dummy_rows * g.cols) as f64 * self.cell_area_um2
    }

    /// Peripheral transistors added per macro.
    pub(crate) fn peripheral_transistors(&self, g: &ArrayGeometry) -> usize {
        let per_col = self.boost_t_per_col + self.separator_t_per_col + self.driver_t_per_col;
        let units = g.peripheral_units();
        // One 2-bit FF unit per pair of columns served (max precision tiling).
        let ff_units = g.cols / 2;
        per_col * g.cols + self.ypath_t_per_unit * units + self.ff_t_per_unit * ff_units
    }

    /// Added peripheral area per macro, um^2.
    pub(crate) fn peripheral_area_um2(&self, g: &ArrayGeometry) -> f64 {
        self.peripheral_transistors(g) as f64 * self.logic_area_per_t_um2
    }

    /// The paper's headline figure: peripheral area overhead relative to
    /// the bit-cell array area, as a fraction.
    pub fn overhead_fraction(&self, g: &ArrayGeometry) -> f64 {
        self.peripheral_area_um2(g) / self.array_area_um2(g)
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::default_28nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_matches_the_papers_5_2_percent() {
        let m = AreaModel::default_28nm();
        let g = ArrayGeometry::paper_macro();
        let ovh = m.overhead_fraction(&g) * 100.0;
        assert!((ovh - 5.2).abs() < 0.5, "overhead {ovh:.2} %");
    }

    #[test]
    fn overhead_shrinks_with_taller_arrays() {
        // Peripheral cost is per column; more rows amortise it.
        let m = AreaModel::default_28nm();
        let short = ArrayGeometry {
            rows: 64,
            ..ArrayGeometry::paper_macro()
        };
        let tall = ArrayGeometry {
            rows: 256,
            ..ArrayGeometry::paper_macro()
        };
        assert!(m.overhead_fraction(&tall) < m.overhead_fraction(&short));
    }

    #[test]
    fn dummy_rows_are_small() {
        let m = AreaModel::default_28nm();
        let g = ArrayGeometry::paper_macro();
        let frac = m.dummy_area_um2(&g) / m.array_area_um2(&g);
        assert!((frac - 3.0 / 128.0).abs() < 1e-12);
    }
}
