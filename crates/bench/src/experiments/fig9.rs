//! Fig. 9 — cycles per operation vs BL size: bit-parallel vs bit-serial.
//!
//! The proposed architecture's parallelism grows with the row width (its
//! carry chain spans every column), while the conventional bit-serial
//! design keeps its published fixed 128-lane SIMD organisation — so the
//! proposed advantage widens with BL size, and 8-bit MULT crosses over
//! (slower than bit-serial) at BL = 128, exactly the paper's x1.19 label.
//!
//! Cycle counts for the proposed side are *measured* by running the
//! executor; the baseline uses its documented formulas. Two product
//! throughput countings are reported for MULT (see `DESIGN.md`): the
//! paper's dense counting (one word per `P` columns, the headline series)
//! and the strict product-lane counting our executor implements (one word
//! per `2P` columns, i.e. two interleaved passes).

use crate::textfmt::TextTable;
use bpimc_baseline::BitSerialCycles;
use bpimc_core::{ImcMacro, MacroConfig, Precision};
use std::fmt;

/// The swept BL sizes of the paper.
pub(crate) const BL_SIZES: [usize; 4] = [128, 256, 512, 1024];

/// One (operation, BL size) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Cell {
    /// Row width in columns.
    pub(crate) bl_size: usize,
    /// Proposed: measured cycles for one row-wide op.
    pub(crate) prop_cycles: u64,
    /// Proposed: words processed by that op (dense counting).
    pub(crate) prop_words: usize,
    /// Conventional: formula cycles.
    pub(crate) conv_cycles: u64,
    /// Conventional: fixed SIMD lanes.
    pub(crate) conv_words: usize,
}

impl Fig9Cell {
    /// Proposed cycles per word.
    pub(crate) fn prop_cpw(&self) -> f64 {
        self.prop_cycles as f64 / self.prop_words as f64
    }

    /// Conventional cycles per word.
    pub(crate) fn conv_cpw(&self) -> f64 {
        self.conv_cycles as f64 / self.conv_words as f64
    }

    /// The proposed/conventional ratio (the paper's figure labels).
    pub fn ratio(&self) -> f64 {
        self.prop_cpw() / self.conv_cpw()
    }
}

/// The full Fig. 9 result: ADD / SUB / MULT series over BL sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// 8-bit ADD cells.
    pub add: Vec<Fig9Cell>,
    /// 8-bit SUB cells.
    pub(crate) sub: Vec<Fig9Cell>,
    /// 8-bit MULT cells (dense word counting, the paper's).
    pub mult: Vec<Fig9Cell>,
    /// 8-bit MULT with strict product-lane counting (words per 2P columns).
    pub(crate) mult_strict: Vec<Fig9Cell>,
}

/// Runs the sweep with measured executor cycle counts at 8-bit precision.
pub fn run() -> Fig9Result {
    let p = Precision::P8;
    let bits = p.bits();
    let mut add = Vec::new();
    let mut sub = Vec::new();
    let mut mult = Vec::new();
    let mut mult_strict = Vec::new();
    for &bl in &BL_SIZES {
        let mut mac = ImcMacro::new(MacroConfig::with_cols(bl));
        let lanes = p.lanes(bl);
        let plane = p.product_lanes(bl);
        mac.write_words(0, p, &vec![7; lanes]).expect("fits");
        mac.write_words(1, p, &vec![9; lanes]).expect("fits");
        let c_add = mac.add(0, 1, 2, p).expect("add");
        let c_sub = mac.sub(0, 1, 3, p).expect("sub");
        mac.write_mult_operands(4, p, &vec![7; plane])
            .expect("fits");
        mac.write_mult_operands(5, p, &vec![9; plane])
            .expect("fits");
        let c_mult = mac.mult(4, 5, 6, p).expect("mult");

        add.push(Fig9Cell {
            bl_size: bl,
            prop_cycles: c_add,
            prop_words: lanes,
            conv_cycles: BitSerialCycles::add(bits),
            conv_words: BitSerialCycles::SIMD_LANES,
        });
        sub.push(Fig9Cell {
            bl_size: bl,
            prop_cycles: c_sub,
            prop_words: lanes,
            conv_cycles: BitSerialCycles::sub(bits),
            conv_words: BitSerialCycles::SIMD_LANES,
        });
        mult.push(Fig9Cell {
            bl_size: bl,
            prop_cycles: c_mult,
            prop_words: lanes, // dense counting (paper)
            conv_cycles: BitSerialCycles::mult(bits),
            conv_words: BitSerialCycles::SIMD_LANES,
        });
        mult_strict.push(Fig9Cell {
            bl_size: bl,
            prop_cycles: c_mult,
            prop_words: plane, // strict product lanes
            conv_cycles: BitSerialCycles::mult(bits),
            conv_words: BitSerialCycles::SIMD_LANES,
        });
    }
    Fig9Result {
        add,
        sub,
        mult,
        mult_strict,
    }
}

impl fmt::Display for Fig9Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 9 — cycles/operation vs BL size (8-bit ops)")?;
        for (name, series) in [
            ("ADD", &self.add),
            ("SUB", &self.sub),
            ("MULT (dense counting, paper)", &self.mult),
            ("MULT (strict product lanes)", &self.mult_strict),
        ] {
            writeln!(f, "\n  {name}:")?;
            let mut t = TextTable::new(["BL size", "Prop. cyc/op", "Conv. cyc/op", "ratio"]);
            for c in series {
                t.row([
                    c.bl_size.to_string(),
                    format!("{:.4}", c.prop_cpw()),
                    format!("{:.4}", c.conv_cpw()),
                    format!("x{:.2}", c.ratio()),
                ]);
            }
            write!(f, "{}", t.render())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_the_paper_labels() {
        let r = run();
        // ADD at BL=128: x0.38; MULT (dense) at BL=128: x1.19.
        assert!(
            (r.add[0].ratio() - 0.38).abs() < 0.01,
            "{}",
            r.add[0].ratio()
        );
        assert!(
            (r.mult[0].ratio() - 1.19).abs() < 0.01,
            "{}",
            r.mult[0].ratio()
        );
        // MULT at BL=1024 (dense): ~0.15 (paper label 0.19).
        assert!(r.mult[3].ratio() < 0.2);
        crate::experiments::assert_pinned("fig9", &r, 0x3e7c_2468_3b2d_d79b);
    }

    #[test]
    fn ratios_fall_with_bl_size_and_mult_crosses_over() {
        let r = run();
        for series in [&r.add, &r.sub, &r.mult] {
            for w in series.windows(2) {
                assert!(w[1].ratio() < w[0].ratio(), "ratio must fall with BL size");
            }
        }
        // The crossover: bit-serial wins MULT at 128, loses from 256 up.
        assert!(r.mult[0].ratio() > 1.0);
        assert!(r.mult[1].ratio() < 1.0);
    }

    #[test]
    fn conventional_is_bl_size_independent() {
        let r = run();
        let c0 = r.add[0].conv_cpw();
        assert!(r.add.iter().all(|c| (c.conv_cpw() - c0).abs() < 1e-12));
    }

    #[test]
    fn proposed_cycles_are_the_table1_counts() {
        let r = run();
        assert!(r.add.iter().all(|c| c.prop_cycles == 1));
        assert!(r.sub.iter().all(|c| c.prop_cycles == 2));
        assert!(r.mult.iter().all(|c| c.prop_cycles == 10));
    }
}
