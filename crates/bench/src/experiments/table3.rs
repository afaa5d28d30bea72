//! Table III — comparison with the state of the art.
//!
//! The three cited competitor rows come from the literature constants in
//! `bpimc-baseline`; the "Prop." row is generated live from this
//! workspace's own models (area, frequency, efficiency).

use crate::textfmt::{ghz, TextTable};
use bpimc_array::ArrayGeometry;
use bpimc_baseline::{ComparisonRow, TABLE3_ROWS};
use bpimc_core::Precision;
use bpimc_device::Env;
use bpimc_metrics::energy::Table2Op;
use bpimc_metrics::{AreaModel, FrequencyModel, TopsModel};
use std::fmt;

/// The generated "Prop." row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProposedRow {
    /// Peripheral area overhead fraction (paper: 5.2 %).
    pub(crate) area_overhead: f64,
    /// Fmax at 1.0 V (paper: 2.25 GHz).
    pub fmax_hz: f64,
    /// Fmax at 0.6 V (paper: 372 MHz).
    pub(crate) fmax_0v6_hz: f64,
    /// 8-bit MULT TOPS/W at 0.6 V (paper: 0.68).
    pub tops_w_mult: f64,
    /// 8-bit ADD TOPS/W at 0.6 V (paper: 8.09).
    pub tops_w_add: f64,
}

/// The full Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Result {
    /// Cited competitor rows.
    pub cited: [ComparisonRow; 3],
    /// Our generated row.
    pub proposed: ProposedRow,
}

/// Builds the table.
pub fn run() -> Table3Result {
    let area = AreaModel::default_28nm();
    let freq = FrequencyModel;
    let tops = TopsModel::paper_calibrated();
    let proposed = ProposedRow {
        area_overhead: area.overhead_fraction(&ArrayGeometry::paper_macro()),
        fmax_hz: freq.fmax(&Env::nominal().with_vdd(1.0)),
        fmax_0v6_hz: freq.fmax(&Env::nominal().with_vdd(0.6)),
        tops_w_mult: tops.tops_per_watt(Table2Op::Mult, Precision::P8, true, 0.6),
        tops_w_add: tops.tops_per_watt(Table2Op::Add, Precision::P8, true, 0.6),
    };
    Table3Result {
        cited: TABLE3_ROWS,
        proposed,
    }
}

impl fmt::Display for Table3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table III — comparison with the state of the art")?;
        let mut t = TextTable::new([
            "design",
            "area ovh",
            "cell",
            "read-disturb fix",
            "supply",
            "array",
            "max freq",
            "reconfig",
            "TOPS/W MULT",
            "TOPS/W ADD",
        ]);
        for r in &self.cited {
            t.row([
                r.reference.to_string(),
                r.area_overhead
                    .map_or("-".into(), |a| format!("*{:.1} %", a * 100.0)),
                r.cell_type.to_string(),
                r.read_disturb_fix.to_string(),
                format!("{:.1}-{:.1} V", r.supply_v.0, r.supply_v.1),
                r.array_size.to_string(),
                format!("{} ({:.1} V)", ghz(r.max_freq_hz), r.max_freq_at_v),
                r.reconfigurable.to_string(),
                r.tops_w_mult.map_or("-".into(), |x| format!("{x:.2}")),
                r.tops_w_add.map_or("-".into(), |x| format!("{x:.2}")),
            ]);
        }
        let p = &self.proposed;
        t.row([
            "Prop. (this repro)".to_string(),
            format!("{:.1} %", p.area_overhead * 100.0),
            "6T cell".to_string(),
            "Short WL w/ BL Boosting".to_string(),
            "0.6-1.1 V".to_string(),
            "4 x 128 x 128".to_string(),
            format!("{} (1.0 V)", ghz(p.fmax_hz)),
            "2bit/4bit/8bit".to_string(),
            format!("{:.2} (0.6 V)", p.tops_w_mult),
            format!("{:.2} (0.6 V)", p.tops_w_add),
        ]);
        write!(f, "{}", t.render())?;
        writeln!(
            f,
            "* array area overhead not included for cited designs (paper footnote)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_row_matches_paper_headlines() {
        let r = run();
        let p = r.proposed;
        assert!(
            (p.area_overhead - 0.052).abs() < 0.005,
            "area {}",
            p.area_overhead
        );
        assert!((p.fmax_hz - 2.25e9).abs() / 2.25e9 < 0.02);
        assert!((p.fmax_0v6_hz - 372e6).abs() / 372e6 < 0.06);
        assert!((p.tops_w_mult - 0.68).abs() / 0.68 < 0.15);
        assert!((p.tops_w_add - 8.09).abs() / 8.09 < 0.15);
        crate::experiments::assert_pinned("table3", &r, 0xef56_0665_cfa4_a7cc);
    }

    #[test]
    fn proposed_beats_the_bit_serial_baseline() {
        let r = run();
        let bit_serial = r.cited[1];
        assert!(r.proposed.fmax_hz > 4.0 * bit_serial.max_freq_hz);
        assert!(r.proposed.tops_w_mult > bit_serial.tops_w_mult.unwrap());
        assert!(r.proposed.tops_w_add > bit_serial.tops_w_add.unwrap());
    }

    #[test]
    fn display_renders_all_rows() {
        let s = format!("{}", run());
        assert!(s.contains("Prop. (this repro)"));
        assert!(s.contains("19' JSSC [2]"));
    }
}
