//! Literature constants for the paper's Table III comparison.
//!
//! These are the published characteristics of the competing designs exactly
//! as the paper's Table III cites them; only the "Prop." column is produced
//! by this workspace's own models.

/// One row (design) of the Table III comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonRow {
    /// Citation label.
    pub reference: &'static str,
    /// Area overhead (fraction), if reported. The footnote applies: array
    /// area overhead is not included for the cited designs.
    pub area_overhead: Option<f64>,
    /// Bit-cell type.
    pub cell_type: &'static str,
    /// Main drawback the paper attributes to the design.
    pub(crate) drawback: &'static str,
    /// Read-disturb mitigation.
    pub read_disturb_fix: &'static str,
    /// Supply range (volts).
    pub supply_v: (f64, f64),
    /// Technology node.
    pub(crate) technology: &'static str,
    /// Array organisation as cited.
    pub array_size: &'static str,
    /// Maximum clock frequency in hertz (at the cited voltage).
    pub max_freq_hz: f64,
    /// Voltage of the frequency citation.
    pub max_freq_at_v: f64,
    /// Precision reconfigurability as cited.
    pub reconfigurable: &'static str,
    /// TOPS/W for multiplication, if reported (at the cited point).
    pub tops_w_mult: Option<f64>,
    /// TOPS/W for addition, if reported.
    pub tops_w_add: Option<f64>,
}

/// The cited competitor rows of Table III (\[1\] JSSC'16, \[2\] JSSC'19,
/// \[5\] DAC'19). The proposed design's row is generated by the models.
pub const TABLE3_ROWS: [ComparisonRow; 3] = [
    ComparisonRow {
        reference: "16' JSSC [1]",
        area_overhead: None,
        cell_type: "6T cell",
        drawback: "Only bit-wise operation",
        read_disturb_fix: "WL Underdrive",
        supply_v: (0.7, 1.0),
        technology: "28nm FDSOI",
        array_size: "64 x 64 (4kB)",
        max_freq_hz: 787e6,
        max_freq_at_v: 1.0,
        reconfigurable: "X",
        tops_w_mult: None,
        tops_w_add: None,
    },
    ComparisonRow {
        reference: "19' JSSC [2]",
        area_overhead: Some(0.045),
        cell_type: "8T Transposable",
        drawback: "High latency",
        read_disturb_fix: "WL Underdrive",
        supply_v: (0.6, 1.1),
        technology: "28nm CMOS",
        array_size: "4 x 128 x 256",
        max_freq_hz: 475e6,
        max_freq_at_v: 1.1,
        reconfigurable: "Programmable",
        tops_w_mult: Some(0.56),
        tops_w_add: Some(5.27),
    },
    ComparisonRow {
        reference: "19' DAC [5]",
        area_overhead: Some(0.040),
        cell_type: "6T w/ local group",
        drawback: "Local limited access",
        read_disturb_fix: "Local Read BL",
        supply_v: (0.6, 1.1),
        technology: "28nm CMOS",
        array_size: "256 x 128",
        max_freq_hz: 2.2e9,
        max_freq_at_v: 1.0,
        reconfigurable: "X",
        tops_w_mult: None,
        tops_w_add: None,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cited_rows_are_complete_and_sane() {
        assert_eq!(TABLE3_ROWS.len(), 3);
        for row in TABLE3_ROWS {
            assert!(row.max_freq_hz > 1e8 && row.max_freq_hz < 1e10);
            assert!(row.supply_v.0 < row.supply_v.1);
        }
    }

    #[test]
    fn the_bit_serial_baseline_is_the_slowest_clock() {
        let f2 = TABLE3_ROWS[1].max_freq_hz;
        assert!(TABLE3_ROWS.iter().all(|r| r.max_freq_hz >= f2));
    }
}
