//! The paper's headline claims, asserted against the models end to end.
//!
//! Each test names the claim as the paper states it and the tolerance we
//! accept from a behavioral (non-PDK) reproduction. `EXPERIMENTS.md` records
//! the measured values.

use bpimc::bench::experiments::{fig7b, fig8, fig9, table1, table3};
use bpimc::core::{ImcMacro, MacroConfig, Precision};
use bpimc::device::Env;
use bpimc::metrics::energy::Table2Op;
use bpimc::metrics::{calibrate, AreaModel, FrequencyModel, TopsModel};
use bpimc::nn::dot_program;

/// "it can achieve 2.25GHz clock frequency at 1.0V".
#[test]
fn claim_2_25_ghz_at_1v() {
    let f = FrequencyModel.fmax(&Env::nominal().with_vdd(1.0));
    assert!((f - 2.25e9).abs() / 2.25e9 < 0.02, "fmax {f:.3e}");
}

/// Table III: 372 MHz at 0.6 V (the wide supply-range claim's low end).
#[test]
fn claim_372_mhz_at_0v6() {
    let f = FrequencyModel.fmax(&Env::nominal().with_vdd(0.6));
    assert!((f - 372e6).abs() / 372e6 < 0.06, "fmax {f:.3e}");
}

/// "achieves 0.68, 8.09 TOPS/W" (Table III assignment: MULT 0.68, ADD 8.09).
#[test]
fn claim_tops_per_watt() {
    let m = TopsModel::paper_calibrated();
    let add = m.tops_per_watt(Table2Op::Add, Precision::P8, true, 0.6);
    let mult = m.tops_per_watt(Table2Op::Mult, Precision::P8, true, 0.6);
    assert!((add - 8.09).abs() / 8.09 < 0.15, "ADD {add}");
    assert!((mult - 0.68).abs() / 0.68 < 0.15, "MULT {mult}");
}

/// "5.2% of area overhead".
#[test]
fn claim_area_overhead() {
    let ovh =
        AreaModel::default_28nm().overhead_fraction(&bpimc::array::ArrayGeometry::paper_macro());
    assert!((ovh - 0.052).abs() < 0.005, "overhead {ovh}");
}

/// "the proposed FA improves the critical path delay 1.8X-2.2X".
#[test]
fn claim_fa_speedup_band() {
    let (lo, hi) = fig7b::run().speedup_band();
    assert!(lo >= 1.7 && hi <= 2.3, "band {lo:.2}-{hi:.2}");
}

/// Table I: every operation's cycle count, measured by execution.
#[test]
fn claim_table1_cycle_counts() {
    assert!(table1::run().all_match());
}

/// The 16-feature P8 dot pipeline (two chunks of write_mult, write_mult,
/// mult, read_products) costs 26 cycles: the executor's activity log and
/// the static cost model agree on the value `repro check-bench` records.
#[test]
fn program_dot16_p8() {
    let x: Vec<u64> = (0..16).collect();
    let prog = dot_program(Precision::P8, &x, &x, 128);
    let mut mac = ImcMacro::new(MacroConfig::paper_macro());
    let run = prog.run(&mut mac).expect("dot program runs");
    assert_eq!(run.total_cycles(), prog.cycles());
    assert_eq!(prog.cycles(), 26);
}

/// Table II: the activity-driven energy model reproduces all 15 cells
/// within 10% RMS.
#[test]
fn claim_table2_energy_fit() {
    let report = calibrate::calibrate();
    assert!(report.rms_rel_err < 0.10, "rms {:.3}", report.rms_rel_err);
}

/// Fig. 9: the bit-parallel advantage grows with BL size; 8-bit MULT loses
/// to bit-serial only at BL = 128 (ratio 1.19) and wins beyond.
#[test]
fn claim_fig9_shape() {
    let r = fig9::run();
    assert!((r.add[0].ratio() - 0.38).abs() < 0.01);
    assert!((r.mult[0].ratio() - 1.19).abs() < 0.01);
    assert!(r.mult[1].ratio() < 1.0 && r.mult[3].ratio() < 0.25);
}

/// Fig. 8 breakdown percentages as published.
#[test]
fn claim_fig8_breakdown() {
    let r = fig8::run();
    let shares: Vec<f64> = r.fractions.iter().map(|(_, _, f)| f * 100.0).collect();
    for (got, want) in shares.iter().zip([10.0, 23.2, 21.6, 36.8, 8.5]) {
        assert!((got - want).abs() < 0.2, "{got} vs {want}");
    }
}

/// Table III: the proposed row dominates the bit-serial baseline on both
/// clock rate and efficiency while using plain 6T cells.
#[test]
fn claim_table3_dominance() {
    let t = table3::run();
    let bs = t.cited[1];
    assert!(t.proposed.fmax_hz > 4.0 * bs.max_freq_hz);
    assert!(t.proposed.tops_w_add > bs.tops_w_add.unwrap());
    assert!(t.proposed.tops_w_mult > bs.tops_w_mult.unwrap());
}
