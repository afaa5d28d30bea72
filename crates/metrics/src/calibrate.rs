//! Calibration of the energy coefficients against the paper's Table II.
//!
//! Table II gives fifteen measured energies (ADD / SUB / MULT at 2/4/8-bit,
//! SUB and MULT with and without the BL separator). We fit the seven
//! [`EnergyParams`] coefficients by Nelder-Mead on the summed squared
//! *relative* error, in log-parameter space so every coefficient stays
//! positive. The optimiser is deterministic (fixed start simplex), so the
//! calibrated parameters are reproducible and cached.

use crate::energy::{table2_energy_fj, EnergyParams, Table2Op};
use bpimc_core::Precision;
use std::sync::OnceLock;

/// One Table II reference cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Cell {
    /// Operation.
    pub op: Table2Op,
    /// Word precision.
    pub precision: Precision,
    /// Whether the BL separator was active.
    pub separator: bool,
    /// The paper's energy per operation, femtojoules (0.9 V).
    pub paper_fj: f64,
}

/// The paper's Table II. ADD has no separator variant (its result is
/// written to the main array, which the separator cannot shield).
pub const PAPER_TABLE2: [Table2Cell; 15] = [
    Table2Cell {
        op: Table2Op::Add,
        precision: Precision::P2,
        separator: true,
        paper_fj: 68.2,
    },
    Table2Cell {
        op: Table2Op::Add,
        precision: Precision::P4,
        separator: true,
        paper_fj: 138.4,
    },
    Table2Cell {
        op: Table2Op::Add,
        precision: Precision::P8,
        separator: true,
        paper_fj: 274.8,
    },
    Table2Cell {
        op: Table2Op::Sub,
        precision: Precision::P2,
        separator: false,
        paper_fj: 152.3,
    },
    Table2Cell {
        op: Table2Op::Sub,
        precision: Precision::P4,
        separator: false,
        paper_fj: 307.5,
    },
    Table2Cell {
        op: Table2Op::Sub,
        precision: Precision::P8,
        separator: false,
        paper_fj: 612.2,
    },
    Table2Cell {
        op: Table2Op::Sub,
        precision: Precision::P2,
        separator: true,
        paper_fj: 136.5,
    },
    Table2Cell {
        op: Table2Op::Sub,
        precision: Precision::P4,
        separator: true,
        paper_fj: 274.9,
    },
    Table2Cell {
        op: Table2Op::Sub,
        precision: Precision::P8,
        separator: true,
        paper_fj: 545.4,
    },
    Table2Cell {
        op: Table2Op::Mult,
        precision: Precision::P2,
        separator: false,
        paper_fj: 357.4,
    },
    Table2Cell {
        op: Table2Op::Mult,
        precision: Precision::P4,
        separator: false,
        paper_fj: 1167.6,
    },
    Table2Cell {
        op: Table2Op::Mult,
        precision: Precision::P8,
        separator: false,
        paper_fj: 4186.4,
    },
    Table2Cell {
        op: Table2Op::Mult,
        precision: Precision::P2,
        separator: true,
        paper_fj: 296.0,
    },
    Table2Cell {
        op: Table2Op::Mult,
        precision: Precision::P4,
        separator: true,
        paper_fj: 922.4,
    },
    Table2Cell {
        op: Table2Op::Mult,
        precision: Precision::P8,
        separator: true,
        paper_fj: 3394.8,
    },
];

/// Outcome of a calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// The fitted coefficients.
    pub params: EnergyParams,
    /// `(cell, model_fj, relative_error)` for every Table II cell.
    pub cells: Vec<(Table2Cell, f64, f64)>,
    /// Root-mean-square relative error over all cells.
    pub rms_rel_err: f64,
    /// Worst-case relative error magnitude.
    pub max_rel_err: f64,
}

fn objective(x: &[f64; 7]) -> f64 {
    let params = EnergyParams::from_vec(x.map(f64::exp));
    PAPER_TABLE2
        .iter()
        .map(|cell| {
            let model = table2_energy_fj(cell.op, cell.precision, cell.separator, &params);
            let rel = (model - cell.paper_fj) / cell.paper_fj;
            rel * rel
        })
        .sum()
}

/// Runs the deterministic Nelder-Mead fit and builds the report.
pub fn calibrate() -> CalibrationReport {
    // Start from physically sensible magnitudes (fJ): dual compute 25,
    // single compute 12, full WB 9, shielded WB 1.5, invert extra 25,
    // FF 5, fixed 4.
    let x0 = [25.0_f64, 12.0, 9.0, 1.5, 25.0, 5.0, 4.0].map(f64::ln);
    let best = nelder_mead(objective, x0, 2500);
    let params = EnergyParams::from_vec(best.map(f64::exp));

    let mut cells = Vec::new();
    let mut sum_sq = 0.0;
    let mut worst: f64 = 0.0;
    for cell in PAPER_TABLE2 {
        let model = table2_energy_fj(cell.op, cell.precision, cell.separator, &params);
        let rel = (model - cell.paper_fj) / cell.paper_fj;
        sum_sq += rel * rel;
        worst = worst.max(rel.abs());
        cells.push((cell, model, rel));
    }
    CalibrationReport {
        params,
        cells,
        rms_rel_err: (sum_sq / PAPER_TABLE2.len() as f64).sqrt(),
        max_rel_err: worst,
    }
}

/// The calibrated coefficients, fit once per process and cached.
pub fn paper_calibrated_params() -> EnergyParams {
    static CACHE: OnceLock<EnergyParams> = OnceLock::new();
    *CACHE.get_or_init(|| calibrate().params)
}

/// A small deterministic Nelder-Mead minimiser over `R^7`.
fn nelder_mead<F: Fn(&[f64; 7]) -> f64>(f: F, x0: [f64; 7], iters: usize) -> [f64; 7] {
    const N: usize = 7;
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    // Initial simplex: x0 plus per-axis steps.
    let mut pts: Vec<[f64; 7]> = vec![x0];
    for i in 0..N {
        let mut p = x0;
        p[i] += 0.35;
        pts.push(p);
    }
    let mut vals: Vec<f64> = pts.iter().map(&f).collect();

    for _ in 0..iters {
        // Sort ascending by value.
        let mut idx: Vec<usize> = (0..pts.len()).collect();
        idx.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
        let pts_sorted: Vec<[f64; 7]> = idx.iter().map(|&i| pts[i]).collect();
        let vals_sorted: Vec<f64> = idx.iter().map(|&i| vals[i]).collect();
        pts = pts_sorted;
        vals = vals_sorted;

        if vals[N] - vals[0] < 1e-14 {
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = [0.0; 7];
        for p in pts.iter().take(N) {
            for (c, &x) in centroid.iter_mut().zip(p.iter()) {
                *c += x / N as f64;
            }
        }
        let worst = pts[N];
        let mut reflect = [0.0; 7];
        for i in 0..N {
            reflect[i] = centroid[i] + alpha * (centroid[i] - worst[i]);
        }
        let fr = f(&reflect);
        if fr < vals[0] {
            // Try expansion.
            let mut expand = [0.0; 7];
            for i in 0..N {
                expand[i] = centroid[i] + gamma * (reflect[i] - centroid[i]);
            }
            let fe = f(&expand);
            if fe < fr {
                pts[N] = expand;
                vals[N] = fe;
            } else {
                pts[N] = reflect;
                vals[N] = fr;
            }
        } else if fr < vals[N - 1] {
            pts[N] = reflect;
            vals[N] = fr;
        } else {
            // Contraction.
            let mut contract = [0.0; 7];
            for i in 0..N {
                contract[i] = centroid[i] + rho * (worst[i] - centroid[i]);
            }
            let fc = f(&contract);
            if fc < vals[N] {
                pts[N] = contract;
                vals[N] = fc;
            } else {
                // Shrink toward the best point.
                let best = pts[0];
                for p in pts.iter_mut().skip(1) {
                    for i in 0..N {
                        p[i] = best[i] + sigma * (p[i] - best[i]);
                    }
                }
                for (v, p) in vals.iter_mut().zip(pts.iter()).skip(1) {
                    *v = f(p);
                }
            }
        }
    }
    let mut idx: Vec<usize> = (0..pts.len()).collect();
    idx.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
    pts[idx[0]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_table2_within_tolerance() {
        let report = calibrate();
        assert!(
            report.rms_rel_err < 0.10,
            "rms relative error {:.3} too large",
            report.rms_rel_err
        );
        assert!(
            report.max_rel_err < 0.25,
            "worst relative error {:.3} too large",
            report.max_rel_err
        );
        // All coefficients must be physical (positive, sane magnitude).
        let EnergyParams {
            compute_dual_fj,
            compute_single_fj,
            wb_full_fj,
            wb_shielded_fj,
            wb_invert_extra_fj,
            ff_fj,
            cycle_fixed_fj,
        } = report.params;
        let p = [
            compute_dual_fj,
            compute_single_fj,
            wb_full_fj,
            wb_shielded_fj,
            wb_invert_extra_fj,
            ff_fj,
            cycle_fixed_fj,
        ];
        assert!(p.iter().all(|&x| x > 0.0 && x < 500.0), "params {p:?}");
    }

    #[test]
    fn calibrated_params_are_cached_and_deterministic() {
        let a = paper_calibrated_params();
        let b = paper_calibrated_params();
        assert_eq!(a, b);
        let fresh = calibrate().params;
        assert!((a.compute_dual_fj - fresh.compute_dual_fj).abs() < 1e-9);
    }

    #[test]
    fn separator_savings_direction_is_reproduced() {
        let p = paper_calibrated_params();
        for precision in [Precision::P2, Precision::P4, Precision::P8] {
            let wo = table2_energy_fj(Table2Op::Mult, precision, false, &p);
            let w = table2_energy_fj(Table2Op::Mult, precision, true, &p);
            assert!(w < wo, "{precision}: {w} !< {wo}");
        }
    }

    #[test]
    fn nelder_mead_minimises_a_quadratic() {
        let target = [1.0, -2.0, 0.5, 3.0, -1.0, 0.0, 2.0];
        let f = |x: &[f64; 7]| -> f64 {
            x.iter()
                .zip(target.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };
        let sol = nelder_mead(f, [0.0; 7], 4000);
        for (s, t) in sol.iter().zip(target.iter()) {
            assert!((s - t).abs() < 0.01, "{sol:?}");
        }
    }
}
