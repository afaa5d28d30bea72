//! The program executor's host overhead against raw `ImcMacro` calls:
//! the same work as a compiled program and as hand-written method calls,
//! in one process, so the gates are ratios that hold on any host.
//!
//! Each ratio is the median over 16 interleaved rounds (compiled, then
//! raw), so host frequency drift lands on both sides equally and a
//! noisy-neighbor burst that hits a few rounds moves the mean but not the
//! median. Debug builds do not optimize the kernels the two sides share,
//! so the test runs only in release (`cargo test --release -p bpimc-bench`,
//! CI's release-mode step). It is the only test in this file, so nothing
//! else in the process competes with its timing.

use bpimc_core::{ImcMacro, MacroConfig, Precision};
use bpimc_nn::{
    chunks_per_class, classify_bindings, classify_from_outputs, classify_program, dot_program,
    prototype_norms,
};
use std::time::Instant;

/// Most a compiled 16-feature dot pipeline may cost over raw calls.
const COMPILED_OVERHEAD_FACTOR: f64 = 1.25;
/// Most a served classification through the compiled template may cost
/// over raw calls with host scoring.
const CLASSIFY_OVERHEAD_FACTOR: f64 = 1.1;
const ROUNDS: usize = 16;

fn median_ratio(a: &[f64], b: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Seconds `f` takes.
fn time(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times optimized code; run with --release")]
fn compiled_programs_stay_close_to_raw_macro_calls() {
    let p = Precision::P8;
    let mut mac = ImcMacro::new(MacroConfig::paper_macro());
    let lanes = p.product_lanes(mac.cols());

    // A 16-feature dot pipeline, compiled once and run many times, against
    // the same writes, multiplies and reads as raw method calls.
    let x: Vec<u64> = (0..16).map(|i| (i * 37) % 256).collect();
    let w: Vec<u64> = (0..16).map(|i| (i * 53) % 256).collect();
    let compiled = dot_program(p, &x, &w, mac.cols())
        .compile(mac.config())
        .expect("pipeline validates");
    let per_round = 2000 / ROUNDS;
    let mut compiled_rounds = Vec::with_capacity(ROUNDS);
    let mut raw_rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        compiled_rounds.push(time(|| {
            for _ in 0..per_round {
                compiled.run(&mut mac).expect("compiled program runs");
                mac.clear_activity();
            }
        }));
        raw_rounds.push(time(|| {
            for _ in 0..per_round {
                for (xc, wc) in x.chunks(lanes).zip(w.chunks(lanes)) {
                    mac.write_mult_operands(0, p, xc).expect("fits");
                    mac.write_mult_operands(1, p, wc).expect("fits");
                    mac.mult(0, 1, 2, p).expect("mult");
                    mac.read_products(2, p, xc.len()).expect("read");
                }
                mac.clear_activity();
            }
        }));
    }
    let compiled_ratio = median_ratio(&compiled_rounds, &raw_rounds);

    // One whole classification (all four prototype dots), as a `classify`
    // request runs it: the per-model compiled template with the sample's
    // chunks rebound, against raw method calls with host scoring.
    let protos: Vec<Vec<u64>> = (0..4)
        .map(|c| (0..16).map(|i| (c * 37 + i * 11 + 3) % 256).collect())
        .collect();
    let norms = prototype_norms(&mut mac, p, &protos);
    mac.clear_activity();
    let dim = 16usize;
    let template = classify_program(p, &protos, &vec![0u64; dim], mac.cols())
        .compile(mac.config())
        .expect("classify template compiles");
    let chunks = chunks_per_class(p, dim, mac.cols());
    let xq: Vec<u64> = (0..dim as u64).map(|i| (i * 29 + 5) % 256).collect();
    let per_round = 400 / ROUNDS;
    let mut template_rounds = Vec::with_capacity(ROUNDS);
    let mut raw_rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        template_rounds.push(time(|| {
            for _ in 0..per_round {
                let inputs = classify_bindings(p, protos.len(), &xq, mac.cols());
                let outputs = template
                    .run_outputs(&mut mac, &inputs)
                    .expect("template runs");
                let got = classify_from_outputs(&outputs, chunks, &norms);
                assert!(got < protos.len());
                mac.clear_activity();
            }
        }));
        raw_rounds.push(time(|| {
            for _ in 0..per_round {
                let mut best: Option<(usize, f64)> = None;
                for (c, (w_q, &ww)) in protos.iter().zip(&norms).enumerate() {
                    let mut xw = 0u64;
                    for (xc, wc) in xq.chunks(lanes).zip(w_q.chunks(lanes)) {
                        mac.write_mult_operands(0, p, xc).expect("fits");
                        mac.write_mult_operands(1, p, wc).expect("fits");
                        mac.mult(0, 1, 2, p).expect("mult");
                        xw += mac
                            .read_products(2, p, xc.len())
                            .expect("read")
                            .iter()
                            .sum::<u64>();
                    }
                    let score = xw as f64 - ww as f64 / 2.0;
                    if best.is_none() || score > best.expect("set").1 {
                        best = Some((c, score));
                    }
                }
                assert!(best.expect("classified").0 < protos.len());
                mac.clear_activity();
            }
        }));
    }
    let classify_ratio = median_ratio(&template_rounds, &raw_rounds);

    println!("compiled/raw pipeline {compiled_ratio:.3}x (limit {COMPILED_OVERHEAD_FACTOR}x)");
    println!("classify template/raw {classify_ratio:.3}x (limit {CLASSIFY_OVERHEAD_FACTOR}x)");
    assert!(
        compiled_ratio <= COMPILED_OVERHEAD_FACTOR,
        "compiled/raw pipeline {compiled_ratio:.3}x > {COMPILED_OVERHEAD_FACTOR}x"
    );
    assert!(
        classify_ratio <= CLASSIFY_OVERHEAD_FACTOR,
        "classify template/raw {classify_ratio:.3}x > {CLASSIFY_OVERHEAD_FACTOR}x"
    );
}
