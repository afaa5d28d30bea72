//! Criterion benchmarks: one group per paper figure/table, plus simulator
//! micro-benchmarks.
//!
//! The figure/table benches wrap the same experiment runners the `repro`
//! CLI uses (with reduced Monte-Carlo sample counts where transient
//! simulation is involved), so `cargo bench` regenerates every evaluation
//! artefact and times it. The `macro_ops` group measures raw simulator
//! throughput of the core executor.

use bpimc_array::BitRow;
use bpimc_bench::experiments::{
    ablation, fig2, fig7a, fig7b, fig8, fig9, table1, table2, table3, vrange,
};
use bpimc_core::{ImcMacro, MacroBank, MacroConfig, Precision};
use bpimc_periph::CarryChain;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10).measurement_time(Duration::from_secs(8));

    g.bench_function("fig2_bl_delay_distribution_mc64", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(fig2::run(64, seed))
        })
    });
    g.bench_function("fig7a_corner_delays", |b| {
        b.iter(|| black_box(fig7a::run()))
    });
    g.bench_function("fig7b_fa_critical_path", |b| {
        b.iter(|| black_box(fig7b::run()))
    });
    g.bench_function("fig8_breakdown_fmax_tops", |b| {
        b.iter(|| black_box(fig8::run()))
    });
    g.bench_function("fig9_cycles_vs_bl_size", |b| {
        b.iter(|| black_box(fig9::run()))
    });
    g.bench_function("supply_range_validation", |b| {
        b.iter(|| black_box(vrange::run()))
    });
    g.finish();
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    g.bench_function("table1_op_cycles", |b| b.iter(|| black_box(table1::run())));
    g.bench_function("table2_energy_calibration", |b| {
        b.iter(|| black_box(table2::run()))
    });
    g.bench_function("table3_comparison", |b| b.iter(|| black_box(table3::run())));
    g.bench_function("ablation_studies", |b| {
        b.iter(|| black_box(ablation::run()))
    });
    g.finish();
}

fn bench_macro_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("macro_ops");
    let p = Precision::P8;
    let mut mac = ImcMacro::new(MacroConfig::paper_macro());
    mac.write_words(0, p, &[123; 16]).expect("fits");
    mac.write_words(1, p, &[45; 16]).expect("fits");
    mac.write_mult_operands(4, p, &[123; 8]).expect("fits");
    mac.write_mult_operands(5, p, &[45; 8]).expect("fits");
    for r in 8..16 {
        mac.write_words(r, p, &[(r as u64 * 31) % 256; 16])
            .expect("fits");
    }

    g.bench_function("add_row_128col_8b", |b| {
        b.iter(|| black_box(mac.add(0, 1, 2, p).expect("add")))
    });
    g.bench_function("sub_row_128col_8b", |b| {
        b.iter(|| black_box(mac.sub(0, 1, 3, p).expect("sub")))
    });
    g.bench_function("mult_row_128col_8b", |b| {
        b.iter(|| black_box(mac.mult(4, 5, 6, p).expect("mult")))
    });
    let reduce_rows: Vec<usize> = (8..16).collect();
    g.bench_function("reduce_add_8rows_8b", |b| {
        b.iter(|| black_box(mac.reduce_add(&reduce_rows, 6, p).expect("reduce")))
    });
    // An imc_dot-shaped workload: 64 features in 8 product-lane chunks.
    let x: Vec<u64> = (0..64u64).map(|i| (i * 37) % 256).collect();
    let w: Vec<u64> = (0..64u64).map(|i| (i * 53) % 256).collect();
    g.bench_function("imc_dot_64feat_8b", |b| {
        b.iter(|| {
            let lanes = p.product_lanes(mac.cols());
            let mut acc = 0u64;
            for (xc, wc) in x.chunks(lanes).zip(w.chunks(lanes)) {
                mac.write_mult_operands(0, p, xc).expect("fits");
                mac.write_mult_operands(1, p, wc).expect("fits");
                mac.mult(0, 1, 2, p).expect("mult");
                acc += mac
                    .read_products(2, p, xc.len())
                    .expect("read")
                    .iter()
                    .sum::<u64>();
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// The typed program executor vs the same pipeline as raw method calls:
/// measures the overhead of validation, lowering and per-instruction span
/// accounting on an imc_dot-shaped workload.
fn bench_program_pipeline(c: &mut Criterion) {
    use bpimc_nn::dot_program;

    let mut g = c.benchmark_group("program_pipeline");
    let p = Precision::P8;
    let mut mac = ImcMacro::new(MacroConfig::paper_macro());
    let x: Vec<u64> = (0..64u64).map(|i| (i * 37) % 256).collect();
    let w: Vec<u64> = (0..64u64).map(|i| (i * 53) % 256).collect();

    let prog = dot_program(p, &x, &w, mac.cols());
    g.bench_function("program_dot_64feat_8b", |b| {
        b.iter(|| {
            black_box(prog.run(&mut mac).expect("program runs"));
            mac.clear_activity();
        })
    });
    let compiled = prog.compile(mac.config()).expect("pipeline validates");
    g.bench_function("compiled_dot_64feat_8b", |b| {
        b.iter(|| {
            black_box(compiled.run(&mut mac).expect("compiled runs"));
            mac.clear_activity();
        })
    });
    g.bench_function("program_build_and_dot_64feat_8b", |b| {
        b.iter(|| {
            let prog = dot_program(p, &x, &w, mac.cols());
            black_box(prog.run(&mut mac).expect("program runs"));
            mac.clear_activity();
        })
    });
    g.bench_function("raw_calls_dot_64feat_8b", |b| {
        b.iter(|| {
            let lanes = p.product_lanes(mac.cols());
            let mut acc = 0u64;
            for (xc, wc) in x.chunks(lanes).zip(w.chunks(lanes)) {
                mac.write_mult_operands(0, p, xc).expect("fits");
                mac.write_mult_operands(1, p, wc).expect("fits");
                mac.mult(0, 1, 2, p).expect("mult");
                acc += mac
                    .read_products(2, p, xc.len())
                    .expect("read")
                    .iter()
                    .sum::<u64>();
            }
            mac.clear_activity();
            black_box(acc)
        })
    });
    g.finish();
}

/// The structure-of-arrays batch transient engine vs the scalar
/// one-instance-at-a-time solver on the fig2 Monte-Carlo workload (the
/// disturb study's sampled dual-WL bench). Both arms are single-threaded
/// — the batched arm is one cohort, the scalar arm an explicit sequential
/// loop over the same `(seed, i)` draws — so the ratio is the
/// SoA/vectorization win alone, not pool parallelism.
fn bench_transient_batch(c: &mut Criterion) {
    use bpimc_cell::blbench::{BlComputeBench, WlScheme};
    use bpimc_cell::disturb::DisturbStudy;
    use bpimc_circuit::mc::sample_rng;
    use bpimc_circuit::SimOptions;
    use bpimc_device::{Env, MismatchModel};

    let mut g = c.benchmark_group("transient_batch");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    let bench = BlComputeBench::new(128, Env::nominal(), WlScheme::short_boost_140ps());
    let study = DisturbStudy::new(bench.clone(), MismatchModel::nominal());
    // One cohort's worth of samples (BATCH_COHORT = 16).
    g.bench_function("fig2_delays_batched_16", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(study.delays(16, seed))
        })
    });
    // The same 16 samples (identical `sampled_circuit` draws) solved one
    // at a time on the calling thread by the scalar solver.
    g.bench_function("fig2_delays_scalar_16", |b| {
        let mut seed = 0u64;
        let window = bench.window();
        let nodes = study.bench_nodes();
        let opts = SimOptions::for_window(window);
        b.iter(|| {
            seed += 1;
            let delays: Vec<f64> = (0..16u64)
                .map(|i| {
                    let mut rng = sample_rng(seed, i);
                    let trace = study.sampled_circuit(&mut rng).run(&opts);
                    let out = bench.measure(&trace, &nodes, false, true);
                    out.delay_s.unwrap_or(window)
                })
                .collect();
            black_box(delays)
        })
    });
    g.finish();
}

/// Limb-parallel engine vs the per-column structural reference, and the
/// batched bank executor vs sequential execution of the same jobs.
fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    let chain = CarryChain::new(128, Precision::P8);
    let a = BitRow::from_limbs(128, vec![0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210]);
    let b = BitRow::from_limbs(128, vec![0x5555_AAAA_5555_AAAA, 0x0F0F_F0F0_0F0F_F0F0]);
    g.bench_function("chain_add_limb_parallel", |bch| {
        bch.iter(|| black_box(chain.add(&a, &b, false)))
    });
    g.bench_function("chain_add_bitwise_reference", |bch| {
        bch.iter(|| black_box(chain.add_bitwise(&a, &b, false)))
    });

    // Small batches measure dispatch overhead; the 2048-job batch is the
    // executor's intended regime (enough work to amortize a worker wake).
    let small: Vec<(u64, u64)> = (0..64).map(|i| (i % 256, (i * 7) % 256)).collect();
    let big: Vec<(u64, u64)> = (0..2048).map(|i| (i % 256, (i * 7) % 256)).collect();
    let run = |mac: &mut ImcMacro, job: &(u64, u64)| {
        mac.write_mult_operands(0, Precision::P8, &[job.0])
            .expect("fits");
        mac.write_mult_operands(1, Precision::P8, &[job.1])
            .expect("fits");
        mac.mult(0, 1, 2, Precision::P8).expect("mult");
        mac.read_products(2, Precision::P8, 1).expect("read")[0]
    };
    let mut bank = MacroBank::with_host_parallelism(MacroConfig::paper_macro());
    let mut single = ImcMacro::new(MacroConfig::paper_macro());
    g.bench_function("bank_batch_64_mults", |bch| {
        bch.iter(|| black_box(bank.try_run_batch(&small, run)))
    });
    g.bench_function("sequential_64_mults", |bch| {
        bch.iter(|| black_box(small.iter().map(|j| run(&mut single, j)).sum::<u64>()))
    });
    g.bench_function("bank_batch_2048_mults", |bch| {
        bch.iter(|| black_box(bank.try_run_batch(&big, run)))
    });
    g.bench_function("sequential_2048_mults", |bch| {
        bch.iter(|| black_box(big.iter().map(|j| run(&mut single, j)).sum::<u64>()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_figures,
    bench_tables,
    bench_macro_ops,
    bench_program_pipeline,
    bench_transient_batch,
    bench_engine
);
criterion_main!(benches);
