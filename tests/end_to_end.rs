//! Cross-crate integration tests: the proposed macro, the bit-serial
//! baseline and the experiment harness working together.

use bpimc::baseline::BitSerialImc;
use bpimc::core::{ImcMacro, LogicOp, MacroBank, MacroConfig, Precision};
use proptest::prelude::*;
use rand::Rng;

/// A random program of logic/arith ops produces identical results on the
/// bit-parallel macro and on plain host arithmetic.
#[test]
fn random_program_matches_host_reference() {
    let mut rng = bpimc::stats::seeded_rng(77);
    let p = Precision::P8;
    let mut mac = ImcMacro::new(MacroConfig::paper_macro());
    // Host mirror of rows 0..8 (16 words each).
    let mut host: Vec<Vec<u64>> = (0..8)
        .map(|_| (0..16).map(|_| rng.random::<u64>() & 0xFF).collect())
        .collect();
    for (r, words) in host.iter().enumerate() {
        mac.write_words(r, p, words).unwrap();
    }
    for step in 0..200 {
        let a = rng.random_range(0..8usize);
        let mut b = rng.random_range(0..8usize);
        if b == a {
            b = (b + 1) % 8;
        }
        let d = rng.random_range(0..8usize);
        match step % 5 {
            0 => {
                mac.add(a, b, d, p).unwrap();
                host[d] = (0..16).map(|i| (host[a][i] + host[b][i]) & 0xFF).collect();
            }
            1 => {
                mac.sub(a, b, d, p).unwrap();
                host[d] = (0..16)
                    .map(|i| host[a][i].wrapping_sub(host[b][i]) & 0xFF)
                    .collect();
            }
            2 => {
                mac.logic(LogicOp::Xor, a, b, d).unwrap();
                host[d] = (0..16).map(|i| host[a][i] ^ host[b][i]).collect();
            }
            3 => {
                mac.shl(a, d, p).unwrap();
                host[d] = (0..16).map(|i| (host[a][i] << 1) & 0xFF).collect();
            }
            _ => {
                mac.add_shift(a, b, d, p).unwrap();
                host[d] = (0..16)
                    .map(|i| ((host[a][i] + host[b][i]) << 1) & 0xFF)
                    .collect();
            }
        }
        let got = mac.read_words(d, p, 16).unwrap();
        assert_eq!(got, host[d], "diverged at step {step}");
    }
}

/// The two architectures agree on add/sub/mult across precisions.
#[test]
fn architectures_agree_across_precisions() {
    for p in [Precision::P2, Precision::P4, Precision::P8] {
        let bits = p.bits();
        let n_words = 4usize;
        let a: Vec<u64> = (0..n_words as u64)
            .map(|i| (i * 3 + 1) & p.mask())
            .collect();
        let b: Vec<u64> = (0..n_words as u64)
            .map(|i| (i * 5 + 2) & p.mask())
            .collect();

        let mut mac = ImcMacro::new(MacroConfig::paper_macro());
        mac.write_mult_operands(0, p, &a).unwrap();
        mac.write_mult_operands(1, p, &b).unwrap();
        mac.mult(0, 1, 2, p).unwrap();
        let prop = mac.read_products(2, p, n_words).unwrap();

        let mut ser = BitSerialImc::new(8 * bits, n_words);
        ser.write_words(0, bits, &a).unwrap();
        ser.write_words(bits, bits, &b).unwrap();
        ser.mult(0, bits, 2 * bits, bits).unwrap();
        let conv = ser.read_words(2 * bits, 2 * bits, n_words).unwrap();

        assert_eq!(prop, conv, "disagreement at {p}");
    }
}

/// The paper's 128 KB chip as 64 macros of a bank: a P8 ADD takes one
/// cycle on each, so one add over the chip processes all 64 x 16 lanes.
#[test]
fn chip_scales_word_throughput() {
    let p = Precision::P8;
    let config = MacroConfig::paper_macro();
    let macros = 64;
    assert_eq!(macros * config.geometry.capacity_bytes(), 128 * 1024);
    let lanes = p.lanes(config.geometry.cols);
    assert_eq!(macros * lanes, 1024);
    let mut bank = MacroBank::new(macros, config);
    let jobs: Vec<u64> = (0..macros as u64).collect();
    let runs = bank.try_run_batch(&jobs, |mac, &j| {
        let a: Vec<u64> = (0..lanes as u64).map(|k| (j * 16 + k) & 0xFF).collect();
        mac.write_words(0, p, &a).unwrap();
        mac.write_words(1, p, &vec![1; lanes]).unwrap();
        let cycles = mac.add(0, 1, 2, p).unwrap();
        (cycles, mac.read_words(2, p, lanes).unwrap())
    });
    for (j, run) in runs.into_iter().enumerate() {
        let (cycles, sums) = run.expect("no job panics");
        assert_eq!(cycles, 1, "an ADD is one cycle on every macro");
        for (k, sum) in sums.into_iter().enumerate() {
            assert_eq!(sum, (j * 16 + k + 1) as u64 & 0xFF);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Distributivity on the macro: a*(b+c) == a*b + a*c (mod 2^16 lanes),
    /// computed entirely in-memory.
    #[test]
    fn in_memory_distributivity(a in 0u64..256, b in 0u64..256, c in 0u64..256) {
        let p = Precision::P8;
        let mut mac = ImcMacro::new(MacroConfig::paper_macro());
        // b + c (8-bit wrap) then a * (b+c).
        mac.write_words(0, p, &[b]).unwrap();
        mac.write_words(1, p, &[c]).unwrap();
        mac.add(0, 1, 2, p).unwrap();
        let bc = mac.read_words(2, p, 1).unwrap()[0];
        mac.write_mult_operands(3, p, &[a]).unwrap();
        mac.write_mult_operands(4, p, &[bc]).unwrap();
        mac.mult(3, 4, 5, p).unwrap();
        let lhs = mac.read_products(5, p, 1).unwrap()[0];

        // a*b and a*c then add at 16-bit.
        mac.write_mult_operands(6, p, &[b]).unwrap();
        mac.mult(3, 6, 7, p).unwrap();
        let ab = mac.read_products(7, p, 1).unwrap()[0];
        mac.write_mult_operands(8, p, &[c]).unwrap();
        mac.mult(3, 8, 9, p).unwrap();
        let ac = mac.read_products(9, p, 1).unwrap()[0];
        mac.write_words(10, Precision::P16, &[ab]).unwrap();
        mac.write_words(11, Precision::P16, &[ac]).unwrap();
        mac.add(10, 11, 12, Precision::P16).unwrap();
        let rhs = mac.read_words(12, Precision::P16, 1).unwrap()[0];

        prop_assert_eq!(lhs, (a * ((b + c) & 0xFF)) & 0xFFFF);
        prop_assert_eq!(rhs, (a * b + a * c) & 0xFFFF);
    }
}
