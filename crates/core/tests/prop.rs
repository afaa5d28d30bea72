//! Property tests for the macro executor: algebraic identities computed
//! entirely in-memory, plus the pinning of the [`Program`] executor to
//! direct `ImcMacro` method calls (identical result bits, identical
//! cycle-by-cycle activity — and therefore identical energy — across
//! P2–P32).

use bpimc_core::prog::ProgramBuilder;
use bpimc_core::{ImcMacro, LogicOp, MacroConfig, Precision};
use proptest::prelude::*;

fn words(n: usize, mask: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..=mask, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// De Morgan: NOT(a AND b) == NOT(a) OR NOT(b), all lanes.
    #[test]
    fn de_morgan(a in words(16, 0xFF), b in words(16, 0xFF)) {
        let p = Precision::P8;
        let mut m = ImcMacro::new(MacroConfig::paper_macro());
        m.write_words(0, p, &a).unwrap();
        m.write_words(1, p, &b).unwrap();
        // lhs = NAND(a, b)
        m.logic(LogicOp::Nand, 0, 1, 2).unwrap();
        // rhs = NOT a OR NOT b
        m.not(0, 3).unwrap();
        m.not(1, 4).unwrap();
        m.logic(LogicOp::Or, 3, 4, 5).unwrap();
        prop_assert_eq!(m.read_words(2, p, 16).unwrap(), m.read_words(5, p, 16).unwrap());
    }

    /// x + x == x << 1 per lane.
    #[test]
    fn doubling_is_shifting(a in words(16, 0xFF)) {
        let p = Precision::P8;
        let mut m = ImcMacro::new(MacroConfig::paper_macro());
        m.write_words(0, p, &a).unwrap();
        m.copy(0, 1).unwrap();
        m.add(0, 1, 2, p).unwrap();
        m.shl(0, 3, p).unwrap();
        prop_assert_eq!(m.read_words(2, p, 16).unwrap(), m.read_words(3, p, 16).unwrap());
    }

    /// a - b == ~(b - a) + 1 (two's complement negation), all lanes.
    #[test]
    fn subtraction_antisymmetry(a in words(16, 0xFF), b in words(16, 0xFF)) {
        let p = Precision::P8;
        let mut m = ImcMacro::new(MacroConfig::paper_macro());
        m.write_words(0, p, &a).unwrap();
        m.write_words(1, p, &b).unwrap();
        m.sub(0, 1, 2, p).unwrap();
        m.sub(1, 0, 3, p).unwrap();
        let d1 = m.read_words(2, p, 16).unwrap();
        let d2 = m.read_words(3, p, 16).unwrap();
        for i in 0..16 {
            prop_assert_eq!(d1[i], (!d2[i]).wrapping_add(1) & 0xFF);
        }
    }

    /// Multiplication by powers of two equals repeated add-shift, and
    /// mult by 0/1 behave as annihilator/identity.
    #[test]
    fn mult_identities(a in words(8, 0xFF)) {
        let p = Precision::P8;
        let mut m = ImcMacro::new(MacroConfig::paper_macro());
        m.write_mult_operands(0, p, &a).unwrap();
        m.write_mult_operands(1, p, &[1; 8]).unwrap();
        m.mult(0, 1, 2, p).unwrap();
        prop_assert_eq!(m.read_products(2, p, 8).unwrap(), a.clone());
        m.write_mult_operands(3, p, &[0; 8]).unwrap();
        m.mult(0, 3, 4, p).unwrap();
        prop_assert_eq!(m.read_products(4, p, 8).unwrap(), vec![0; 8]);
    }

    /// Commutativity of in-memory multiplication.
    #[test]
    fn mult_commutes(a in words(8, 0xFF), b in words(8, 0xFF)) {
        let p = Precision::P8;
        let mut m = ImcMacro::new(MacroConfig::paper_macro());
        m.write_mult_operands(0, p, &a).unwrap();
        m.write_mult_operands(1, p, &b).unwrap();
        m.mult(0, 1, 2, p).unwrap();
        m.mult(1, 0, 3, p).unwrap();
        prop_assert_eq!(m.read_products(2, p, 8).unwrap(), m.read_products(3, p, 8).unwrap());
    }

    /// 32-bit extension: products match host arithmetic.
    #[test]
    fn mult_32bit_extension(a in 0u64..=u32::MAX as u64, b in 0u64..=u32::MAX as u64) {
        let p = Precision::P32;
        let mut m = ImcMacro::new(MacroConfig::paper_macro());
        m.write_mult_operands(0, p, &[a]).unwrap();
        m.write_mult_operands(1, p, &[b]).unwrap();
        let cycles = m.mult(0, 1, 2, p).unwrap();
        prop_assert_eq!(cycles, 34); // N + 2
        prop_assert_eq!(m.read_products(2, p, 1).unwrap()[0], a * b);
    }

    /// The limb-parallel engine changes host time only: reported cycle
    /// counts AND logged cycle counts stay at the Table I ground truth for
    /// every precision and row width (Fig. 9 sweeps 128-1024 columns).
    #[test]
    fn cycle_accounting_is_table1_at_any_width(
        width_step in 0usize..8,
        p_pick in 0usize..3,
        a in 0u64..256,
        b in 0u64..256,
    ) {
        let cols = 128 + width_step * 128;
        let p = [Precision::P2, Precision::P4, Precision::P8][p_pick];
        let bits = p.bits() as u64;
        let (a, b) = (a & p.mask(), b & p.mask());
        let mut m = ImcMacro::new(MacroConfig::with_cols(cols));
        m.write_words(0, p, &[a]).unwrap();
        m.write_words(1, p, &[b]).unwrap();
        m.clear_activity();
        prop_assert_eq!(m.add(0, 1, 2, p).unwrap(), 1);
        prop_assert_eq!(m.activity().total_cycles(), 1);
        prop_assert_eq!(m.sub(0, 1, 3, p).unwrap(), 2);
        prop_assert_eq!(m.activity().total_cycles(), 3);
        prop_assert_eq!(m.shl(0, 4, p).unwrap(), 1);
        prop_assert_eq!(m.add_shift(0, 1, 5, p).unwrap(), 1);
        prop_assert_eq!(m.activity().total_cycles(), 5);
        prop_assert_eq!(m.read_words(2, p, 1).unwrap()[0], (a + b) & p.mask());

        let mut mm = ImcMacro::new(MacroConfig::with_cols(cols));
        mm.write_mult_operands(0, p, &[a]).unwrap();
        mm.write_mult_operands(1, p, &[b]).unwrap();
        mm.clear_activity();
        prop_assert_eq!(mm.mult(0, 1, 2, p).unwrap(), bits + 2);
        prop_assert_eq!(mm.activity().total_cycles(), bits + 2);
        prop_assert_eq!(mm.read_products(2, p, 1).unwrap()[0], a * b);
    }

    /// Wide rows exercise the heap-backed limb path end to end: every
    /// product lane of a 1024-column macro multiplies correctly.
    #[test]
    fn mult_all_lanes_on_1024_columns(a in words(64, 0xFF), b in words(64, 0xFF)) {
        let p = Precision::P8;
        let mut m = ImcMacro::new(MacroConfig::with_cols(1024));
        m.write_mult_operands(0, p, &a).unwrap();
        m.write_mult_operands(1, p, &b).unwrap();
        m.mult(0, 1, 2, p).unwrap();
        let got = m.read_products(2, p, 64).unwrap();
        for i in 0..64 {
            prop_assert_eq!(got[i], a[i] * b[i], "lane {}", i);
        }
    }

    /// The program executor is pinned to direct `ImcMacro` method calls:
    /// for every precision P2–P32, the same dense-lane pipeline (writes,
    /// add, sub, logic, not, copy, shl, add_shift, reduce) produces
    /// identical result bits AND an identical cycle-by-cycle activity log
    /// — which makes cycle and energy accounting identical by
    /// construction.
    #[test]
    fn program_matches_direct_method_calls_at_every_precision(
        p_pick in 0usize..5,
        a in words(4, 3),
        b in words(4, 3),
    ) {
        let p = Precision::ALL[p_pick];
        let lanes = p.lanes(128).min(4);
        let a: Vec<u64> = a[..lanes].iter().map(|v| v & p.mask()).collect();
        let b: Vec<u64> = b[..lanes].iter().map(|v| v & p.mask()).collect();

        // Program side.
        let mut bld = ProgramBuilder::new();
        let ra = bld.write(p, a.clone());
        let rb = bld.write(p, b.clone());
        let sum = bld.add(ra, rb, p);
        let diff = bld.sub(ra, rb, p);
        let x = bld.logic(LogicOp::Xor, ra, rb);
        let inv = bld.not(ra);
        let cp = bld.copy(rb);
        let sh = bld.shl(cp, p);
        let ash = bld.add_shift(ra, rb, p);
        let red = bld.reduce_add(&[sum, diff, x], p);
        for r in [sum, diff, x, inv, cp, sh, ash, red] {
            bld.read(r, p, lanes);
        }
        let prog = bld.finish();
        let mut pm = ImcMacro::new(MacroConfig::paper_macro());
        let run = prog.run(&mut pm).unwrap();

        // Direct side: the same sequence as raw method calls, register i
        // on row i.
        let mut dm = ImcMacro::new(MacroConfig::paper_macro());
        dm.write_words(0, p, &a).unwrap();
        dm.write_words(1, p, &b).unwrap();
        dm.add(0, 1, 2, p).unwrap();
        dm.sub(0, 1, 3, p).unwrap();
        dm.logic(LogicOp::Xor, 0, 1, 4).unwrap();
        dm.not(0, 5).unwrap();
        dm.copy(1, 6).unwrap();
        dm.shl(6, 7, p).unwrap();
        dm.add_shift(0, 1, 8, p).unwrap();
        dm.reduce_add(&[2, 3, 4], 9, p).unwrap();
        let mut direct_outs = Vec::new();
        for row in [2, 3, 4, 5, 6, 7, 8, 9] {
            direct_outs.push(dm.read_words(row, p, lanes).unwrap());
        }

        prop_assert_eq!(&run.outputs, &direct_outs);
        prop_assert_eq!(pm.activity().cycles(), dm.activity().cycles());
        prop_assert_eq!(pm.activity().total_cycles(), prog.cycles());
    }

    /// Same pinning for the product-lane path: write_mult + mult +
    /// read_products as a program vs direct calls, all precisions.
    #[test]
    fn program_mult_matches_direct_at_every_precision(
        p_pick in 0usize..5,
        a in 0u64..256,
        b in 0u64..256,
    ) {
        let p = Precision::ALL[p_pick];
        let (a, b) = (a & p.mask(), b & p.mask());

        let mut bld = ProgramBuilder::new();
        let ra = bld.write_mult(p, vec![a]);
        let rb = bld.write_mult(p, vec![b]);
        let prod = bld.mult(ra, rb, p);
        bld.read_products(prod, p, 1);
        let prog = bld.finish();
        let mut pm = ImcMacro::new(MacroConfig::paper_macro());
        let run = prog.run(&mut pm).unwrap();

        let mut dm = ImcMacro::new(MacroConfig::paper_macro());
        dm.write_mult_operands(0, p, &[a]).unwrap();
        dm.write_mult_operands(1, p, &[b]).unwrap();
        dm.mult(0, 1, 2, p).unwrap();
        let direct = dm.read_products(2, p, 1).unwrap();

        prop_assert_eq!(run.outputs[0][0], a * b);
        prop_assert_eq!(&run.outputs[0], &direct);
        prop_assert_eq!(pm.activity().cycles(), dm.activity().cycles());
        prop_assert_eq!(run.instr_cycles, vec![1, 1, p.bits() as u64 + 2, 1]);
    }

    /// The lowering pass's fused shl+add is bit- and accounting-identical
    /// to the hardware's explicit add_shift at every precision.
    #[test]
    fn fused_shl_add_equals_explicit_add_shift(
        p_pick in 0usize..5,
        a in words(4, u64::MAX),
        b in words(4, u64::MAX),
    ) {
        let p = Precision::ALL[p_pick];
        let lanes = p.lanes(128).min(4);
        let a: Vec<u64> = a[..lanes].iter().map(|v| v & p.mask()).collect();
        let b: Vec<u64> = b[..lanes].iter().map(|v| v & p.mask()).collect();

        let build = |explicit: bool| {
            let mut bld = ProgramBuilder::new();
            let ra = bld.write(p, a.clone());
            let rb = bld.write(p, b.clone());
            let d = if explicit {
                bld.add_shift(ra, rb, p)
            } else {
                let s = bld.add(ra, rb, p);
                bld.shl(s, p)
            };
            bld.read(d, p, lanes);
            bld.finish()
        };
        let fused = build(false);
        let explicit = build(true);
        // The fusion saves the separate shl cycle: both cost 4.
        prop_assert_eq!(fused.cycles(), 4);
        prop_assert_eq!(explicit.cycles(), 4);

        let mut m1 = ImcMacro::new(MacroConfig::paper_macro());
        let mut m2 = ImcMacro::new(MacroConfig::paper_macro());
        let r1 = fused.run(&mut m1).unwrap();
        let r2 = explicit.run(&mut m2).unwrap();
        prop_assert_eq!(&r1.outputs, &r2.outputs);
        prop_assert_eq!(m1.activity().cycles(), m2.activity().cycles());
        for (x, y) in r1.outputs[0].iter().zip(a.iter().zip(&b)) {
            prop_assert_eq!(*x, ((y.0 + y.1) << 1) & p.mask());
        }
    }
}
