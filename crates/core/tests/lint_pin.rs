//! Pins the output of `Program::lint` for the kept lints over a fixed
//! corpus: 400 seeded random valid programs at each precision P2–P32. Every
//! diagnostic's code, severity, span and message goes into one FNV-1a
//! hash, so a change to what any lint reports, or to how it words it, fails
//! here. A change to a lint must update the constant on purpose and say why.
//!
//! The generator is adversarial on purpose: it injects dead overwrites,
//! copies, duplicate multi-cycle ops and independent chains, so every kept
//! lint fires somewhere in the corpus (the test asserts that it does).

use bpimc_core::prog::{Instr, Program, Reg};
use bpimc_core::{LogicOp, MacroConfig, Precision};

/// One generator step: an op selector plus raw operand/value entropy the
/// builder folds into whatever instruction is currently constructible.
type Step = (u8, u16, u16, u64);

fn set_dst(instr: &mut Instr, reg: Reg) {
    match instr {
        Instr::Read { .. } | Instr::ReadProducts { .. } => unreachable!("reads define nothing"),
        Instr::Write { dst, .. }
        | Instr::WriteMult { dst, .. }
        | Instr::Logic { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::Copy { dst, .. }
        | Instr::Shl { dst, .. }
        | Instr::Add { dst, .. }
        | Instr::AddShift { dst, .. }
        | Instr::Sub { dst, .. }
        | Instr::Mult { dst, .. }
        | Instr::ReduceAdd { dst, .. } => *dst = reg,
    }
}

/// Builds a random valid program from generator steps. `dense`
/// tracks rows holding P-bit lane values, `prods` rows holding 2P-bit
/// product lanes; every constructed instruction only reads defined rows,
/// keeps dual-WL operands distinct, and masks values to the lane width —
/// so the result always passes `Program::validate`.
fn build_program(p: Precision, steps: &[Step]) -> Program {
    let cols = 128;
    let lanes = p.lanes(cols).min(4);
    let mut instrs: Vec<Instr> = Vec::new();
    let mut dense: Vec<Reg> = Vec::new();
    let mut prods: Vec<Reg> = Vec::new();
    let mut next = 0u16;
    let fresh = |next: &mut u16| {
        let r = Reg(*next);
        *next += 1;
        r
    };
    // Multi-cycle ops emitted so far, as (index) — fodder for duplicate
    // re-emission (what L003 reports).
    let mut multi: Vec<usize> = Vec::new();
    for &(op, s1, s2, value) in steps {
        let pick = |pool: &[Reg], sel: u16| pool[sel as usize % pool.len()];
        let pick2 = |pool: &[Reg], sel1: u16, sel2: u16| {
            let i = sel1 as usize % pool.len();
            let j = (i + 1 + sel2 as usize % (pool.len() - 1)) % pool.len();
            (pool[i], pool[j])
        };
        let values: Vec<u64> = (0..lanes as u64)
            .map(|k| (value.rotate_left(k as u32 * 7)) & p.max_value())
            .collect();
        match op % 12 {
            0 => {
                let dst = fresh(&mut next);
                instrs.push(Instr::Write {
                    dst,
                    precision: p,
                    values,
                });
                dense.push(dst);
            }
            // Overwrite an existing row: the previous value may become a
            // dead store (L001).
            1 if !dense.is_empty() => {
                let dst = pick(&dense, s1);
                instrs.push(Instr::Write {
                    dst,
                    precision: p,
                    values,
                });
            }
            2 if !dense.is_empty() => {
                let src = pick(&dense, s1);
                let dst = fresh(&mut next);
                instrs.push(Instr::Copy { src, dst });
                dense.push(dst);
            }
            3 if dense.len() >= 2 => {
                let (a, b) = pick2(&dense, s1, s2);
                let dst = fresh(&mut next);
                instrs.push(Instr::Add {
                    a,
                    b,
                    dst,
                    precision: p,
                });
                dense.push(dst);
            }
            4 if dense.len() >= 2 => {
                let (a, b) = pick2(&dense, s1, s2);
                let dst = fresh(&mut next);
                instrs.push(Instr::Sub {
                    a,
                    b,
                    dst,
                    precision: p,
                });
                multi.push(instrs.len() - 1);
                dense.push(dst);
            }
            5 if !dense.is_empty() => {
                let src = pick(&dense, s1);
                let dst = fresh(&mut next);
                instrs.push(Instr::Shl {
                    src,
                    dst,
                    precision: p,
                });
                dense.push(dst);
            }
            6 if dense.len() >= 2 => {
                let (a, b) = pick2(&dense, s1, s2);
                let dst = fresh(&mut next);
                instrs.push(Instr::Logic {
                    op: LogicOp::Xor,
                    a,
                    b,
                    dst,
                });
                dense.push(dst);
            }
            // Re-emit an earlier multi-cycle op: a guaranteed common
            // subexpression *if* its operand rows still hold the same
            // values. One in four keeps the original destination, which
            // recomputes into the row that may still hold the result.
            7 if !multi.is_empty() => {
                let mut dup = instrs[multi[s1 as usize % multi.len()]].clone();
                if s2 % 4 != 0 {
                    let dst = fresh(&mut next);
                    set_dst(&mut dup, dst);
                    if matches!(dup, Instr::Mult { .. }) {
                        prods.push(dst);
                    } else {
                        dense.push(dst);
                    }
                }
                instrs.push(dup);
            }
            8 => {
                let (wa, wb) = (fresh(&mut next), fresh(&mut next));
                let dst = fresh(&mut next);
                let ops: Vec<u64> = values.iter().take(2).copied().collect();
                instrs.push(Instr::WriteMult {
                    dst: wa,
                    precision: p,
                    values: ops.clone(),
                });
                instrs.push(Instr::WriteMult {
                    dst: wb,
                    precision: p,
                    values: ops,
                });
                instrs.push(Instr::Mult {
                    a: wa,
                    b: wb,
                    dst,
                    precision: p,
                });
                multi.push(instrs.len() - 1);
                prods.push(dst);
            }
            9 if dense.len() >= 2 => {
                let (a, b) = pick2(&dense, s1, s2);
                let dst = fresh(&mut next);
                instrs.push(Instr::ReduceAdd {
                    srcs: vec![a, b],
                    dst,
                    precision: p,
                });
                multi.push(instrs.len() - 1);
                dense.push(dst);
            }
            10 if !dense.is_empty() => {
                instrs.push(Instr::Read {
                    src: pick(&dense, s1),
                    precision: p,
                    n: lanes,
                });
            }
            11 if !prods.is_empty() => {
                instrs.push(Instr::ReadProducts {
                    src: pick(&prods, s1),
                    precision: p,
                    n: 2,
                });
            }
            _ => {
                // The selected op is not constructible yet; seed a write
                // instead so the stream keeps growing.
                let dst = fresh(&mut next);
                instrs.push(Instr::Write {
                    dst,
                    precision: p,
                    values,
                });
                dense.push(dst);
            }
        }
    }
    // Always observe the final state of the newest rows, so the program
    // has outputs.
    if let Some(&src) = dense.last() {
        instrs.push(Instr::Read {
            src,
            precision: p,
            n: lanes,
        });
    }
    if let Some(&src) = prods.last() {
        instrs.push(Instr::ReadProducts {
            src,
            precision: p,
            n: 2,
        });
    }
    Program::new(instrs)
}

/// SplitMix64: the corpus generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The codes the corpus must exercise: every lint except the retired L006.
const KEPT: [&str; 6] = ["L001", "L002", "L003", "L004", "L005", "L007"];

#[test]
fn lint_output_is_pinned() {
    let cfg = MacroConfig::paper_macro();
    let mut rng = 0x5EED_1A71_u64;
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut fired = [0usize; KEPT.len()];
    for p in Precision::ALL {
        for k in 0..400 {
            let len = 4 + splitmix(&mut rng) % 20;
            let steps: Vec<Step> = (0..len)
                .map(|_| {
                    let r = splitmix(&mut rng);
                    (
                        r as u8,
                        (r >> 8) as u16,
                        (r >> 24) as u16,
                        splitmix(&mut rng),
                    )
                })
                .collect();
            let prog = build_program(p, &steps);
            assert!(
                prog.validate(&cfg).is_ok(),
                "generator must emit valid programs"
            );
            for d in prog.lint(&cfg) {
                let Some(slot) = KEPT.iter().position(|&c| c == d.code) else {
                    panic!("unexpected diagnostic {d}");
                };
                fired[slot] += 1;
                for b in format!("P{} #{k}: {d}\n", p.bits()).bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    for (code, n) in KEPT.iter().zip(fired) {
        assert!(
            n > 0,
            "{code} never fired over the corpus; the pin would not cover it"
        );
    }
    assert_eq!(
        hash, 0x87a8_adae_0ad1_bf18,
        "lint output changed (per-code counts {fired:?})"
    );
}
