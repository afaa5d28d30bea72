//! Pins what the program layer reports over a fixed corpus: 400 seeded
//! random valid programs at each precision P2–P32.
//!
//! * `lint_output_is_pinned`: every diagnostic's code, severity, span and
//!   message goes into one FNV-1a hash, so a change to what any lint
//!   reports, or to how it words it, fails here.
//! * `run_output_is_pinned`: every run's outputs, per-instruction cycles
//!   and spans, and every cycle the macro logs go into another, once as
//!   built and once with every write rebound to fresh values, so a change
//!   to how programs execute or bill fails here.
//!
//! A change to a lint, or to the executor's results, must update the
//! constant on purpose and say why.
//!
//! The generator is adversarial on purpose: it injects dead overwrites,
//! copies, duplicate multi-cycle ops and independent chains, so every kept
//! lint fires somewhere in the corpus (the test asserts that it does).

use bpimc_core::prog::{Instr, Program, ProgramRun, Reg};
use bpimc_core::{ImcMacro, LogicOp, MacroConfig, Precision};

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

/// The seeded corpus: 400 generated programs at each precision, each
/// tagged with its precision and its index within it.
fn corpus() -> Vec<(Precision, usize, Program)> {
    let cfg = MacroConfig::paper_macro();
    let mut rng = 0x5EED_1A71_u64;
    let mut out = Vec::new();
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
            out.push((p, k, prog));
        }
    }
    out
}

/// FNV-1a, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A run's outputs, per-instruction cycles and spans, and every cycle
    /// the macro that ran it logged.
    fn run(&mut self, run: &ProgramRun, mac: &ImcMacro) {
        self.word(run.outputs.len() as u64);
        for out in &run.outputs {
            self.word(out.len() as u64);
            out.iter().for_each(|&v| self.word(v));
        }
        run.instr_cycles.iter().for_each(|&c| self.word(c));
        for span in &run.instr_spans {
            self.word(span.start as u64);
            self.word(span.end as u64);
        }
        let log = mac.activity().cycles();
        self.word(log.len() as u64);
        for c in log {
            for v in [
                c.kind as u64,
                c.compute_cols as u64,
                c.logic_cols as u64,
                c.wb_cols as u64,
                u64::from(c.wb_to_dummy),
                u64::from(c.wb_shielded),
                u64::from(c.wb_inverting),
                c.ff_bits as u64,
            ] {
                self.word(v);
            }
        }
    }
}

#[test]
fn lint_output_is_pinned() {
    let cfg = MacroConfig::paper_macro();
    let mut hash = Fnv::new();
    let mut fired = [0usize; KEPT.len()];
    for (p, k, prog) in corpus() {
        for d in prog.lint(&cfg) {
            let Some(slot) = KEPT.iter().position(|&c| c == d.code) else {
                panic!("unexpected diagnostic {d}");
            };
            fired[slot] += 1;
            hash.bytes(format!("P{} #{k}: {d}\n", p.bits()).as_bytes());
        }
    }
    let hash = hash.0;
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

#[test]
fn run_output_is_pinned() {
    let cfg = MacroConfig::paper_macro();
    let mut rng = 0xB1ED_5EED_u64;
    let mut hash = Fnv::new();
    let mut fused_shls = 0usize;
    for (p, _, prog) in corpus() {
        let mut mac = ImcMacro::new(cfg);
        let run = prog.run(&mut mac).expect("corpus programs are valid");
        hash.run(&run, &mac);
        fused_shls += prog
            .instrs()
            .iter()
            .zip(&run.instr_cycles)
            .filter(|(i, &c)| matches!(i, Instr::Shl { .. }) && c == 0)
            .count();

        let inputs: Vec<Vec<u64>> = prog
            .instrs()
            .iter()
            .filter_map(|i| match i {
                Instr::Write { values, .. } | Instr::WriteMult { values, .. } => Some(
                    values
                        .iter()
                        .map(|_| splitmix(&mut rng) & p.max_value())
                        .collect(),
                ),
                _ => None,
            })
            .collect();
        let bound: Vec<Option<&[u64]>> = inputs.iter().map(|v| Some(v.as_slice())).collect();
        let compiled = prog.compile(&cfg).expect("corpus programs are valid");
        let mut mac = ImcMacro::new(cfg);
        let rebound = compiled
            .run_with_inputs(&mut mac, &bound)
            .expect("bindings match the compiled writes");
        hash.run(&rebound, &mac);

        let mut lean = ImcMacro::new(cfg);
        let outputs = compiled
            .run_outputs(&mut lean, &bound)
            .expect("bindings match the compiled writes");
        assert_eq!(outputs, rebound.outputs);
        assert_eq!(lean, mac);
    }
    assert!(
        fused_shls > 0,
        "no shl fused into its add over the corpus; the pin would not cover fusion"
    );
    assert_eq!(
        hash.0, 0x1f3a_f1c5_79ed_7fa3,
        "program runs changed ({fused_shls} fused shl(s))"
    );
}
