//! The typed program abstraction: one instruction stream from library
//! callers to the wire.
//!
//! The paper's macro is driven by an instruction decoder that sequences the
//! Table I operation set over one array. This module is that decoder's
//! software twin: a [`Program`] is a validated list of typed [`Instr`]s
//! over *virtual row registers* ([`Reg`]), built either with the
//! [`ProgramBuilder`] (library callers) or from the wire
//! (`exec_program` requests, see [`crate::wire`]).
//!
//! A `Program` offers three things a raw sequence of [`ImcMacro`] method
//! calls cannot:
//!
//! * **Upfront validation** ([`Program::validate`]) — register bounds
//!   against the macro geometry, def-before-use, operand aliasing that the
//!   bit-line compute path cannot express, and precision/lane-width
//!   compatibility — returning a structured [`ProgError`] *before* any
//!   array state changes.
//! * **A static cost model** — [`Program::cycles`] predicts the exact
//!   cycle count of a run before it happens, and every run asserts the
//!   prediction against the activity log afterwards. The per-cycle
//!   activity (and therefore energy) is the macro's own log of the run.
//! * **A lowering pass** — adjacent `add` + `shl`
//!   pairs fuse into the hardware's single-cycle `add_shift` path when the
//!   intermediate sum is dead afterwards.
//!
//! Programs execute in one place: [`Program::compile`] validates, lowers
//! and packs the writes' rows once, and [`CompiledProgram`]'s loop runs
//! the result on one macro. [`Program::run`] is compile-then-run; stored
//! programs compile once and rebind their writes per run
//! ([`CompiledProgram::run_with_inputs`]). A batch of independent programs
//! fans across a bank through
//! [`MacroBank::try_run_batch`](crate::MacroBank::try_run_batch), one
//! program per job.
//!
//! # Examples
//!
//! ```
//! use bpimc_core::prog::ProgramBuilder;
//! use bpimc_core::{MacroConfig, ImcMacro, Precision};
//!
//! let mut b = ProgramBuilder::new();
//! let x = b.write(Precision::P8, vec![10, 20, 30]);
//! let y = b.write(Precision::P8, vec![1, 2, 3]);
//! let sum = b.add(x, y, Precision::P8);
//! let doubled = b.shl(sum, Precision::P8); // fuses with the add
//! b.read(doubled, Precision::P8, 3);
//! let prog = b.finish();
//!
//! assert_eq!(prog.cycles(), 4); // write, write, fused add-shift, read
//! let mut mac = ImcMacro::new(MacroConfig::paper_macro());
//! let run = prog.run(&mut mac).unwrap();
//! assert_eq!(run.outputs[0], vec![22, 44, 66]);
//! assert_eq!(mac.activity().total_cycles(), prog.cycles());
//! ```

use crate::config::MacroConfig;
use crate::error::Error;
use crate::isa::OpKind;
use crate::macroblock::ImcMacro;
use bpimc_array::BitRow;
use bpimc_periph::{LogicOp, Precision};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

pub(crate) mod analysis;

/// A virtual row register. The executor maps register `i` to main-array
/// row `i`; a program may use at most as many registers as the macro has
/// rows (dummy rows stay internal to the ops that use them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

impl Reg {
    /// The physical main-array row this register maps to.
    pub(crate) fn row(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One typed instruction over virtual row registers — the program-level
/// vocabulary matching the macro's Table I operation set plus the word
/// packing/unpacking moves at the array boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Packs `values` into dense `precision` lanes and writes them to
    /// `dst`. One cycle.
    Write {
        /// Destination register.
        dst: Reg,
        /// Lane width.
        precision: Precision,
        /// One value per lane, LSB lane first.
        values: Vec<u64>,
    },
    /// Packs multiplication operands into the low half of each `2P`-wide
    /// product lane of `dst` (the Fig. 6 layout). One cycle.
    WriteMult {
        /// Destination register.
        dst: Reg,
        /// Operand width (`P`; the lane is `2P` wide).
        precision: Precision,
        /// One operand per product lane.
        values: Vec<u64>,
    },
    /// Reads the first `n` dense `precision` lanes of `src` out of the
    /// macro. One cycle; appends one vector to the run's outputs.
    Read {
        /// Source register.
        src: Reg,
        /// Lane width.
        precision: Precision,
        /// Lanes to read.
        n: usize,
    },
    /// Reads the first `n` products (each `2P` bits) of `src`. One cycle;
    /// appends one vector to the run's outputs.
    ReadProducts {
        /// Source register.
        src: Reg,
        /// Operand width of the multiplication that produced the row.
        precision: Precision,
        /// Product lanes to read.
        n: usize,
    },
    /// Bit-wise logic between `a` and `b` into `dst`. One cycle.
    Logic {
        /// Which logic function.
        op: LogicOp,
        /// First operand register (must differ from `b`).
        a: Reg,
        /// Second operand register.
        b: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// Bit-wise NOT of `src` into `dst`. One cycle.
    Not {
        /// Source register.
        src: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// Copies `src` to `dst`. One cycle.
    Copy {
        /// Source register.
        src: Reg,
        /// Destination register.
        dst: Reg,
    },
    /// Per-lane logical left shift of `src` by one into `dst`. One cycle.
    Shl {
        /// Source register.
        src: Reg,
        /// Destination register.
        dst: Reg,
        /// Lane width the carry chain is segmented to.
        precision: Precision,
    },
    /// Per-lane addition `dst = a + b` (wrapping). One cycle.
    Add {
        /// First operand register (must differ from `b`).
        a: Reg,
        /// Second operand register.
        b: Reg,
        /// Destination register.
        dst: Reg,
        /// Lane width.
        precision: Precision,
    },
    /// Per-lane add-and-shift `dst = (a + b) << 1`. One cycle.
    AddShift {
        /// First operand register (must differ from `b`).
        a: Reg,
        /// Second operand register.
        b: Reg,
        /// Destination register.
        dst: Reg,
        /// Lane width.
        precision: Precision,
    },
    /// Per-lane subtraction `dst = a - b` (two's complement). Two cycles.
    Sub {
        /// Minuend register.
        a: Reg,
        /// Subtrahend register.
        b: Reg,
        /// Destination register.
        dst: Reg,
        /// Lane width.
        precision: Precision,
    },
    /// Per-lane multiplication of product-lane operands; `P + 2` cycles.
    Mult {
        /// Multiplicand register (written with [`Instr::WriteMult`]).
        a: Reg,
        /// Multiplier register.
        b: Reg,
        /// Destination register (receives `2P`-wide products).
        dst: Reg,
        /// Operand width.
        precision: Precision,
    },
    /// In-memory reduction: sums `srcs` into `dst` with a chain of
    /// bit-parallel ADDs through the dummy rows. `n` cycles for `n > 1`
    /// sources, 2 for a single source (copy in, copy out).
    ReduceAdd {
        /// Source registers (must not be empty).
        srcs: Vec<Reg>,
        /// Destination register.
        dst: Reg,
        /// Lane width.
        precision: Precision,
    },
}

impl Instr {
    /// The wire name of this instruction (see [`crate::wire`]); logic
    /// instructions are named by their function (`and`/`or`/…), exactly
    /// as the wire parser expects them back.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Instr::Write { .. } => "write",
            Instr::WriteMult { .. } => "write_mult",
            Instr::Read { .. } => "read",
            Instr::ReadProducts { .. } => "read_products",
            Instr::Logic {
                op: LogicOp::And, ..
            } => "and",
            Instr::Logic {
                op: LogicOp::Or, ..
            } => "or",
            Instr::Logic {
                op: LogicOp::Xor, ..
            } => "xor",
            Instr::Logic {
                op: LogicOp::Nand, ..
            } => "nand",
            Instr::Logic {
                op: LogicOp::Nor, ..
            } => "nor",
            Instr::Logic {
                op: LogicOp::Xnor, ..
            } => "xnor",
            Instr::Not { .. } => "not",
            Instr::Copy { .. } => "copy",
            Instr::Shl { .. } => "shl",
            Instr::Add { .. } => "add",
            Instr::AddShift { .. } => "add_shift",
            Instr::Sub { .. } => "sub",
            Instr::Mult { .. } => "mult",
            Instr::ReduceAdd { .. } => "reduce_add",
        }
    }

    /// True for instructions that append a vector to the run's outputs.
    pub(crate) fn is_read(&self) -> bool {
        matches!(self, Instr::Read { .. } | Instr::ReadProducts { .. })
    }

    /// The registers this instruction reads.
    pub(crate) fn sources(&self) -> Vec<Reg> {
        match self {
            Instr::Write { .. } | Instr::WriteMult { .. } => Vec::new(),
            Instr::Read { src, .. }
            | Instr::ReadProducts { src, .. }
            | Instr::Not { src, .. }
            | Instr::Copy { src, .. }
            | Instr::Shl { src, .. } => vec![*src],
            Instr::Logic { a, b, .. }
            | Instr::Add { a, b, .. }
            | Instr::AddShift { a, b, .. }
            | Instr::Sub { a, b, .. }
            | Instr::Mult { a, b, .. } => vec![*a, *b],
            Instr::ReduceAdd { srcs, .. } => srcs.clone(),
        }
    }

    /// The register this instruction writes, if any.
    pub(crate) fn dst(&self) -> Option<Reg> {
        match self {
            Instr::Read { .. } | Instr::ReadProducts { .. } => None,
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
            | Instr::ReduceAdd { dst, .. } => Some(*dst),
        }
    }

    /// The cycles this instruction takes on the macro (the paper's Table I
    /// plus the data-movement moves).
    pub(crate) fn cycles(&self) -> u64 {
        match self {
            Instr::Write { .. }
            | Instr::WriteMult { .. }
            | Instr::Read { .. }
            | Instr::ReadProducts { .. } => 1,
            Instr::Logic { .. } | Instr::Not { .. } | Instr::Copy { .. } | Instr::Shl { .. } => 1,
            Instr::Add { .. } | Instr::AddShift { .. } => 1,
            Instr::Sub { .. } => 2,
            Instr::Mult { precision, .. } => OpKind::Mult.cycles(*precision),
            Instr::ReduceAdd { srcs, .. } => {
                if srcs.len() > 1 {
                    srcs.len() as u64
                } else {
                    2
                }
            }
        }
    }
}

/// A structured program-validation or execution failure. Every variant
/// carries the index of the offending instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgError {
    /// The program names more registers than the macro has rows.
    TooManyRegs {
        /// Registers the program uses (highest index + 1).
        needed: usize,
        /// Main-array rows available.
        rows: usize,
    },
    /// A register is read before any instruction wrote it.
    UseBeforeDef {
        /// The undefined register.
        reg: Reg,
        /// Index of the reading instruction.
        instr: usize,
    },
    /// A two-operand bit-line compute op names the same register twice
    /// (the dual-WL read cannot activate one row as both operands).
    OperandsAlias {
        /// The aliased register.
        reg: Reg,
        /// Index of the offending instruction.
        instr: usize,
    },
    /// The precision does not fit the row width (multiplication and
    /// product reads need `2P`-bit lanes).
    PrecisionTooWide {
        /// Lane width required in bits.
        needed_bits: usize,
        /// Columns available.
        cols: usize,
        /// Index of the offending instruction.
        instr: usize,
    },
    /// More values/lanes than the row holds at this precision.
    TooManyWords {
        /// Lanes requested.
        requested: usize,
        /// Lanes available.
        available: usize,
        /// Index of the offending instruction.
        instr: usize,
    },
    /// A value does not fit the instruction's precision.
    WordTooWide {
        /// The offending value.
        value: u64,
        /// The precision in bits.
        bits: usize,
        /// Index of the offending instruction.
        instr: usize,
    },
    /// A `reduce_add` with no sources.
    EmptyReduce {
        /// Index of the offending instruction.
        instr: usize,
    },
    /// A [`CompiledProgram::run_with_inputs`] call bound the wrong number
    /// of input vectors: one entry per `write`/`write_mult` instruction is
    /// required.
    InputCount {
        /// Write instructions in the program.
        expected: usize,
        /// Input entries supplied.
        got: usize,
    },
    /// A bound input vector's length differs from the compiled write's
    /// value count (the contract that keeps the static cost model and the
    /// baked `read` lane counts valid).
    InputLen {
        /// Index of the write instruction (submitted order).
        instr: usize,
        /// Values the write was compiled with.
        expected: usize,
        /// Values the binding supplied.
        got: usize,
    },
    /// The macro rejected an instruction at execution time — unreachable
    /// for a validated program; kept for defensive containment.
    Exec {
        /// Index of the failing instruction.
        instr: usize,
        /// The macro's error.
        source: Error,
    },
    /// A [`CompiledProgram`] was run on a macro whose configuration differs
    /// from the one it was compiled (validated) for.
    ConfigMismatch,
}

impl fmt::Display for ProgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgError::TooManyRegs { needed, rows } => {
                write!(
                    f,
                    "program uses {needed} registers but the macro has {rows} rows"
                )
            }
            ProgError::UseBeforeDef { reg, instr } => {
                write!(f, "instr {instr}: register {reg} read before any write")
            }
            ProgError::OperandsAlias { reg, instr } => {
                write!(
                    f,
                    "instr {instr}: both operands are {reg} (dual-WL reads need distinct rows)"
                )
            }
            ProgError::PrecisionTooWide {
                needed_bits,
                cols,
                instr,
            } => {
                write!(
                    f,
                    "instr {instr}: needs {needed_bits}-bit lanes but the row has {cols} columns"
                )
            }
            ProgError::TooManyWords {
                requested,
                available,
                instr,
            } => {
                write!(
                    f,
                    "instr {instr}: {requested} lanes requested but only {available} available"
                )
            }
            ProgError::WordTooWide { value, bits, instr } => {
                write!(f, "instr {instr}: value {value} does not fit {bits} bits")
            }
            ProgError::EmptyReduce { instr } => {
                write!(f, "instr {instr}: reduce_add needs at least one source")
            }
            ProgError::InputCount { expected, got } => {
                write!(
                    f,
                    "program has {expected} write instruction(s) but {got} input vector(s) were bound"
                )
            }
            ProgError::InputLen {
                instr,
                expected,
                got,
            } => {
                write!(
                    f,
                    "instr {instr}: bound input has {got} values but the stored write has {expected}"
                )
            }
            ProgError::Exec { instr, source } => {
                write!(f, "instr {instr} failed on the macro: {source}")
            }
            ProgError::ConfigMismatch => {
                write!(
                    f,
                    "compiled program run on a macro with a different configuration"
                )
            }
        }
    }
}

impl std::error::Error for ProgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProgError::Exec { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ProgError {
    /// The stable diagnostic code for this error kind (`E001`–`E012`, one
    /// per variant), carried by `invalid_program` wire errors and
    /// [`analysis::Diagnostic`]s. Codes are never renumbered: `E011` and
    /// `E013` belonged to variants that no longer exist and stay retired.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            ProgError::TooManyRegs { .. } => "E001",
            ProgError::UseBeforeDef { .. } => "E002",
            ProgError::OperandsAlias { .. } => "E003",
            ProgError::PrecisionTooWide { .. } => "E004",
            ProgError::TooManyWords { .. } => "E005",
            ProgError::WordTooWide { .. } => "E006",
            ProgError::EmptyReduce { .. } => "E007",
            ProgError::InputCount { .. } => "E008",
            ProgError::InputLen { .. } => "E009",
            ProgError::Exec { .. } => "E010",
            ProgError::ConfigMismatch => "E012",
        }
    }

    /// The index of the offending instruction, for variants that name one.
    pub(crate) fn instr(&self) -> Option<usize> {
        match self {
            ProgError::UseBeforeDef { instr, .. }
            | ProgError::OperandsAlias { instr, .. }
            | ProgError::PrecisionTooWide { instr, .. }
            | ProgError::TooManyWords { instr, .. }
            | ProgError::WordTooWide { instr, .. }
            | ProgError::EmptyReduce { instr }
            | ProgError::InputLen { instr, .. }
            | ProgError::Exec { instr, .. } => Some(*instr),
            ProgError::TooManyRegs { .. }
            | ProgError::InputCount { .. }
            | ProgError::ConfigMismatch => None,
        }
    }
}

/// The result of executing a [`Program`] on a macro.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramRun {
    /// One vector per `read`/`read_products` instruction, in program order.
    pub outputs: Vec<Vec<u64>>,
    /// Hardware cycles billed to each *submitted* instruction. A `shl`
    /// fused into the preceding `add` bills 0 (its cycle is in the fused
    /// `add_shift`, billed to the `add`).
    pub instr_cycles: Vec<u64>,
    /// Per-instruction spans into the executing macro's activity log
    /// (absolute cycle indices), for exact per-instruction energy
    /// accounting. A fused-away instruction has an empty span.
    pub instr_spans: Vec<Range<usize>>,
}

#[cfg(test)]
impl ProgramRun {
    /// Total hardware cycles of the run.
    pub(crate) fn total_cycles(&self) -> u64 {
        self.instr_cycles.iter().sum()
    }
}

/// A validated-on-demand instruction stream over virtual row registers.
///
/// Build one with [`ProgramBuilder`], or from explicit instructions (e.g.
/// parsed off the wire) with [`Program::new`]. See the module docs for the
/// full contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    instrs: Vec<Instr>,
    regs: usize,
}

impl Program {
    /// Wraps an explicit instruction list. The register file size is the
    /// highest register index used plus one.
    pub fn new(instrs: Vec<Instr>) -> Self {
        let regs = instrs
            .iter()
            .flat_map(|i| i.sources().into_iter().chain(i.dst()).map(|r| r.row() + 1))
            .max()
            .unwrap_or(0);
        Self { instrs, regs }
    }

    /// The submitted instruction stream (pre-lowering).
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of virtual registers the program uses.
    pub(crate) fn reg_count(&self) -> usize {
        self.regs
    }

    /// Number of `read`/`read_products` instructions (output vectors a run
    /// will produce).
    pub(crate) fn read_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.is_read()).count()
    }

    /// Validates the whole program against a macro configuration without
    /// touching any macro: register bounds, def-before-use, operand
    /// aliasing, precision/lane-width compatibility and value ranges.
    ///
    /// # Errors
    ///
    /// Returns the first problem found, with the offending instruction's
    /// index (see [`ProgError`]).
    pub fn validate(&self, config: &MacroConfig) -> Result<(), ProgError> {
        let rows = config.geometry.rows;
        let cols = config.geometry.cols;
        if self.regs > rows {
            return Err(ProgError::TooManyRegs {
                needed: self.regs,
                rows,
            });
        }
        let mut defined = vec![false; self.regs];
        for (idx, instr) in self.instrs.iter().enumerate() {
            for src in instr.sources() {
                if !defined[src.row()] {
                    return Err(ProgError::UseBeforeDef {
                        reg: src,
                        instr: idx,
                    });
                }
            }
            match instr {
                Instr::Write {
                    precision, values, ..
                } => {
                    check_values(values, *precision, precision.lanes(cols), idx)?;
                }
                Instr::WriteMult {
                    precision, values, ..
                } => {
                    check_product_width(*precision, cols, idx)?;
                    check_values(values, *precision, precision.product_lanes(cols), idx)?;
                }
                Instr::Read { precision, n, .. } => {
                    let available = precision.lanes(cols);
                    if *n > available {
                        return Err(ProgError::TooManyWords {
                            requested: *n,
                            available,
                            instr: idx,
                        });
                    }
                }
                Instr::ReadProducts { precision, n, .. } => {
                    check_product_width(*precision, cols, idx)?;
                    let available = precision.product_lanes(cols);
                    if *n > available {
                        return Err(ProgError::TooManyWords {
                            requested: *n,
                            available,
                            instr: idx,
                        });
                    }
                }
                Instr::Logic { a, b, .. }
                | Instr::Add { a, b, .. }
                | Instr::AddShift { a, b, .. } => {
                    if a == b {
                        return Err(ProgError::OperandsAlias {
                            reg: *a,
                            instr: idx,
                        });
                    }
                }
                Instr::Mult { precision, .. } => {
                    check_product_width(*precision, cols, idx)?;
                }
                Instr::ReduceAdd { srcs, .. } => {
                    if srcs.is_empty() {
                        return Err(ProgError::EmptyReduce { instr: idx });
                    }
                }
                Instr::Not { .. } | Instr::Copy { .. } | Instr::Shl { .. } | Instr::Sub { .. } => {}
            }
            if let Some(dst) = instr.dst() {
                defined[dst.row()] = true;
            }
        }
        Ok(())
    }

    /// The lowered instruction stream the executor actually runs: an
    /// `add r_t <- a, b` immediately followed by `shl d <- r_t` (same
    /// precision) fuses into the hardware's single-cycle
    /// `add_shift d <- a, b` when `r_t` is dead afterwards — the paper's
    /// ADD-shift path, saving one cycle per pair.
    pub(crate) fn lowered(&self) -> Vec<Instr> {
        self.lower_indexed().map(|(i, _)| i.into_owned()).collect()
    }

    /// Lowered instructions, each tagged with the index of the submitted
    /// instruction its cycles are billed to; only a fused `add_shift` is
    /// built, every other instruction is borrowed. One pass over the
    /// stream: the fusion-legality liveness question ("is the intermediate
    /// sum ever read later?") is answered from a precomputed last-read
    /// index per register, so lowering stays linear in program length
    /// (untrusted `exec_program` requests run through here on the
    /// dispatcher).
    fn lower_indexed(&self) -> impl Iterator<Item = (Cow<'_, Instr>, usize)> + '_ {
        let last_read = self.last_read_table();
        let mut idx = 0;
        std::iter::from_fn(move || {
            let at = idx;
            let instr = self.instrs.get(at)?;
            Some(match self.try_fuse_at(at, &last_read) {
                Some(fused) => {
                    idx += 2;
                    (Cow::Owned(fused), at)
                }
                None => {
                    idx += 1;
                    (Cow::Borrowed(instr), at)
                }
            })
        })
    }

    /// `last_read[r]` = highest instruction index that reads register `r`.
    fn last_read_table(&self) -> Vec<usize> {
        let mut last_read = vec![0usize; self.regs];
        for (idx, instr) in self.instrs.iter().enumerate() {
            for src in instr.sources() {
                if let Some(slot) = last_read.get_mut(src.row()) {
                    *slot = idx;
                }
            }
        }
        last_read
    }

    /// The fused `add_shift` for the pair starting at `idx`, when legal.
    fn try_fuse_at(&self, idx: usize, last_read: &[usize]) -> Option<Instr> {
        let Instr::Add {
            a,
            b,
            dst: t,
            precision,
        } = self.instrs.get(idx)?
        else {
            return None;
        };
        let Instr::Shl {
            src,
            dst: d,
            precision: shl_p,
        } = self.instrs.get(idx + 1)?
        else {
            return None;
        };
        if src != t || shl_p != precision {
            return None;
        }
        // The fused op skips materialising the intermediate sum in `t`, so
        // `t` must be dead afterwards: no later instruction may read it
        // (unless `t` and `d` coincide, in which case `t` holds the fused
        // result exactly as the two-instruction form would leave it). The
        // `shl` at `idx + 1` reads `t`, so "never read later" is exactly
        // `last_read[t] <= idx + 1`.
        if t != d && last_read.get(t.row()).is_some_and(|&lr| lr > idx + 1) {
            return None;
        }
        Some(Instr::AddShift {
            a: *a,
            b: *b,
            dst: *d,
            precision: *precision,
        })
    }

    /// Predicted total hardware cycles of a run — the static cost model
    /// over the *lowered* stream (Table I per-op counts; a fused
    /// `add`+`shl` pair costs one cycle).
    pub fn cycles(&self) -> u64 {
        self.lower_indexed().map(|(i, _)| i.cycles()).sum()
    }

    /// Predicted cycles billed to each submitted instruction (aligned with
    /// [`Program::instrs`]; a `shl` fused into its `add` predicts 0).
    pub fn instr_cycles(&self) -> Vec<u64> {
        let mut per = vec![0u64; self.instrs.len()];
        for (instr, idx) in self.lower_indexed() {
            per[idx] = instr.cycles();
        }
        per
    }

    /// Compiles for `mac`'s configuration and runs once: the read outputs
    /// and exact per-instruction accounting spans into the macro's activity
    /// log. See [`CompiledProgram::run`].
    ///
    /// # Errors
    ///
    /// Returns a [`ProgError`] from validation; the macro itself is only
    /// touched after validation succeeds.
    ///
    /// # Panics
    ///
    /// Panics if the executed cycle count diverges from the static cost
    /// model (a `prog` bug, never a data-dependent condition).
    pub fn run(&self, mac: &mut ImcMacro) -> Result<ProgramRun, ProgError> {
        self.compile(mac.config())?.run(mac)
    }

    /// Validates and lowers once for `config`, packing every write's values
    /// into its row, and returns a [`CompiledProgram`] whose runs skip all
    /// three: the form every program executes in, run once by
    /// [`Program::run`] and many times by stored programs.
    ///
    /// # Errors
    ///
    /// Forwards any validation [`ProgError`].
    pub fn compile(&self, config: &MacroConfig) -> Result<CompiledProgram, ProgError> {
        self.validate(config)?;
        let cols = config.geometry.cols;
        let mut predicted = 0;
        let mut writes = 0;
        let mut ops = Vec::with_capacity(self.instrs.len());
        for (instr, idx) in self.lower_indexed() {
            predicted += instr.cycles();
            let op = match &*instr {
                Instr::Write {
                    dst,
                    precision,
                    values,
                }
                | Instr::WriteMult {
                    dst,
                    precision,
                    values,
                } => {
                    let mult = matches!(&*instr, Instr::WriteMult { .. });
                    let row = if mult {
                        crate::words::pack_mult_operands(values, *precision, cols)
                    } else {
                        crate::words::pack_words(values, *precision, cols)
                    };
                    writes += 1;
                    Op::Write {
                        dst: dst.row(),
                        precision: *precision,
                        mult,
                        row: row.map_err(|source| ProgError::Exec { instr: idx, source })?,
                        len: values.len(),
                    }
                }
                _ => Op::Exec(instr.into_owned()),
            };
            ops.push((op, idx));
        }
        Ok(CompiledProgram {
            ops,
            submitted: self.instrs.len(),
            reads: self.read_count(),
            writes,
            predicted,
            config: *config,
        })
    }
}

/// A [`Program`] pre-resolved for one macro configuration: validated once,
/// lowered once into a flat op array, ready to run any number of times
/// with zero per-run validation or lowering cost.
///
/// The compiled-for [`MacroConfig`] is the cache key: running against a
/// macro with any other configuration returns
/// [`ProgError::ConfigMismatch`] instead of silently skipping the checks
/// that made the compilation sound.
///
/// # Examples
///
/// ```
/// use bpimc_core::prog::ProgramBuilder;
/// use bpimc_core::{ImcMacro, MacroConfig, Precision};
///
/// let mut b = ProgramBuilder::new();
/// let x = b.write(Precision::P8, vec![3, 4]);
/// let y = b.write(Precision::P8, vec![10, 20]);
/// let s = b.add(x, y, Precision::P8);
/// b.read(s, Precision::P8, 2);
/// let prog = b.finish();
///
/// let cfg = MacroConfig::paper_macro();
/// let compiled = prog.compile(&cfg).unwrap();
/// let mut mac = ImcMacro::new(cfg);
/// for _ in 0..3 {
///     let run = compiled.run(&mut mac).unwrap(); // no re-validation
///     assert_eq!(run.outputs[0], vec![13, 24]);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// Lowered ops, each tagged with the submitted-instruction index its
    /// cycles bill to.
    ops: Vec<(Op, usize)>,
    /// Submitted instruction count (sizes the per-instruction accounting).
    submitted: usize,
    /// Output vectors a run produces.
    reads: usize,
    /// `write`/`write_mult` ops: the bindable input slots of
    /// [`CompiledProgram::run_with_inputs`].
    writes: usize,
    /// Static total-cycle prediction over the lowered stream.
    predicted: u64,
    /// The configuration the program was validated against.
    config: MacroConfig,
}

/// One lowered op of a [`CompiledProgram`].
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// A `write` (or, with `mult`, a `write_mult`) of `row`, packed at
    /// compile time from `len` values; a bound input must have `len`
    /// values too, so the baked `read` lane counts stay right.
    Write {
        dst: usize,
        precision: Precision,
        mult: bool,
        row: BitRow,
        len: usize,
    },
    /// Every other lowered instruction.
    Exec(Instr),
}

impl CompiledProgram {
    /// Predicted total hardware cycles of a run (the static cost model).
    pub fn cycles(&self) -> u64 {
        self.predicted
    }

    /// Number of `write`/`write_mult` instructions — the input slots a
    /// [`CompiledProgram::run_with_inputs`] call binds, in submitted order.
    pub fn write_count(&self) -> usize {
        self.writes
    }

    /// Executes the pre-resolved op array on `mac` — no validation, no
    /// lowering, just the instruction stream and its accounting: a
    /// [`CompiledProgram::run_with_inputs`] that binds no write. Returns
    /// the read outputs and each submitted instruction's cycles and span
    /// in the macro's activity log (a fused-away `shl` bills 0 cycles and
    /// an empty span).
    ///
    /// # Errors
    ///
    /// Returns [`ProgError::ConfigMismatch`] if `mac` is not configured as
    /// compiled; forwards macro errors as [`ProgError::Exec`] (unreachable
    /// for the validated stream; kept for defensive containment).
    ///
    /// # Panics
    ///
    /// Panics if the executed cycle count diverges from the static cost
    /// model (a `prog` bug, never a data-dependent condition).
    pub fn run(&self, mac: &mut ImcMacro) -> Result<ProgramRun, ProgError> {
        self.run_accounted(mac, None)
    }

    /// Executes the pre-resolved op array with fresh *input bindings*: one
    /// entry per `write`/`write_mult` instruction in submitted order, where
    /// `Some(values)` replaces that write's values for this run and `None`
    /// keeps the compiled ones. This is the stored-program hot path — the
    /// same validated shape runs many times over new data with zero
    /// re-validation, re-lowering or instruction cloning.
    ///
    /// A bound vector must have exactly as many values as the write was
    /// compiled with (so the baked `read` lane counts and the static cost
    /// model stay correct) and every value must fit the write's precision.
    /// The cycle count and per-cycle activity of a bound run are identical
    /// to the compiled run's — writes cost one cycle regardless of data.
    ///
    /// # Errors
    ///
    /// [`ProgError::ConfigMismatch`] on a differently-configured macro,
    /// [`ProgError::InputCount`] / [`ProgError::InputLen`] /
    /// [`ProgError::WordTooWide`] on a bad binding (checked before any
    /// array state changes), and [`ProgError::Exec`] as in
    /// [`CompiledProgram::run`].
    ///
    /// # Panics
    ///
    /// Panics if the executed cycle count diverges from the static cost
    /// model (a `prog` bug, never a data-dependent condition).
    pub fn run_with_inputs(
        &self,
        mac: &mut ImcMacro,
        inputs: &[Option<&[u64]>],
    ) -> Result<ProgramRun, ProgError> {
        self.run_accounted(mac, Some(inputs))
    }

    /// [`CompiledProgram::run_with_inputs`] without the per-instruction
    /// accounting: returns just the read outputs, for callers that bill
    /// from the activity log's totals anyway (the serving classify path).
    /// The total-cycle cost-model assertion still runs.
    ///
    /// # Errors
    ///
    /// As [`CompiledProgram::run_with_inputs`].
    ///
    /// # Panics
    ///
    /// Panics if the executed cycle count diverges from the static cost
    /// model (a `prog` bug, never a data-dependent condition).
    pub fn run_outputs(
        &self,
        mac: &mut ImcMacro,
        inputs: &[Option<&[u64]>],
    ) -> Result<Vec<Vec<u64>>, ProgError> {
        self.exec(mac, Some(inputs), |_, _| {})
    }

    /// [`CompiledProgram::exec`] billing each submitted instruction its
    /// cycles and activity-log span.
    fn run_accounted(
        &self,
        mac: &mut ImcMacro,
        inputs: Option<&[Option<&[u64]>]>,
    ) -> Result<ProgramRun, ProgError> {
        let start = mac.activity().total_cycles() as usize;
        let mut instr_cycles = vec![0u64; self.submitted];
        let mut instr_spans = vec![start..start; self.submitted];
        let outputs = self.exec(mac, inputs, |idx, span| {
            instr_cycles[idx] = span.len() as u64;
            instr_spans[idx] = span;
        })?;
        Ok(ProgramRun {
            outputs,
            instr_cycles,
            instr_spans,
        })
    }

    /// The executor: checks the configuration and any `inputs` (`None`
    /// binds no write) before touching the array, runs every op on `mac`,
    /// hands `bill` each op's submitted-instruction index and span in the
    /// activity log, and asserts the static cost model against the cycles
    /// logged.
    fn exec(
        &self,
        mac: &mut ImcMacro,
        inputs: Option<&[Option<&[u64]>]>,
        mut bill: impl FnMut(usize, Range<usize>),
    ) -> Result<Vec<Vec<u64>>, ProgError> {
        if *mac.config() != self.config {
            return Err(ProgError::ConfigMismatch);
        }
        if let Some(inputs) = inputs {
            self.check_bindings(inputs)?;
        }
        let log_start = mac.activity().total_cycles();
        let mut outputs = Vec::with_capacity(self.reads);
        let mut slot = 0usize;
        for (op, idx) in &self.ops {
            let start = mac.activity().total_cycles() as usize;
            let done = match op {
                Op::Write {
                    dst,
                    precision,
                    mult,
                    row,
                    ..
                } => {
                    let bound = inputs.and_then(|inputs| inputs[slot]);
                    slot += 1;
                    match (bound, mult) {
                        (None, _) => mac.write_row(*dst, row),
                        (Some(values), false) => mac.write_words(*dst, *precision, values),
                        (Some(values), true) => mac.write_mult_operands(*dst, *precision, values),
                    }
                    .map(drop)
                }
                Op::Exec(instr) => exec_instr(instr, mac, &mut outputs),
            };
            done.map_err(|source| ProgError::Exec {
                instr: *idx,
                source,
            })?;
            bill(*idx, start..mac.activity().total_cycles() as usize);
        }
        let executed = mac.activity().total_cycles() - log_start;
        assert_eq!(
            executed, self.predicted,
            "static cost model diverged from the activity log"
        );
        Ok(outputs)
    }

    /// Checks a binding set against the compiled writes without touching
    /// any macro: entry count, per-entry length, value ranges.
    fn check_bindings(&self, inputs: &[Option<&[u64]>]) -> Result<(), ProgError> {
        if inputs.len() != self.writes {
            return Err(ProgError::InputCount {
                expected: self.writes,
                got: inputs.len(),
            });
        }
        let writes = self.ops.iter().filter_map(|(op, idx)| match op {
            Op::Write { precision, len, .. } => Some((*precision, *len, *idx)),
            Op::Exec(_) => None,
        });
        for ((precision, len, idx), bound) in writes.zip(inputs) {
            let Some(bound) = bound else { continue };
            if bound.len() != len {
                return Err(ProgError::InputLen {
                    instr: idx,
                    expected: len,
                    got: bound.len(),
                });
            }
            if let Some(&v) = bound.iter().find(|&&v| v > precision.max_value()) {
                return Err(ProgError::WordTooWide {
                    value: v,
                    bits: precision.bits(),
                    instr: idx,
                });
            }
        }
        Ok(())
    }
}

/// A typed builder allocating virtual registers as it goes.
///
/// Every data-producing method returns the [`Reg`] holding its result;
/// `read`/`read_products` return the index of the output vector the run
/// will produce. Registers can be overwritten (`write_to`,
/// [`ProgramBuilder::push`] with an explicit `dst`) so long loops can
/// recycle a fixed working set instead of exhausting the row budget.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    next_reg: u16,
    reads: usize,
}

impl ProgramBuilder {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh virtual register without writing it (useful as an
    /// explicit destination for [`ProgramBuilder::push`]).
    pub fn alloc(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Appends a raw instruction. Registers it names must come from
    /// [`ProgramBuilder::alloc`] or earlier builder calls.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        if instr.is_read() {
            self.reads += 1;
        }
        self.instrs.push(instr);
        self
    }

    /// Writes `values` into dense lanes of a fresh register.
    pub fn write(&mut self, precision: Precision, values: Vec<u64>) -> Reg {
        let dst = self.alloc();
        self.push(Instr::Write {
            dst,
            precision,
            values,
        });
        dst
    }

    /// Overwrites an existing register with dense-lane `values`.
    pub fn write_to(&mut self, dst: Reg, precision: Precision, values: Vec<u64>) {
        self.push(Instr::Write {
            dst,
            precision,
            values,
        });
    }

    /// Writes multiplication operands into a fresh register's product
    /// lanes.
    pub fn write_mult(&mut self, precision: Precision, values: Vec<u64>) -> Reg {
        let dst = self.alloc();
        self.push(Instr::WriteMult {
            dst,
            precision,
            values,
        });
        dst
    }

    /// Overwrites an existing register with product-lane operands.
    pub fn write_mult_to(&mut self, dst: Reg, precision: Precision, values: Vec<u64>) {
        self.push(Instr::WriteMult {
            dst,
            precision,
            values,
        });
    }

    /// Reads `n` dense lanes of `src`; returns the output-slot index.
    pub fn read(&mut self, src: Reg, precision: Precision, n: usize) -> usize {
        self.push(Instr::Read { src, precision, n });
        self.reads - 1
    }

    /// Reads `n` products of `src`; returns the output-slot index.
    pub fn read_products(&mut self, src: Reg, precision: Precision, n: usize) -> usize {
        self.push(Instr::ReadProducts { src, precision, n });
        self.reads - 1
    }

    /// Bit-wise logic into a fresh register.
    pub fn logic(&mut self, op: LogicOp, a: Reg, b: Reg) -> Reg {
        let dst = self.alloc();
        self.push(Instr::Logic { op, a, b, dst });
        dst
    }

    /// Bit-wise NOT into a fresh register.
    pub fn not(&mut self, src: Reg) -> Reg {
        let dst = self.alloc();
        self.push(Instr::Not { src, dst });
        dst
    }

    /// Row copy into a fresh register.
    pub fn copy(&mut self, src: Reg) -> Reg {
        let dst = self.alloc();
        self.push(Instr::Copy { src, dst });
        dst
    }

    /// Per-lane left shift by one into a fresh register.
    pub fn shl(&mut self, src: Reg, precision: Precision) -> Reg {
        let dst = self.alloc();
        self.push(Instr::Shl {
            src,
            dst,
            precision,
        });
        dst
    }

    /// Per-lane addition into a fresh register.
    pub fn add(&mut self, a: Reg, b: Reg, precision: Precision) -> Reg {
        let dst = self.alloc();
        self.push(Instr::Add {
            a,
            b,
            dst,
            precision,
        });
        dst
    }

    /// Per-lane add-and-shift into a fresh register.
    pub fn add_shift(&mut self, a: Reg, b: Reg, precision: Precision) -> Reg {
        let dst = self.alloc();
        self.push(Instr::AddShift {
            a,
            b,
            dst,
            precision,
        });
        dst
    }

    /// Per-lane subtraction into a fresh register.
    pub fn sub(&mut self, a: Reg, b: Reg, precision: Precision) -> Reg {
        let dst = self.alloc();
        self.push(Instr::Sub {
            a,
            b,
            dst,
            precision,
        });
        dst
    }

    /// Per-lane multiplication into a fresh register.
    pub fn mult(&mut self, a: Reg, b: Reg, precision: Precision) -> Reg {
        let dst = self.alloc();
        self.push(Instr::Mult {
            a,
            b,
            dst,
            precision,
        });
        dst
    }

    /// In-memory reduction of `srcs` into a fresh register.
    pub fn reduce_add(&mut self, srcs: &[Reg], precision: Precision) -> Reg {
        let dst = self.alloc();
        self.push(Instr::ReduceAdd {
            srcs: srcs.to_vec(),
            dst,
            precision,
        });
        dst
    }

    /// Finishes the build. The register file covers both allocated
    /// registers and any named explicitly in pushed instructions.
    pub fn finish(self) -> Program {
        let mut prog = Program::new(self.instrs);
        prog.regs = prog.regs.max(self.next_reg as usize);
        prog
    }
}

fn check_values(
    values: &[u64],
    precision: Precision,
    available: usize,
    instr: usize,
) -> Result<(), ProgError> {
    if values.len() > available {
        return Err(ProgError::TooManyWords {
            requested: values.len(),
            available,
            instr,
        });
    }
    if let Some(&v) = values.iter().find(|&&v| v > precision.max_value()) {
        return Err(ProgError::WordTooWide {
            value: v,
            bits: precision.bits(),
            instr,
        });
    }
    Ok(())
}

fn check_product_width(precision: Precision, cols: usize, instr: usize) -> Result<(), ProgError> {
    let needed_bits = 2 * precision.bits();
    if needed_bits > cols {
        return Err(ProgError::PrecisionTooWide {
            needed_bits,
            cols,
            instr,
        });
    }
    Ok(())
}

/// Executes one lowered instruction other than a write (those compile to
/// [`Op::Write`]) via the macro's method for it.
fn exec_instr(instr: &Instr, mac: &mut ImcMacro, outputs: &mut Vec<Vec<u64>>) -> Result<(), Error> {
    match instr {
        Instr::Write { .. } | Instr::WriteMult { .. } => {
            unreachable!("writes compile to Op::Write")
        }
        Instr::Read { src, precision, n } => {
            outputs.push(mac.read_words(src.row(), *precision, *n)?);
        }
        Instr::ReadProducts { src, precision, n } => {
            outputs.push(mac.read_products(src.row(), *precision, *n)?);
        }
        Instr::Logic { op, a, b, dst } => {
            mac.logic(*op, a.row(), b.row(), dst.row())?;
        }
        Instr::Not { src, dst } => {
            mac.not(src.row(), dst.row())?;
        }
        Instr::Copy { src, dst } => {
            mac.copy(src.row(), dst.row())?;
        }
        Instr::Shl {
            src,
            dst,
            precision,
        } => {
            mac.shl(src.row(), dst.row(), *precision)?;
        }
        Instr::Add {
            a,
            b,
            dst,
            precision,
        } => {
            mac.add(a.row(), b.row(), dst.row(), *precision)?;
        }
        Instr::AddShift {
            a,
            b,
            dst,
            precision,
        } => {
            mac.add_shift(a.row(), b.row(), dst.row(), *precision)?;
        }
        Instr::Sub {
            a,
            b,
            dst,
            precision,
        } => {
            mac.sub(a.row(), b.row(), dst.row(), *precision)?;
        }
        Instr::Mult {
            a,
            b,
            dst,
            precision,
        } => {
            mac.mult(a.row(), b.row(), dst.row(), *precision)?;
        }
        Instr::ReduceAdd {
            srcs,
            dst,
            precision,
        } => {
            let rows: Vec<usize> = srcs.iter().map(|r| r.row()).collect();
            mac.reduce_add(&rows, dst.row(), *precision)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MacroConfig {
        MacroConfig::paper_macro()
    }

    fn mac() -> ImcMacro {
        ImcMacro::new(cfg())
    }

    #[test]
    fn builder_pipeline_runs_and_reads() {
        let mut b = ProgramBuilder::new();
        let p = Precision::P8;
        let x = b.write(p, vec![7, 9]);
        let y = b.write(p, vec![5, 250]);
        let s = b.add(x, y, p);
        let d = b.sub(x, y, p);
        let slot_s = b.read(s, p, 2);
        let slot_d = b.read(d, p, 2);
        let prog = b.finish();
        assert_eq!(prog.read_count(), 2);
        let mut m = mac();
        let run = prog.run(&mut m).unwrap();
        assert_eq!(run.outputs[slot_s], vec![12, (9 + 250) & 0xFF]);
        assert_eq!(run.outputs[slot_d], vec![2, 9u64.wrapping_sub(250) & 0xFF]);
        // write + write + add + sub(2) + read + read
        assert_eq!(prog.cycles(), 7);
        assert_eq!(run.total_cycles(), 7);
        assert_eq!(m.activity().total_cycles(), 7);
    }

    #[test]
    fn compiled_program_matches_run_including_fusion_and_accounting() {
        let mut b = ProgramBuilder::new();
        let p = Precision::P8;
        let x = b.write(p, vec![10, 20, 30]);
        let y = b.write(p, vec![1, 2, 3]);
        let s = b.add(x, y, p); // fuses with the shl below
        let d = b.shl(s, p);
        b.read(d, p, 3);
        let prog = b.finish();
        // The same work as direct macro calls: the pair is one add_shift.
        let mut direct = mac();
        direct.write_words(x.row(), p, &[10, 20, 30]).unwrap();
        direct.write_words(y.row(), p, &[1, 2, 3]).unwrap();
        direct.add_shift(x.row(), y.row(), d.row(), p).unwrap();
        let want = direct.read_words(d.row(), p, 3).unwrap();
        assert_eq!(want, vec![22, 44, 66]);

        let compiled = prog.compile(&cfg()).unwrap();
        assert_eq!(compiled.cycles(), prog.cycles());
        let mut m = mac();
        let run = compiled.run(&mut m).unwrap();
        assert_eq!(run.outputs, vec![want]);
        assert_eq!(run.instr_cycles, vec![1, 1, 1, 0, 1]);
        assert_eq!(run.instr_spans, vec![0..1, 1..2, 2..3, 0..0, 3..4]);
        // Writes of rows packed at compile time leave the same rows, log
        // and separator counts as packing in the macro.
        assert_eq!(m, direct);
        // `Program::run` compiles and runs the same way.
        let mut m2 = mac();
        assert_eq!(prog.run(&mut m2).unwrap(), run);
        assert_eq!(m2, direct);
        // Repeat runs reuse the compilation and keep exact accounting.
        let again = compiled.run(&mut m).unwrap();
        assert_eq!(again.outputs, run.outputs);
        assert_eq!(again.instr_spans[4], 7..8);
        assert_eq!(again.total_cycles(), prog.cycles());
    }

    #[test]
    fn compiled_program_rejects_a_different_config() {
        let mut b = ProgramBuilder::new();
        let x = b.write(Precision::P8, vec![1]);
        b.read(x, Precision::P8, 1);
        let compiled = b.finish().compile(&cfg()).unwrap();
        let mut other = ImcMacro::new(cfg().with_separator(false));
        assert_eq!(compiled.run(&mut other), Err(ProgError::ConfigMismatch));
    }

    #[test]
    fn compile_forwards_validation_errors() {
        let prog = Program::new(vec![Instr::Add {
            a: Reg(0),
            b: Reg(1),
            dst: Reg(2),
            precision: Precision::P8,
        }]);
        assert!(matches!(
            prog.compile(&cfg()),
            Err(ProgError::UseBeforeDef { .. })
        ));
    }

    #[test]
    fn validation_catches_use_before_def() {
        let prog = Program::new(vec![Instr::Add {
            a: Reg(0),
            b: Reg(1),
            dst: Reg(2),
            precision: Precision::P8,
        }]);
        assert_eq!(
            prog.validate(&cfg()),
            Err(ProgError::UseBeforeDef {
                reg: Reg(0),
                instr: 0
            })
        );
    }

    #[test]
    fn validation_catches_register_overflow() {
        let prog = Program::new(vec![Instr::Write {
            dst: Reg(200),
            precision: Precision::P8,
            values: vec![1],
        }]);
        assert_eq!(
            prog.validate(&cfg()),
            Err(ProgError::TooManyRegs {
                needed: 201,
                rows: 128
            })
        );
    }

    #[test]
    fn validation_catches_aliased_operands() {
        let mut b = ProgramBuilder::new();
        let x = b.write(Precision::P8, vec![1]);
        b.push(Instr::Add {
            a: x,
            b: x,
            dst: Reg(1),
            precision: Precision::P8,
        });
        let prog = b.finish();
        assert!(matches!(
            prog.validate(&cfg()),
            Err(ProgError::OperandsAlias { instr: 1, .. })
        ));
    }

    #[test]
    fn validation_catches_width_problems() {
        let mut b = ProgramBuilder::new();
        b.write(Precision::P8, vec![256]);
        assert!(matches!(
            b.clone().finish().validate(&cfg()),
            Err(ProgError::WordTooWide {
                value: 256,
                bits: 8,
                instr: 0
            })
        ));

        let mut b = ProgramBuilder::new();
        b.write(Precision::P8, vec![0; 17]);
        assert!(matches!(
            b.clone().finish().validate(&cfg()),
            Err(ProgError::TooManyWords {
                requested: 17,
                available: 16,
                instr: 0
            })
        ));

        let mut b = ProgramBuilder::new();
        let a = b.write_mult(Precision::P16, vec![1]);
        let c = b.write_mult(Precision::P16, vec![2]);
        b.mult(a, c, Precision::P16);
        let small = MacroConfig::with_cols(16);
        assert!(matches!(
            b.finish().validate(&small),
            Err(ProgError::PrecisionTooWide {
                needed_bits: 32,
                cols: 16,
                instr: 0
            })
        ));
    }

    #[test]
    fn validation_catches_empty_reduce() {
        let mut b = ProgramBuilder::new();
        b.reduce_add(&[], Precision::P8);
        assert_eq!(
            b.finish().validate(&cfg()),
            Err(ProgError::EmptyReduce { instr: 0 })
        );
    }

    #[test]
    fn add_shl_fuses_when_intermediate_is_dead() {
        let p = Precision::P8;
        let mut b = ProgramBuilder::new();
        let x = b.write(p, vec![3]);
        let y = b.write(p, vec![5]);
        let s = b.add(x, y, p);
        let d = b.shl(s, p);
        b.read(d, p, 1);
        let prog = b.finish();
        let lowered = prog.lowered();
        assert_eq!(lowered.len(), 4);
        assert!(matches!(lowered[2], Instr::AddShift { .. }));
        assert_eq!(prog.cycles(), 4);
        assert_eq!(prog.instr_cycles(), vec![1, 1, 1, 0, 1]);

        let mut m = mac();
        let run = prog.run(&mut m).unwrap();
        assert_eq!(run.outputs[0], vec![16]);
        assert_eq!(run.instr_cycles, vec![1, 1, 1, 0, 1]);
        assert_eq!(m.activity().total_cycles(), 4);
    }

    #[test]
    fn add_shl_does_not_fuse_when_sum_is_read_later() {
        let p = Precision::P8;
        let mut b = ProgramBuilder::new();
        let x = b.write(p, vec![3]);
        let y = b.write(p, vec![5]);
        let s = b.add(x, y, p);
        let d = b.shl(s, p);
        b.read(d, p, 1);
        b.read(s, p, 1); // the sum stays live
        let prog = b.finish();
        assert_eq!(prog.lowered().len(), prog.instrs().len());
        assert_eq!(prog.cycles(), 6);
        let mut m = mac();
        let run = prog.run(&mut m).unwrap();
        assert_eq!(run.outputs, vec![vec![16], vec![8]]);
    }

    #[test]
    fn fusion_matches_explicit_add_shift_bit_for_bit() {
        let p = Precision::P4;
        let build = |explicit: bool| {
            let mut b = ProgramBuilder::new();
            let x = b.write(p, vec![5, 9, 15]);
            let y = b.write(p, vec![3, 7, 1]);
            let d = if explicit {
                b.add_shift(x, y, p)
            } else {
                let s = b.add(x, y, p);
                b.shl(s, p)
            };
            b.read(d, p, 3);
            b.finish()
        };
        let (fused, explicit) = (build(false), build(true));
        assert_eq!(fused.cycles(), explicit.cycles());
        let mut m1 = mac();
        let mut m2 = mac();
        let r1 = fused.run(&mut m1).unwrap();
        let r2 = explicit.run(&mut m2).unwrap();
        assert_eq!(r1.outputs, r2.outputs);
        assert_eq!(m1.activity().cycles(), m2.activity().cycles());
    }

    #[test]
    fn run_leaves_macro_untouched_on_invalid_program() {
        let prog = Program::new(vec![Instr::Read {
            src: Reg(0),
            precision: Precision::P8,
            n: 1,
        }]);
        let mut m = mac();
        assert!(prog.run(&mut m).is_err());
        assert_eq!(m.activity().total_cycles(), 0);
    }

    #[test]
    fn bank_fans_programs_and_contains_validation_errors() {
        let p = Precision::P8;
        let mut programs = Vec::new();
        for i in 0..12u64 {
            let mut b = ProgramBuilder::new();
            let x = b.write(p, vec![i]);
            let y = b.write(p, vec![100]);
            let s = b.add(x, y, p);
            b.read(s, p, 1);
            programs.push(b.finish());
        }
        // One invalid program in the middle fails alone.
        programs[5] = Program::new(vec![Instr::Read {
            src: Reg(3),
            precision: p,
            n: 1,
        }]);
        let mut bank = crate::MacroBank::new(3, cfg());
        let results = bank.try_run_batch(&programs, |mac, prog| prog.run(mac));
        for (i, r) in results.iter().enumerate() {
            let r = r.as_ref().expect("no program job panics");
            if i == 5 {
                assert!(matches!(r, Err(ProgError::UseBeforeDef { .. })));
            } else {
                assert_eq!(r.as_ref().unwrap().outputs[0], vec![i as u64 + 100]);
            }
        }
    }

    #[test]
    fn register_reuse_keeps_row_budget_bounded() {
        let p = Precision::P8;
        let mut b = ProgramBuilder::new();
        let x = b.alloc();
        let y = b.alloc();
        let mut expect = Vec::new();
        for k in 0..40u64 {
            b.write_to(x, p, vec![k]);
            b.write_to(y, p, vec![2 * k + 1]);
            let s = b.add(x, y, p);
            b.read(s, p, 1);
            expect.push(vec![3 * k + 1]);
        }
        let prog = b.finish();
        assert!(prog.reg_count() <= 42);
        let mut m = mac();
        let run = prog.run(&mut m).unwrap();
        assert_eq!(run.outputs, expect);
    }

    #[test]
    fn pushed_instrs_with_unallocated_regs_validate_structurally() {
        // A raw push naming a register never handed out by alloc() must
        // flow through validation (structured errors / success), never
        // panic with an index error.
        let mut b = ProgramBuilder::new();
        b.push(Instr::Write {
            dst: Reg(5),
            precision: Precision::P8,
            values: vec![1],
        });
        let prog = b.finish();
        assert!(prog.reg_count() >= 6);
        assert_eq!(prog.validate(&cfg()), Ok(()));
        let mut m = mac();
        prog.run(&mut m).unwrap();

        let mut b = ProgramBuilder::new();
        b.push(Instr::Read {
            src: Reg(7),
            precision: Precision::P8,
            n: 1,
        });
        assert_eq!(
            b.finish().validate(&cfg()),
            Err(ProgError::UseBeforeDef {
                reg: Reg(7),
                instr: 0
            })
        );
    }

    #[test]
    fn instr_names_round_trip_the_wire_vocabulary() {
        // `name()` is documented as the wire name; every logic function
        // maps to its own op name, not a collective "logic".
        for (op, want) in [
            (LogicOp::And, "and"),
            (LogicOp::Or, "or"),
            (LogicOp::Xor, "xor"),
            (LogicOp::Nand, "nand"),
            (LogicOp::Nor, "nor"),
            (LogicOp::Xnor, "xnor"),
        ] {
            let i = Instr::Logic {
                op,
                a: Reg(0),
                b: Reg(1),
                dst: Reg(2),
            };
            assert_eq!(i.name(), want);
        }
    }

    #[test]
    fn lowering_is_linear_on_long_fusion_heavy_programs() {
        // A wire-sized worst case (every pair a fusion candidate) lowers
        // and runs without quadratic blowup; the host-time bound here is
        // indirect — the test simply finishing fast is the guard — but
        // the fusion count is checked exactly.
        let p = Precision::P8;
        let mut b = ProgramBuilder::new();
        let x = b.write(p, vec![1]);
        let y = b.write(p, vec![2]);
        let pairs = 20_000;
        for _ in 0..pairs {
            let s = b.add(x, y, p);
            b.shl(s, p);
        }
        let prog = b.finish();
        let lowered = prog.lowered();
        assert_eq!(lowered.len(), 2 + pairs);
        assert_eq!(prog.cycles(), 2 + pairs as u64);
    }

    #[test]
    fn run_with_inputs_rebinds_write_values() {
        let p = Precision::P8;
        let mut b = ProgramBuilder::new();
        let x = b.write(p, vec![1, 2, 3]);
        let y = b.write(p, vec![10, 10, 10]);
        let s = b.add(x, y, p);
        b.read(s, p, 3);
        let prog = b.finish();
        let compiled = prog.compile(&cfg()).unwrap();
        assert_eq!(compiled.write_count(), 2);

        let mut m = mac();
        // Baked values.
        let run = compiled.run_with_inputs(&mut m, &[None, None]).unwrap();
        assert_eq!(run.outputs[0], vec![11, 12, 13]);
        // Rebind one operand; the other stays baked.
        let xs = [100u64, 200, 255];
        let run = compiled
            .run_with_inputs(&mut m, &[Some(&xs), None])
            .unwrap();
        assert_eq!(run.outputs[0], vec![110, 210, (255 + 10) & 0xFF]);
        // Rebind both; identical accounting to the compiled run.
        let ys = [1u64, 1, 1];
        let run = compiled
            .run_with_inputs(&mut m, &[Some(&xs), Some(&ys)])
            .unwrap();
        assert_eq!(run.outputs[0], vec![101, 201, 0]);
        assert_eq!(run.total_cycles(), compiled.cycles());
        assert_eq!(run.instr_cycles, prog.instr_cycles());
    }

    #[test]
    fn run_with_inputs_matches_a_freshly_built_program_bit_for_bit() {
        let p = Precision::P4;
        let build = |x: &[u64], w: &[u64]| {
            let mut b = ProgramBuilder::new();
            let rx = b.write_mult(p, x.to_vec());
            let rw = b.write_mult(p, w.to_vec());
            let prod = b.mult(rx, rw, p);
            b.read_products(prod, p, x.len());
            b.finish()
        };
        let compiled = build(&[0, 0, 0], &[0, 0, 0]).compile(&cfg()).unwrap();
        let (x, w) = ([3u64, 7, 15], [5u64, 2, 9]);
        let mut m1 = mac();
        let bound = compiled
            .run_with_inputs(&mut m1, &[Some(&x), Some(&w)])
            .unwrap();
        let mut m2 = mac();
        let fresh = build(&x, &w).run(&mut m2).unwrap();
        assert_eq!(bound, fresh);
        assert_eq!(m1.activity().cycles(), m2.activity().cycles());
    }

    #[test]
    fn run_outputs_matches_run_with_inputs() {
        let p = Precision::P8;
        let mut b = ProgramBuilder::new();
        let x = b.write_mult(p, vec![0, 0]);
        let w = b.write_mult(p, vec![7, 9]);
        let prod = b.mult(x, w, p);
        b.read_products(prod, p, 2);
        let s = b.add_shift(x, w, p);
        b.read(s, p, 2);
        let compiled = b.finish().compile(&cfg()).unwrap();
        let xs = [3u64, 5];
        let mut m1 = mac();
        let full = compiled
            .run_with_inputs(&mut m1, &[Some(&xs), None])
            .unwrap();
        let mut m2 = mac();
        let lean = compiled.run_outputs(&mut m2, &[Some(&xs), None]).unwrap();
        assert_eq!(lean, full.outputs);
        assert_eq!(m1, m2);
        // Same structured errors without touching the macro.
        let mut m3 = mac();
        assert_eq!(
            compiled.run_outputs(&mut m3, &[]),
            Err(ProgError::InputCount {
                expected: 2,
                got: 0
            })
        );
        assert_eq!(m3.activity().total_cycles(), 0);
    }

    #[test]
    fn run_with_inputs_rejects_bad_bindings_before_touching_the_macro() {
        let p = Precision::P8;
        let mut b = ProgramBuilder::new();
        let x = b.write(p, vec![1, 2]);
        b.read(x, p, 2);
        let compiled = b.finish().compile(&cfg()).unwrap();
        let mut m = mac();
        assert_eq!(
            compiled.run_with_inputs(&mut m, &[]),
            Err(ProgError::InputCount {
                expected: 1,
                got: 0
            })
        );
        let short = [9u64];
        assert_eq!(
            compiled.run_with_inputs(&mut m, &[Some(&short)]),
            Err(ProgError::InputLen {
                instr: 0,
                expected: 2,
                got: 1
            })
        );
        let wide = [300u64, 1];
        assert_eq!(
            compiled.run_with_inputs(&mut m, &[Some(&wide)]),
            Err(ProgError::WordTooWide {
                value: 300,
                bits: 8,
                instr: 0
            })
        );
        // Nothing ran, nothing was billed.
        assert_eq!(m.activity().total_cycles(), 0);
        let mut other = ImcMacro::new(cfg().with_separator(false));
        assert_eq!(
            compiled.run_with_inputs(&mut other, &[None]),
            Err(ProgError::ConfigMismatch)
        );
    }

    #[test]
    fn errors_display_their_instruction() {
        let e = ProgError::UseBeforeDef {
            reg: Reg(7),
            instr: 3,
        };
        assert!(e.to_string().contains("instr 3"));
        assert!(e.to_string().contains("r7"));
    }
}
