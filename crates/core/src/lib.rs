//! The bit-parallel 6T SRAM in-memory-computing macro — the paper's primary
//! contribution.
//!
//! An [`ImcMacro`] is a functional, cycle-accurate model of one 128 x 128
//! macro of the paper's Fig. 3: the 6T array with its three dummy rows, the
//! BL separator, and the column peripherals (FA-Logics, Y-path muxes,
//! multiplier flip-flops). It executes the full operation set of the
//! paper's Table I with the documented cycle counts:
//!
//! | operation | cycles |
//! |---|---|
//! | NAND/AND, NOR/OR, XNOR/XOR | 1 |
//! | NOT, shift (<<1), copy | 1 |
//! | ADD, ADD-shift | 1 |
//! | SUB | 2 |
//! | N-bit MULT | N + 2 |
//!
//! All data operations are *bit-parallel*: one op processes every word lane
//! of the row at once, with the carry chain segmented per the configured
//! [`Precision`] (2/4/8-bit in the paper, 16/32-bit by the same
//! construction). Every cycle is logged ([`ActivityLog`]) so the energy model
//! in `bpimc-metrics` can reproduce the paper's Table II.
//!
//! The paper's 128 KB chip is 64 such macros; a [`MacroBank`] runs
//! independent jobs across any number of them.
//!
//! # Examples
//!
//! ```
//! use bpimc_core::{ImcMacro, MacroConfig, Precision};
//!
//! # fn main() -> Result<(), bpimc_core::Error> {
//! let mut mac = ImcMacro::new(MacroConfig::paper_macro());
//! mac.write_words(0, Precision::P8, &[100, 37])?;
//! mac.write_words(1, Precision::P8, &[23, 200])?;
//! let cycles = mac.sub(0, 1, 2, Precision::P8)?;
//! assert_eq!(cycles, 2); // Table I: SUB takes 2 cycles
//! assert_eq!(mac.read_words(2, Precision::P8, 2)?, vec![77, 93]); // 37-200 wraps
//! # Ok(())
//! # }
//! ```

pub(crate) mod activity;
pub(crate) mod config;
pub(crate) mod error;
pub(crate) mod isa;
pub mod json;
pub(crate) mod macrobank;
pub(crate) mod macroblock;
pub mod prog;
pub mod wire;
pub(crate) mod words;

pub use activity::{ActivityLog, CycleActivity, OpRecord, SessionActivity};
pub use config::MacroConfig;
pub use error::Error;
pub use macrobank::MacroBank;
pub use macroblock::ImcMacro;
pub use prog::analysis::{Diagnostic, Severity};
pub use prog::{CompiledProgram, Instr, ProgError, Program, ProgramBuilder, ProgramRun, Reg};
pub use wire::{
    instr_from_json, instr_to_json, ErrorBody, ErrorKind, LaneOp, LimitKind, ProgramEntry,
    ProgramReport, Request, RequestBody, Response, ResponseBody, RunStatus, SessionInfo,
    StoredMeta, StoredTarget,
};

// A failed batch job, as surfaced by `MacroBank::try_run_batch`.
pub use bpimc_stats::parallel::JobPanic;

// The precision type is part of this crate's public vocabulary.
pub use bpimc_periph::{LogicOp, Precision};
