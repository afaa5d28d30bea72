//! # bpimc — Bit-Parallel 6T SRAM In-Memory Computing
//!
//! A Rust reproduction of *"Bit Parallel 6T SRAM In-memory Computing with
//! Reconfigurable Bit-Precision"* (Lee et al., DAC 2020).
//!
//! This facade crate re-exports every subsystem of the workspace so an
//! application can depend on `bpimc` alone:
//!
//! * [`core`] — the in-memory-computing macro itself (the paper's
//!   contribution): 6T array + dummy rows + column peripherals executing
//!   logic/ADD/SUB/ADD-shift/MULT bit-parallel with reconfigurable 2/4/8/16/32
//!   bit precision.
//! * [`mod@array`] / [`mod@periph`] — the functional SRAM array and the Y-path column
//!   peripheral models the macro is assembled from.
//! * [`device`] / [`circuit`] / [`cell`] — the 28 nm behavioral transistor
//!   model, transient solver and electrical cell/bit-line test-benches used
//!   for the circuit-level experiments (short-WL + BL boosting vs WLUD,
//!   read-disturb analysis).
//! * [`metrics`] — timing / energy / area / TOPS-per-watt models.
//! * [`baseline`] — the conventional bit-serial IMC used for comparison.
//! * [`nn`] — a quantized neural-network workload running on the macro.
//! * [`server`] — the multi-client TCP compute service multiplexing
//!   concurrent sessions onto one macro, run by its dispatcher thread,
//!   with opt-in crash-safe durable state (write-ahead journal +
//!   snapshots + restart recovery; see `bpimc::server::StateConfig`).
//! * [`mod@bench`] — the experiment runners that regenerate every figure and
//!   table of the paper's evaluation section.
//!
//! # Quickstart
//!
//! ```
//! use bpimc::core::{ImcMacro, MacroConfig, Precision};
//!
//! # fn main() -> Result<(), bpimc::core::Error> {
//! let mut mac = ImcMacro::new(MacroConfig::paper_macro());
//! // Store two vectors of 8-bit words in rows 0 and 1.
//! mac.write_words(0, Precision::P8, &[10, 20, 30])?;
//! mac.write_words(1, Precision::P8, &[5, 9, 200])?;
//! // One-cycle bit-parallel addition into row 2.
//! mac.add(0, 1, 2, Precision::P8)?;
//! assert_eq!(mac.read_words(2, Precision::P8, 3)?, vec![15, 29, 230 & 0xff]);
//! # Ok(())
//! # }
//! ```
//!
//! Multi-step pipelines are better expressed as a typed
//! [`Program`](core::prog::Program) — validated upfront, costed before
//! execution, and submittable to the server in one `exec_program` round
//! trip:
//!
//! ```
//! use bpimc::core::prog::ProgramBuilder;
//! use bpimc::core::{ImcMacro, MacroConfig, Precision};
//!
//! let mut b = ProgramBuilder::new();
//! let x = b.write(Precision::P8, vec![10, 20, 30]);
//! let y = b.write(Precision::P8, vec![1, 2, 3]);
//! let sum = b.add(x, y, Precision::P8);
//! let doubled = b.shl(sum, Precision::P8); // lowered into one add_shift
//! b.read(doubled, Precision::P8, 3);
//! let prog = b.finish();
//! assert_eq!(prog.cycles(), 4); // known before execution
//!
//! let mut mac = ImcMacro::new(MacroConfig::paper_macro());
//! let run = prog.run(&mut mac).unwrap();
//! assert_eq!(run.outputs[0], vec![22, 44, 66]);
//! ```

pub use bpimc_array as array;
pub use bpimc_baseline as baseline;
pub use bpimc_bench as bench;
pub use bpimc_cell as cell;
pub use bpimc_circuit as circuit;
pub use bpimc_core as core;
pub use bpimc_device as device;
pub use bpimc_metrics as metrics;
pub use bpimc_nn as nn;
pub use bpimc_periph as periph;
pub use bpimc_server as server;
pub use bpimc_stats as stats;
