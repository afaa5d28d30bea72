//! Baseline architectures the paper compares against.
//!
//! The quantitative baseline (Fig. 9, Table III) is the conventional
//! **bit-serial** in-memory computing architecture of reference \[2\]
//! (28 nm Compute-SRAM, JSSC'19): data stored *transposed* (a word's bits
//! stacked vertically along the bit-line), one single-bit ALU per column,
//! operations iterated one bit position per step. [`BitSerialImc`] implements
//! it functionally (value-exact, carry latches and all) with the cycle
//! formulas documented in [`BitSerialCycles`].
//!
//! [`TABLE3_ROWS`] carries the literature constants of the paper's Table III
//! rows so the comparison table can be regenerated.

pub(crate) mod bitserial;
pub(crate) mod comparison;
pub(crate) mod cycles;

pub use bitserial::BitSerialImc;
pub use comparison::{ComparisonRow, TABLE3_ROWS};
pub use cycles::BitSerialCycles;
