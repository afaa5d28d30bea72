//! Functional model of the paper's 6T SRAM array with compute support.
//!
//! This crate captures the *digital* behaviour of the memory macro: row
//! storage, the dummy array, and the two read modes the bit-line computing
//! scheme provides —
//!
//! * **dual-WL compute read** ([`SramArray::bl_compute`]): both operand
//!   word-lines fire and the single-ended SAs deliver per-column
//!   `A AND B` (from BLT) and `NOR(A, B)` (from BLB), the primitives the
//!   column peripherals build everything else out of;
//! * **single-WL read** ([`SramArray::single_read`]): delivers `A`/`~A`
//!   (used for NOT / shift / copy).
//!
//! Bit-lines span both the main rows and the dummy rows; the [`BlSeparator`]
//! state tracks whether the main segment is disconnected during dummy-row
//! write-backs (the BL separator the paper uses to cut write-back power).
//!
//! Electrical behaviour (delays, disturb) lives in `bpimc-cell`; this crate
//! is cycle-level and value-exact.

pub(crate) mod addr;
pub(crate) mod bits;
pub(crate) mod error;
pub(crate) mod geometry;
pub(crate) mod separator;
pub(crate) mod sram;
pub(crate) mod timing;

pub use addr::RowAddr;
pub use bits::{BitRow, LaneMasks};
pub use error::ArrayError;
pub use geometry::ArrayGeometry;
pub use separator::BlSeparator;
pub use sram::{DualReadout, SingleReadout, SramArray};
pub use timing::{CycleKind, CyclePhase};
