//! Column peripheral models: the paper's "Y-path".
//!
//! Each column of the macro carries, beneath its sense amplifiers, the
//! near-memory computing slice of Fig. 3:
//!
//! * **FA-Logics** ([`fa_sum`], [`fa_carry`]): the transmission-gate *carry-select* full
//!   adder. Both candidate sums (`A XOR B`, `A XNOR B`) and both candidate
//!   carries (`A AND B`, `A OR B`) are pre-computed from the SA outputs;
//!   the rippling carry merely steers transmission gates — that is why the
//!   paper's adder is 1.8-2.2x faster than a logic-gate ripple adder.
//! * **Logic unit** ([`LogicOp`]): one OR gate, three inverters and four
//!   transmission gates produce every two-input logic function from the
//!   `AND`/`NOR` SA pair.
//! * **Y-path**: the per-column mux structure (MX0/MX1/MX2) selecting
//!   what is written back: a logic result, the local sum, or the
//!   neighbour's sum/data for shift and add-and-shift operations. Its
//!   column-by-column model is the tests' reference for the carry chain.
//! * **Carry chain** ([`CarryChain`]): the row-wide composition of Y-paths,
//!   segmented at word boundaries by the reconfiguration muxes (MX3) to
//!   implement 2/4/8/16/32-bit precision ([`Precision`]). Its
//!   multiply step also models the FF bank, the flip-flops that hold the
//!   multiplier operand reversed (Fig. 5) and present one bit per
//!   add-and-shift step, most significant first: the step reads that bit
//!   straight from the multiplier row the bank was loaded from.

pub(crate) mod carrychain;
pub(crate) mod falogics;
pub(crate) mod logicunit;
pub(crate) mod precision;
#[cfg(test)]
mod ypath;

pub use carrychain::CarryChain;
pub use falogics::{fa_carry, fa_sum};
pub use logicunit::LogicOp;
pub use precision::Precision;
