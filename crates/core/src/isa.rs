//! The operation vocabulary of the macro (the paper's Table I).

use bpimc_periph::{LogicOp, Precision};
use std::fmt;

/// Kinds of operation the macro executes, for logging and cycle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A bit-wise logic operation between two rows.
    Logic(LogicOp),
    /// Bit-wise inversion of a row.
    Not,
    /// Row copy.
    Copy,
    /// Per-lane logical left shift by one.
    Shl,
    /// Per-lane addition.
    Add,
    /// Per-lane add-and-shift (`(A+B) << 1`).
    AddShift,
    /// Per-lane subtraction (two's complement).
    Sub,
    /// Per-lane multiplication.
    Mult,
    /// Plain memory read.
    Read,
    /// Plain memory write.
    Write,
}

impl OpKind {
    /// The cycle count of this operation at a given precision — the paper's
    /// Table I ("N represents the data bit-width").
    pub(crate) fn cycles(&self, precision: Precision) -> u64 {
        match self {
            OpKind::Logic(_) | OpKind::Not | OpKind::Copy | OpKind::Shl => 1,
            OpKind::Add | OpKind::AddShift => 1,
            OpKind::Sub => 2,
            OpKind::Mult => precision.bits() as u64 + 2,
            OpKind::Read | OpKind::Write => 1,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Logic(op) => write!(f, "{op}"),
            OpKind::Not => write!(f, "NOT"),
            OpKind::Copy => write!(f, "COPY"),
            OpKind::Shl => write!(f, "SHIFT"),
            OpKind::Add => write!(f, "ADD"),
            OpKind::AddShift => write!(f, "ADD-SHIFT"),
            OpKind::Sub => write!(f, "SUB"),
            OpKind::Mult => write!(f, "MULT"),
            OpKind::Read => write!(f, "READ"),
            OpKind::Write => write!(f, "WRITE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_cycle_counts() {
        let p8 = Precision::P8;
        assert_eq!(OpKind::Logic(LogicOp::Xor).cycles(p8), 1);
        assert_eq!(OpKind::Not.cycles(p8), 1);
        assert_eq!(OpKind::Shl.cycles(p8), 1);
        assert_eq!(OpKind::Add.cycles(p8), 1);
        assert_eq!(OpKind::AddShift.cycles(p8), 1);
        assert_eq!(OpKind::Sub.cycles(p8), 2);
        assert_eq!(OpKind::Mult.cycles(p8), 10);
        assert_eq!(OpKind::Mult.cycles(Precision::P4), 6);
        assert_eq!(OpKind::Mult.cycles(Precision::P2), 4);
        assert_eq!(OpKind::Mult.cycles(Precision::P16), 18);
    }

    #[test]
    fn display_names() {
        assert_eq!(OpKind::Mult.to_string(), "MULT");
        assert_eq!(OpKind::Logic(LogicOp::Nand).to_string(), "NAND");
    }
}
