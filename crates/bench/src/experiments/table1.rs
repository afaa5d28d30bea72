//! Table I — supported operations and their cycle counts, *measured* by
//! running each operation on the executor and counting logged cycles.

use crate::textfmt::TextTable;
use bpimc_core::{ImcMacro, LogicOp, MacroConfig, Precision};
use std::fmt;

/// One Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Operation name as the paper lists it.
    pub(crate) operation: String,
    /// The paper's cycle count (N = bit width).
    pub(crate) paper_cycles: String,
    /// Measured cycles at 8-bit precision.
    pub(crate) measured_8b: u64,
}

/// The measured Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// All rows.
    pub(crate) rows: Vec<Table1Row>,
}

/// Runs every operation once and records its cycle count.
pub fn run() -> Table1Result {
    let p = Precision::P8;
    let mut mac = ImcMacro::new(MacroConfig::paper_macro());
    mac.write_words(0, p, &[11]).expect("fits");
    mac.write_words(1, p, &[5]).expect("fits");
    mac.write_mult_operands(4, p, &[11]).expect("fits");
    mac.write_mult_operands(5, p, &[5]).expect("fits");

    let mut rows = Vec::new();
    let mut push = |name: &str, paper: &str, cycles: u64| {
        rows.push(Table1Row {
            operation: name.to_string(),
            paper_cycles: paper.to_string(),
            measured_8b: cycles,
        });
    };
    push(
        "NAND/AND",
        "1",
        mac.logic(LogicOp::And, 0, 1, 2).expect("op"),
    );
    push("NOR/OR", "1", mac.logic(LogicOp::Nor, 0, 1, 2).expect("op"));
    push(
        "XNOR/XOR",
        "1",
        mac.logic(LogicOp::Xor, 0, 1, 2).expect("op"),
    );
    push("NOT", "1", mac.not(0, 2).expect("op"));
    push("Shift (<<1)", "1", mac.shl(0, 2, p).expect("op"));
    push("ADD", "1", mac.add(0, 1, 2, p).expect("op"));
    push("ADD-Shift", "1", mac.add_shift(0, 1, 2, p).expect("op"));
    push("SUB", "2", mac.sub(0, 1, 2, p).expect("op"));
    push("MULT", "N+2", mac.mult(4, 5, 6, p).expect("op"));
    Table1Result { rows }
}

impl Table1Result {
    /// True when every measured count equals the paper's formula at N = 8.
    pub fn all_match(&self) -> bool {
        self.rows.iter().all(|r| {
            let expect = match r.paper_cycles.as_str() {
                "1" => 1,
                "2" => 2,
                "N+2" => 10,
                _ => u64::MAX,
            };
            r.measured_8b == expect
        })
    }
}

impl fmt::Display for Table1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table I — supported operations and cycles (measured @ 8-bit)"
        )?;
        let mut t = TextTable::new(["operation", "paper", "measured (N=8)"]);
        for r in &self.rows {
            t.row([
                r.operation.clone(),
                r.paper_cycles.clone(),
                r.measured_8b.to_string(),
            ]);
        }
        write!(f, "{}", t.render())?;
        writeln!(f, "all rows match: {}", self.all_match())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_matches_the_paper() {
        let r = run();
        assert_eq!(r.rows.len(), 9);
        assert!(r.all_match(), "{r}");
        crate::experiments::assert_pinned("table1", &r, 0xc648_9967_007b_322a);
    }
}
