//! The transmission-gate carry-select full adder (the paper's eqs. (1)-(2)).
//!
//! Inputs per column are the two SA outputs of a dual-WL access:
//! `and_ab = A AND B` and `nor_ab = NOR(A, B)`. From these the block derives
//! `A XOR B` (as `~AND AND ~NOR`) and `A OR B` (as `~NOR`), then *selects*
//! between pre-computed alternatives with the incoming carry:
//!
//! ```text
//! S[n] =  C[n-1] ? XNOR(A,B) : XOR(A,B)      (eq. 1)
//! C[n] =  C[n-1] ? OR(A,B)   : AND(A,B)      (eq. 2)
//! ```
//!
//! Because both alternatives exist before the carry arrives, the carry path
//! crosses only one transmission gate per bit.

/// The sum output of one FA-Logics column.
///
/// # Examples
///
/// ```
/// use bpimc_periph::{fa_carry, fa_sum};
/// // A = 1, B = 0 (so AND = 0, NOR = 0), carry-in = 1 => sum 0, carry 1.
/// assert!(!fa_sum(false, false, true));
/// assert!(fa_carry(false, false, true));
/// ```
pub fn fa_sum(and_ab: bool, nor_ab: bool, carry_in: bool) -> bool {
    let xor = !and_ab && !nor_ab;
    if carry_in {
        !xor
    } else {
        xor
    }
}

/// The carry output of one FA-Logics column (eq. 2).
pub fn fa_carry(and_ab: bool, nor_ab: bool, carry_in: bool) -> bool {
    if carry_in {
        !nor_ab // A OR B
    } else {
        and_ab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SA outputs for operand bits `(a, b)`.
    fn sa_outputs(a: bool, b: bool) -> (bool, bool) {
        (a && b, !a && !b)
    }

    #[test]
    fn matches_a_textbook_full_adder_exhaustively() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let (and_ab, nor_ab) = sa_outputs(a, b);
                    let sum = fa_sum(and_ab, nor_ab, c);
                    let carry = fa_carry(and_ab, nor_ab, c);
                    let expect = a as u8 + b as u8 + c as u8;
                    assert_eq!(sum, expect & 1 == 1, "sum a={a} b={b} c={c}");
                    assert_eq!(carry, expect >= 2, "carry a={a} b={b} c={c}");
                }
            }
        }
    }

    #[test]
    fn matches_paper_truth_table() {
        // The paper's Fig. 3 table, columns (A, B, Cin) -> (S, Cout).
        let rows = [
            // A, B, Cin, S, Cout
            (0, 0, 0, 0, 0),
            (0, 1, 0, 1, 0),
            (1, 0, 0, 1, 0),
            (1, 1, 0, 0, 1),
            (0, 0, 1, 1, 0),
            (0, 1, 1, 0, 1),
            (1, 0, 1, 0, 1),
            (1, 1, 1, 1, 1),
        ];
        for (a, b, c, s, cout) in rows {
            let (and_ab, nor_ab) = sa_outputs(a == 1, b == 1);
            assert_eq!(fa_sum(and_ab, nor_ab, c == 1), s == 1, "{a}{b}{c}");
            assert_eq!(fa_carry(and_ab, nor_ab, c == 1), cout == 1, "{a}{b}{c}");
        }
    }
}
