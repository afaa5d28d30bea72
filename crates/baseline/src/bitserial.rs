//! Functional bit-serial IMC simulator (the \[2\]-style baseline).
//!
//! Storage is *transposed*: word `j` lives in column `j`, with bit `i` at
//! row `base + i`. Arithmetic walks bit positions LSB-first, one dual-WL
//! compute per bit, keeping the carry in a per-column latch — exactly the
//! dataflow of the published bit-serial compute-SRAM designs. Cycle
//! accounting uses [`crate::cycles::BitSerialCycles`].

use crate::cycles::BitSerialCycles;
use bpimc_array::{ArrayError, BitRow, RowAddr, SramArray};

/// A transposed bit-serial in-memory-computing array.
#[derive(Debug, Clone, PartialEq)]
pub struct BitSerialImc {
    array: SramArray,
    rows: usize,
    cols: usize,
    cycles: u64,
}

impl BitSerialImc {
    /// An all-zero array of `rows x cols` (bits). `cols` is the number of
    /// word lanes; `rows` bounds operand placement.
    pub fn new(rows: usize, cols: usize) -> Self {
        let g = bpimc_array::ArrayGeometry {
            rows,
            cols,
            dummy_rows: 1,
            interleave: 1,
        };
        Self {
            array: SramArray::new(g),
            rows,
            cols,
            cycles: 0,
        }
    }

    /// Stores `words` (one per column) transposed at `base` with `n` bits.
    ///
    /// # Errors
    ///
    /// Returns an array error when the region exceeds the geometry.
    ///
    /// # Panics
    ///
    /// Panics if more words than lanes are supplied or a word exceeds `n`
    /// bits.
    pub fn write_words(&mut self, base: usize, n: usize, words: &[u64]) -> Result<(), ArrayError> {
        assert!(words.len() <= self.cols, "more words than lanes");
        for i in 0..n {
            let mut row = self.array.read(RowAddr::Main(base + i))?;
            for (j, &w) in words.iter().enumerate() {
                assert!(n == 64 || w < (1u64 << n), "word {w:#x} exceeds {n} bits");
                row.set(j, (w >> i) & 1 == 1);
            }
            self.array.write(RowAddr::Main(base + i), &row)?;
        }
        Ok(())
    }

    /// Reads `count` words of `n` bits stored transposed at `base`.
    ///
    /// # Errors
    ///
    /// Returns an array error when the region exceeds the geometry.
    pub fn read_words(
        &mut self,
        base: usize,
        n: usize,
        count: usize,
    ) -> Result<Vec<u64>, ArrayError> {
        let mut out = vec![0u64; count];
        for i in 0..n {
            let row = self.array.read(RowAddr::Main(base + i))?;
            for (j, w) in out.iter_mut().enumerate() {
                if row.get(j) {
                    *w |= 1 << i;
                }
            }
        }
        Ok(out)
    }

    /// Bit-serial addition: `dst = a + b` (n-bit wrapping), all lanes.
    ///
    /// # Errors
    ///
    /// Returns an array error when a region exceeds the geometry.
    pub fn add(&mut self, a: usize, b: usize, dst: usize, n: usize) -> Result<u64, ArrayError> {
        // Per-column carry latches.
        let mut carry = BitRow::zeros(self.cols);
        for i in 0..n {
            let out = self
                .array
                .bl_compute(RowAddr::Main(a + i), RowAddr::Main(b + i))?;
            let xor = out.xor();
            let sum = &xor ^ &carry;
            // carry' = AND + XOR & carry (majority via the SA outputs).
            carry = &out.and | &(&xor & &carry);
            self.array.write(RowAddr::Main(dst + i), &sum)?;
        }
        let c = BitSerialCycles::add(n);
        self.cycles += c;
        Ok(c)
    }

    /// Bit-serial subtraction: `dst = a - b` (two's complement wrapping).
    ///
    /// # Errors
    ///
    /// Returns an array error when a region exceeds the geometry.
    pub fn sub(&mut self, a: usize, b: usize, dst: usize, n: usize) -> Result<u64, ArrayError> {
        let mut carry = BitRow::ones(self.cols); // +1 of the two's complement
        for i in 0..n {
            let ra = self.array.read(RowAddr::Main(a + i))?;
            let rb = self.array.read(RowAddr::Main(b + i))?;
            let nb = !&rb;
            let xor = &ra ^ &nb;
            let sum = &xor ^ &carry;
            carry = &(&ra & &nb) | &(&xor & &carry);
            self.array.write(RowAddr::Main(dst + i), &sum)?;
        }
        let c = BitSerialCycles::sub(n);
        self.cycles += c;
        Ok(c)
    }

    /// Bit-serial multiplication: `dst` receives the full `2n`-bit products
    /// of the `n`-bit operands at `a` and `b` (shift-add over the multiplier
    /// bits with a predication mask, as in the published designs).
    ///
    /// # Errors
    ///
    /// Returns an array error when a region exceeds the geometry.
    pub fn mult(&mut self, a: usize, b: usize, dst: usize, n: usize) -> Result<u64, ArrayError> {
        // Accumulator: 2n rows at dst, cleared first.
        for i in 0..2 * n {
            self.array
                .write(RowAddr::Main(dst + i), &BitRow::zeros(self.cols))?;
        }
        for i in 0..n {
            // Predication mask: multiplier bit i of every lane.
            let mask = self.array.read(RowAddr::Main(b + i))?;
            // acc[i..i+n+?] += A << i, predicated per lane.
            let mut carry = BitRow::zeros(self.cols);
            for k in 0..=n {
                let addend = if k < n {
                    let ra = self.array.read(RowAddr::Main(a + k))?;
                    &ra & &mask
                } else {
                    BitRow::zeros(self.cols)
                };
                let acc = self.array.read(RowAddr::Main(dst + i + k))?;
                let xor = &acc ^ &addend;
                let sum = &xor ^ &carry;
                carry = &(&acc & &addend) | &(&xor & &carry);
                self.array.write(RowAddr::Main(dst + i + k), &sum)?;
            }
        }
        let c = BitSerialCycles::mult(n);
        self.cycles += c;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn transposed_round_trip() {
        let mut imc = BitSerialImc::new(64, 32);
        let words: Vec<u64> = (0..32).map(|i| (i * 7 + 1) & 0xFF).collect();
        imc.write_words(4, 8, &words).unwrap();
        assert_eq!(imc.read_words(4, 8, 32).unwrap(), words);
    }

    #[test]
    fn add_and_cycle_count() {
        let mut imc = BitSerialImc::new(64, 16);
        imc.write_words(0, 8, &[200, 15]).unwrap();
        imc.write_words(8, 8, &[100, 20]).unwrap();
        let c = imc.add(0, 8, 16, 8).unwrap();
        assert_eq!(c, 21);
        assert_eq!(
            imc.read_words(16, 8, 2).unwrap(),
            vec![(200 + 100) & 0xFF, 35]
        );
    }

    #[test]
    fn mult_matches_reference_and_counts_cycles() {
        let mut imc = BitSerialImc::new(64, 8);
        let a: Vec<u64> = vec![3, 200, 17, 255, 0, 1, 77, 128];
        let b: Vec<u64> = vec![5, 19, 0, 255, 44, 1, 90, 2];
        imc.write_words(0, 8, &a).unwrap();
        imc.write_words(8, 8, &b).unwrap();
        let c = imc.mult(0, 8, 16, 8).unwrap();
        assert_eq!(c, 67);
        let got = imc.read_words(16, 16, 8).unwrap();
        let expect: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
        assert_eq!(got, expect);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn add_sub_match_reference(a in prop::collection::vec(0u64..256, 8),
                                   b in prop::collection::vec(0u64..256, 8)) {
            let mut imc = BitSerialImc::new(64, 8);
            imc.write_words(0, 8, &a).unwrap();
            imc.write_words(8, 8, &b).unwrap();
            imc.add(0, 8, 16, 8).unwrap();
            imc.sub(0, 8, 24, 8).unwrap();
            let sum = imc.read_words(16, 8, 8).unwrap();
            let diff = imc.read_words(24, 8, 8).unwrap();
            for i in 0..8 {
                prop_assert_eq!(sum[i], (a[i] + b[i]) & 0xFF);
                prop_assert_eq!(diff[i], a[i].wrapping_sub(b[i]) & 0xFF);
            }
        }

        /// The baseline and the proposed macro agree bit-exactly.
        #[test]
        fn agrees_with_proposed_macro(a in prop::collection::vec(0u64..256, 8),
                                      b in prop::collection::vec(0u64..256, 8)) {
            use bpimc_core::{ImcMacro, MacroConfig, Precision};
            let mut serial = BitSerialImc::new(64, 8);
            serial.write_words(0, 8, &a).unwrap();
            serial.write_words(8, 8, &b).unwrap();
            serial.mult(0, 8, 16, 8).unwrap();
            let serial_products = serial.read_words(16, 16, 8).unwrap();

            let mut parallel = ImcMacro::new(MacroConfig::paper_macro());
            parallel.write_mult_operands(0, Precision::P8, &a).unwrap();
            parallel.write_mult_operands(1, Precision::P8, &b).unwrap();
            parallel.mult(0, 1, 2, Precision::P8).unwrap();
            let parallel_products = parallel.read_products(2, Precision::P8, 8).unwrap();

            prop_assert_eq!(serial_products, parallel_products);
        }
    }
}
