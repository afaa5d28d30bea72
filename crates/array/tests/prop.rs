//! Property tests for the bit-row and array invariants, and for the
//! limb-parallel lane engine against a per-bit reference implementation.

use bpimc_array::{ArrayGeometry, BitRow, LaneMasks, RowAddr, SramArray};
use proptest::prelude::*;

/// A random row of `width` columns built bit by bit from a seed (the
/// per-bit path, deliberately NOT the limb constructors under test).
fn seeded_row(width: usize, seed: u64) -> BitRow {
    let mut r = BitRow::zeros(width);
    let mut s = seed | 1;
    for i in 0..width {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        r.set(i, s >> 63 == 1);
    }
    r
}

/// Per-bit reference for the lane adder: textbook ripple-carry within each
/// lane, carries cut at lane boundaries.
fn lane_add_reference(
    a: &BitRow,
    b: &BitRow,
    carry_in: bool,
    cols: usize,
    seg: usize,
) -> (BitRow, BitRow) {
    let mut sum = BitRow::zeros(cols);
    let mut cout = BitRow::zeros(cols);
    for lane in 0..cols / seg {
        let mut c = carry_in;
        for k in 0..seg {
            let i = lane * seg + k;
            let (x, y) = (a.get(i), b.get(i));
            sum.set(i, x ^ y ^ c);
            c = (x & y) | ((x ^ y) & c);
        }
        cout.set(lane * seg + seg - 1, c);
    }
    (sum, cout)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The limb-parallel lane adder is bit-exact against the per-bit
    /// ripple-carry reference across row widths 128-1024 and all paper
    /// precisions (2/4/8-bit plus the 16/32-bit extensions).
    #[test]
    fn lane_add_matches_per_bit_reference(
        width_step in 0usize..8,
        seg_pick in 0usize..5,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        cin in any::<bool>(),
    ) {
        let cols = 128 + width_step * 128; // 128, 256, ..., 1024
        let seg = [2usize, 4, 8, 16, 32][seg_pick];
        let a = seeded_row(cols, seed_a);
        let b = seeded_row(cols, seed_b);
        let m = LaneMasks::new(cols, seg);
        let (sum, cout) = m.lane_add(&a, &b, cin);
        let (rsum, rcout) = lane_add_reference(&a, &b, cin, cols, seg);
        prop_assert_eq!(&sum, &rsum, "sum mismatch at {} cols / {}-bit lanes", cols, seg);
        prop_assert_eq!(&cout, &rcout, "carry mismatch at {} cols / {}-bit lanes", cols, seg);
    }

    /// Whole-row shifts match the per-bit definition on wide (heap-backed)
    /// rows as well as inline ones.
    #[test]
    fn row_shifts_match_per_bit_reference(
        width_step in 0usize..8,
        k in 0usize..130,
        seed in any::<u64>(),
    ) {
        let cols = 128 + width_step * 128;
        let r = seeded_row(cols, seed);
        let l = r.shl_bits(k);
        let s = r.shr_bits(k);
        for i in 0..cols {
            prop_assert_eq!(l.get(i), i >= k && r.get(i - k));
            prop_assert_eq!(s.get(i), i + k < cols && r.get(i + k));
        }
    }

    /// Lane-shift and masked select match their per-bit definitions.
    #[test]
    fn lane_shift_and_select_match_reference(
        width_step in 0usize..8,
        seg_pick in 0usize..5,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        seed_m in any::<u64>(),
    ) {
        let cols = 128 + width_step * 128;
        let seg = [2usize, 4, 8, 16, 32][seg_pick];
        let m = LaneMasks::new(cols, seg);
        let data = seeded_row(cols, seed_a);
        let shifted = m.lane_shl1(&data);
        for i in 0..cols {
            let expect = i % seg != 0 && data.get(i - 1);
            prop_assert_eq!(shifted.get(i), expect, "lane shift bit {}", i);
        }
        let t = seeded_row(cols, seed_b);
        let mask = seeded_row(cols, seed_m);
        let sel = mask.select(&t, &data);
        for i in 0..cols {
            prop_assert_eq!(sel.get(i), if mask.get(i) { t.get(i) } else { data.get(i) });
        }
    }

    /// The whole-row carry-propagating add equals big-integer addition.
    #[test]
    fn wrapping_row_add_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        let width = 128;
        let ra = BitRow::from_limbs(width, vec![a as u64, (a >> 64) as u64]);
        let rb = BitRow::from_limbs(width, vec![b as u64, (b >> 64) as u64]);
        let s = ra.wrapping_row_add(&rb);
        let expect = a.wrapping_add(b);
        prop_assert_eq!(s.limbs(), &[expect as u64, (expect >> 64) as u64]);
    }
}

proptest! {
    /// BitRow logic matches u128 reference arithmetic for any width <= 128.
    #[test]
    fn bitrow_logic_matches_u128(a in any::<u128>(), b in any::<u128>(), width in 1usize..=128) {
        let mask = if width == 128 { u128::MAX } else { (1u128 << width) - 1 };
        let (a, b) = (a & mask, b & mask);
        let mut ra = BitRow::zeros(width);
        let mut rb = BitRow::zeros(width);
        for i in 0..width {
            ra.set(i, (a >> i) & 1 == 1);
            rb.set(i, (b >> i) & 1 == 1);
        }
        let to_u128 = |r: &BitRow| -> u128 {
            (0..width).fold(0u128, |acc, i| acc | ((r.get(i) as u128) << i))
        };
        prop_assert_eq!(to_u128(&(&ra & &rb)), a & b);
        prop_assert_eq!(to_u128(&(&ra | &rb)), a | b);
        prop_assert_eq!(to_u128(&(&ra ^ &rb)), a ^ b);
        prop_assert_eq!(to_u128(&!&ra), !a & mask);
        prop_assert_eq!(ra.count_ones(), a.count_ones() as usize);
    }

    /// Field writes are isolated: writing one field never disturbs another
    /// disjoint field.
    #[test]
    fn field_writes_are_isolated(
        v1 in 0u64..256,
        v2 in 0u64..256,
        lsb1 in 0usize..15,
        gap in 1usize..10,
    ) {
        let lsb2 = lsb1 + 8 + gap;
        let mut r = BitRow::zeros(64);
        r.set_field(lsb1, 8, v1);
        r.set_field(lsb2, 8, v2);
        prop_assert_eq!(r.get_field(lsb1, 8), v1);
        prop_assert_eq!(r.get_field(lsb2, 8), v2);
        // Overwrite the first field; the second must survive.
        r.set_field(lsb1, 8, v1 ^ 0xFF);
        prop_assert_eq!(r.get_field(lsb2, 8), v2);
    }

    /// Dual-WL compute readouts are involutive w.r.t. operand order
    /// (AND/NOR are symmetric).
    #[test]
    fn bl_compute_is_symmetric(a in any::<u64>(), b in any::<u64>()) {
        let g = ArrayGeometry { rows: 4, cols: 64, dummy_rows: 1, interleave: 1 };
        let mut arr = SramArray::new(g);
        arr.write(RowAddr::Main(0), &BitRow::from_u64(64, a)).unwrap();
        arr.write(RowAddr::Main(1), &BitRow::from_u64(64, b)).unwrap();
        let ab = arr.bl_compute(RowAddr::Main(0), RowAddr::Main(1)).unwrap();
        let ba = arr.bl_compute(RowAddr::Main(1), RowAddr::Main(0)).unwrap();
        prop_assert_eq!(&ab.and, &ba.and);
        prop_assert_eq!(&ab.nor, &ba.nor);
    }

    /// Writing then reading any row is the identity.
    #[test]
    fn write_read_identity(v in any::<u64>(), row in 0usize..8) {
        let g = ArrayGeometry { rows: 8, cols: 64, dummy_rows: 2, interleave: 4 };
        let mut arr = SramArray::new(g);
        let r = BitRow::from_u64(64, v);
        arr.write(RowAddr::Main(row), &r).unwrap();
        prop_assert_eq!(arr.read(RowAddr::Main(row)).unwrap(), r);
    }
}
