//! Arbitrary-width bit rows backed by `u64` limbs.
//!
//! A [`BitRow`] models the contents of one physical SRAM row: `width`
//! columns, bit `i` living on bit-line `i`. Widths up to several thousand
//! columns are supported (the paper's Fig. 9 sweeps BL sizes 128-1024).
//!
//! Rows of up to [`BitRow::INLINE_COLS`] columns are stored inline (no heap
//! allocation), so the limb-parallel engine's temporaries are free for the
//! paper's 128-column macro. [`LaneMasks`] provides the fused lane-segmented
//! arithmetic (add, shift, multiply step) that the column-peripheral models
//! build their single-cycle row operations on: one `u64` op covers 64
//! columns.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Number of limbs stored inline before spilling to the heap.
const INLINE_LIMBS: usize = 4;

/// Limb storage: small rows inline, large rows on the heap. The live limb
/// count is implied by the owning row's width.
#[derive(Clone)]
enum Limbs {
    Inline([u64; INLINE_LIMBS]),
    Heap(Vec<u64>),
}

/// A fixed-width row of bits.
///
/// # Examples
///
/// ```
/// use bpimc_array::BitRow;
/// let mut row = BitRow::zeros(128);
/// row.set(3, true);
/// assert!(row.get(3));
/// row.set_field(8, 8, 0xAB); // an 8-bit word at columns 8..16
/// assert_eq!(row.get_field(8, 8), 0xAB);
/// ```
#[derive(Clone)]
pub struct BitRow {
    width: usize,
    limbs: Limbs,
}

/// Mask of the low `w` bits, `1 <= w <= 64`.
#[inline]
fn field_mask(w: usize) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

impl BitRow {
    /// Widest row that needs no heap allocation.
    pub(crate) const INLINE_COLS: usize = INLINE_LIMBS * 64;

    /// An all-zero row of `width` columns.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn zeros(width: usize) -> Self {
        assert!(width > 0, "rows must have at least one column");
        let limbs = if width <= Self::INLINE_COLS {
            Limbs::Inline([0; INLINE_LIMBS])
        } else {
            Limbs::Heap(vec![0; width.div_ceil(64)])
        };
        Self { width, limbs }
    }

    /// An all-one row of `width` columns.
    pub fn ones(width: usize) -> Self {
        let mut r = Self::zeros(width);
        for l in r.limbs_mut() {
            *l = u64::MAX;
        }
        r.mask_top();
        r
    }

    /// Builds a row from a `u64`, placing bit `i` of `value` in column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero, or `value` does not fit in `width` bits.
    pub fn from_u64(width: usize, value: u64) -> Self {
        let mut r = Self::zeros(width);
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value:#x} does not fit in {width} bits"
            );
        }
        r.limbs_mut()[0] = value;
        r.mask_top();
        r
    }

    /// Builds a row directly from limbs (bits beyond `width` are cleared).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `limbs` is not exactly
    /// `width.div_ceil(64)` long.
    pub fn from_limbs(width: usize, limbs: Vec<u64>) -> Self {
        assert!(width > 0, "rows must have at least one column");
        assert_eq!(
            limbs.len(),
            width.div_ceil(64),
            "limb count must match width"
        );
        let mut r = Self::zeros(width);
        r.limbs_mut().copy_from_slice(&limbs);
        r.mask_top();
        r
    }

    /// The number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of live limbs.
    #[inline]
    fn n_limbs(&self) -> usize {
        self.width.div_ceil(64)
    }

    /// The backing `u64` limbs, bit `i` of limb `j` holding column
    /// `j * 64 + i`. Bits at or beyond `width` are always zero.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        let n = self.n_limbs();
        match &self.limbs {
            Limbs::Inline(a) => &a[..n],
            Limbs::Heap(v) => v,
        }
    }

    /// Mutable access to the live limbs (internal; callers must uphold the
    /// top-bits-zero invariant via [`BitRow::mask_top`]).
    #[inline]
    fn limbs_mut(&mut self) -> &mut [u64] {
        let n = self.n_limbs();
        match &mut self.limbs {
            Limbs::Inline(a) => &mut a[..n],
            Limbs::Heap(v) => v,
        }
    }

    /// Bit at column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.width,
            "column {i} out of range (width {})",
            self.width
        );
        (self.limbs()[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit at column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(
            i < self.width,
            "column {i} out of range (width {})",
            self.width
        );
        let (l, b) = (i / 64, i % 64);
        let limbs = self.limbs_mut();
        if v {
            limbs[l] |= 1 << b;
        } else {
            limbs[l] &= !(1 << b);
        }
    }

    /// Reads an up-to-64-bit little-endian field starting at column `lsb`.
    ///
    /// # Panics
    ///
    /// Panics if the field exceeds the row or `field_width > 64` or is zero.
    pub fn get_field(&self, lsb: usize, field_width: usize) -> u64 {
        assert!(
            field_width > 0 && field_width <= 64,
            "field width {field_width}"
        );
        assert!(
            lsb + field_width <= self.width,
            "field [{lsb}, {}) exceeds row width {}",
            lsb + field_width,
            self.width
        );
        let mask = field_mask(field_width);
        let (l, b) = (lsb / 64, lsb % 64);
        let limbs = self.limbs();
        let mut v = limbs[l] >> b;
        if b != 0 && b + field_width > 64 {
            v |= limbs[l + 1] << (64 - b);
        }
        v & mask
    }

    /// Writes an up-to-64-bit little-endian field starting at column `lsb`.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`BitRow::get_field`], or when
    /// `value` does not fit in the field.
    pub fn set_field(&mut self, lsb: usize, field_width: usize, value: u64) {
        assert!(
            field_width > 0 && field_width <= 64,
            "field width {field_width}"
        );
        assert!(
            lsb + field_width <= self.width,
            "field [{lsb}, {}) exceeds row width {}",
            lsb + field_width,
            self.width
        );
        let mask = field_mask(field_width);
        assert!(
            value & !mask == 0,
            "value {value:#x} does not fit in {field_width} bits"
        );
        let (l, b) = (lsb / 64, lsb % 64);
        let limbs = self.limbs_mut();
        limbs[l] = (limbs[l] & !(mask << b)) | (value << b);
        if b != 0 && b + field_width > 64 {
            let spill = 64 - b;
            limbs[l + 1] = (limbs[l + 1] & !(mask >> spill)) | (value >> spill);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.limbs().iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Whole-row left shift by `k` columns (toward higher column indices).
    /// Bits shifted beyond the top column are dropped; zeros enter at the
    /// bottom. One host op per limb.
    pub fn shl_bits(&self, k: usize) -> Self {
        let mut out = Self::zeros(self.width);
        if k >= self.width {
            return out;
        }
        let (limb_shift, bit_shift) = (k / 64, k % 64);
        let n = self.n_limbs();
        let src = self.limbs();
        let dst = out.limbs_mut();
        for i in (limb_shift..n).rev() {
            let mut v = src[i - limb_shift] << bit_shift;
            if bit_shift != 0 && i > limb_shift {
                v |= src[i - limb_shift - 1] >> (64 - bit_shift);
            }
            dst[i] = v;
        }
        out.mask_top();
        out
    }

    /// Whole-row right shift by `k` columns (toward column zero). Bits
    /// shifted below column zero are dropped; zeros enter at the top.
    pub fn shr_bits(&self, k: usize) -> Self {
        let mut out = Self::zeros(self.width);
        if k >= self.width {
            return out;
        }
        let (limb_shift, bit_shift) = (k / 64, k % 64);
        let n = self.n_limbs();
        let src = self.limbs();
        let dst = out.limbs_mut();
        for i in 0..n - limb_shift {
            let mut v = src[i + limb_shift] >> bit_shift;
            if bit_shift != 0 && i + limb_shift + 1 < n {
                v |= src[i + limb_shift + 1] << (64 - bit_shift);
            }
            dst[i] = v;
        }
        out
    }

    /// Per-column select: where `self` (the mask) has a 1 the result takes
    /// the bit of `on_true`, elsewhere the bit of `on_false`. The hardware
    /// analogue is a row of 2:1 muxes driven by the mask.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn select(&self, on_true: &Self, on_false: &Self) -> Self {
        assert_eq!(self.width, on_true.width, "row width mismatch");
        assert_eq!(self.width, on_false.width, "row width mismatch");
        let mut out = Self::zeros(self.width);
        let (m, t, f) = (self.limbs(), on_true.limbs(), on_false.limbs());
        for (i, o) in out.limbs_mut().iter_mut().enumerate() {
            *o = (t[i] & m[i]) | (f[i] & !m[i]);
        }
        out
    }

    /// Per-column `NOR(a, b)` in one fused pass (the BLB sense output of a
    /// dual-WL access).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub(crate) fn nor_of(a: &Self, b: &Self) -> Self {
        assert_eq!(a.width, b.width, "row width mismatch");
        let mut out = Self::zeros(a.width);
        let (la, lb) = (a.limbs(), b.limbs());
        for (i, o) in out.limbs_mut().iter_mut().enumerate() {
            *o = !(la[i] | lb[i]);
        }
        out.mask_top();
        out
    }

    /// Whole-row integer addition `self + rhs` (the row read as one
    /// little-endian `width`-bit integer), wrapping at the row width.
    ///
    /// This is the carry-propagating full-add the limb-parallel engine is
    /// built on: each `u64` limb is one 64-column carry-lookahead adder
    /// (the host ALU), with the inter-limb carry rippling once per limb.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn wrapping_row_add(&self, rhs: &Self) -> Self {
        assert_eq!(self.width, rhs.width, "row width mismatch");
        let mut out = Self::zeros(self.width);
        let (la, lb) = (self.limbs(), rhs.limbs());
        let mut carry = false;
        for (i, o) in out.limbs_mut().iter_mut().enumerate() {
            let (s1, c1) = la[i].overflowing_add(lb[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            *o = s2;
            carry = c1 | c2;
        }
        out.mask_top();
        out
    }

    /// Clears bits beyond `width` in the top limb (representation invariant).
    fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let limbs = self.limbs_mut();
            let last = limbs.len() - 1;
            limbs[last] &= (1u64 << rem) - 1;
        }
    }

    fn binary_op(&self, rhs: &Self, f: fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.width, rhs.width, "row width mismatch");
        let mut out = Self::zeros(self.width);
        let (la, lb) = (self.limbs(), rhs.limbs());
        for (i, o) in out.limbs_mut().iter_mut().enumerate() {
            *o = f(la[i], lb[i]);
        }
        out.mask_top();
        out
    }
}

impl PartialEq for BitRow {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.limbs() == other.limbs()
    }
}

impl Eq for BitRow {}

impl std::hash::Hash for BitRow {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.limbs().hash(state);
    }
}

impl BitAnd for &BitRow {
    type Output = BitRow;
    fn bitand(self, rhs: &BitRow) -> BitRow {
        self.binary_op(rhs, |a, b| a & b)
    }
}

impl BitOr for &BitRow {
    type Output = BitRow;
    fn bitor(self, rhs: &BitRow) -> BitRow {
        self.binary_op(rhs, |a, b| a | b)
    }
}

impl BitXor for &BitRow {
    type Output = BitRow;
    fn bitxor(self, rhs: &BitRow) -> BitRow {
        self.binary_op(rhs, |a, b| a ^ b)
    }
}

impl Not for &BitRow {
    type Output = BitRow;
    fn not(self) -> BitRow {
        let mut out = BitRow::zeros(self.width);
        let la = self.limbs();
        for (i, o) in out.limbs_mut().iter_mut().enumerate() {
            *o = !la[i];
        }
        out.mask_top();
        out
    }
}

impl fmt::Debug for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitRow<{}>(", self.width)?;
        // MSB (highest column) on the left, like a number.
        for i in (0..self.width).rev() {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width).rev() {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// Precomputed column masks for a row segmented into `segment_bits`-wide
/// lanes, plus the limb-parallel lane arithmetic built on them.
///
/// All operations are *per-lane*: carries and shifts never cross a lane
/// boundary, exactly like the hardware's MX3 reconfiguration muxes cutting
/// the carry chain. Leftover columns above the last whole lane are idle and
/// always read zero in results. Every operation is a fused single pass over
/// the `u64` limbs, so one host op covers 64 columns.
///
/// # Examples
///
/// ```
/// use bpimc_array::{BitRow, LaneMasks};
/// // Two 8-bit lanes in a 16-column row: 0xFF + 0x01 wraps, no carry leak.
/// let m = LaneMasks::new(16, 8);
/// let a = BitRow::from_u64(16, 0x00FF);
/// let b = BitRow::from_u64(16, 0x0001);
/// let (sum, carries) = m.lane_add(&a, &b, false);
/// assert_eq!(sum.get_field(0, 8), 0x00);
/// assert_eq!(sum.get_field(8, 8), 0x00);
/// assert!(carries.get(7) && !carries.get(15));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMasks {
    cols: usize,
    segment_bits: usize,
    /// 1 at the MSB column of every whole lane.
    msb: BitRow,
    /// 1 at the LSB column of every whole lane.
    lsb: BitRow,
    /// 1 at every column belonging to a whole lane.
    active: BitRow,
}

impl LaneMasks {
    /// Masks for `cols` columns in `segment_bits`-wide lanes.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `segment_bits` is zero.
    pub fn new(cols: usize, segment_bits: usize) -> Self {
        assert!(cols > 0, "cols must be positive");
        assert!(segment_bits > 0, "segment width must be positive");
        let lanes = cols / segment_bits;
        let mut msb = BitRow::zeros(cols);
        let mut lsb = BitRow::zeros(cols);
        let mut active = BitRow::zeros(cols);
        for lane in 0..lanes {
            let lo = lane * segment_bits;
            lsb.set(lo, true);
            msb.set(lo + segment_bits - 1, true);
        }
        for chunk in (0..lanes * segment_bits).step_by(64) {
            let w = 64.min(lanes * segment_bits - chunk);
            active.set_field(chunk, w, field_mask(w));
        }
        Self {
            cols,
            segment_bits,
            msb,
            lsb,
            active,
        }
    }

    /// Row width in columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Lane width in bits.
    pub fn segment_bits(&self) -> usize {
        self.segment_bits
    }

    /// Number of whole lanes.
    pub fn lane_count(&self) -> usize {
        self.cols / self.segment_bits
    }

    /// Per-lane addition `a + b` (+1 per lane when `carry_in`), wrapping at
    /// the lane width. Returns the per-column sums and a row holding each
    /// lane's carry-out at that lane's MSB column.
    ///
    /// The whole row is computed limb-wise: the lane-MSB columns are masked
    /// off so the full-width carry-propagating add cannot cross a lane
    /// boundary, then the MSB sum and carry-out are reconstructed with the
    /// full-adder identities `s = a ^ b ^ c` and `cout = majority(a, b, c)`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn lane_add(&self, a: &BitRow, b: &BitRow, carry_in: bool) -> (BitRow, BitRow) {
        assert_eq!(a.width(), self.cols, "row width mismatch");
        assert_eq!(b.width(), self.cols, "row width mismatch");
        let mut sum = BitRow::zeros(self.cols);
        let mut cout = BitRow::zeros(self.cols);
        lane_add_limbs(
            a.limbs(),
            b.limbs(),
            carry_in,
            self.msb.limbs(),
            self.lsb.limbs(),
            self.active.limbs(),
            sum.limbs_mut(),
            cout.limbs_mut(),
        );
        (sum, cout)
    }

    /// Per-lane logical left shift by one: every column takes its right
    /// neighbour's bit, each lane LSB takes zero.
    pub fn lane_shl1(&self, data: &BitRow) -> BitRow {
        assert_eq!(data.width(), self.cols, "row width mismatch");
        let mut out = BitRow::zeros(self.cols);
        let ld = data.limbs();
        let (ll, lact) = (self.lsb.limbs(), self.active.limbs());
        let lo = out.limbs_mut();
        let mut carry = 0u64;
        for i in 0..ld.len() {
            lo[i] = ((ld[i] << 1) | carry) & !ll[i] & lact[i];
            carry = ld[i] >> 63;
        }
        out
    }

    /// One add-and-shift step of a multiplication, in one pass over the
    /// limbs. Per lane: when bit `bit` of the lane's `multiplier` word is
    /// set (the FF bank's front bit; the bank holds the operand reversed,
    /// so step `s` of a `P`-bit multiply presents bit `P - 1 - s`), take
    /// `acc + multiplicand` wrapping at the lane width, else `acc`; then,
    /// unless `final_step`, shift the choice left by one within the lane.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch, if the lanes do not tile a 64-bit limb
    /// (product lanes are `2P` ∈ {4, 8, 16, 32, 64} bits wide), or if `bit`
    /// is not inside a lane.
    pub fn mult_step(
        &self,
        acc: &BitRow,
        multiplicand: &BitRow,
        multiplier: &BitRow,
        bit: usize,
        final_step: bool,
    ) -> BitRow {
        let seg = self.segment_bits;
        assert!(64 % seg == 0, "{seg}-bit lanes do not tile a 64-bit limb");
        assert!(bit < seg, "bit {bit} is outside a {seg}-bit lane");
        for r in [acc, multiplicand, multiplier] {
            assert_eq!(r.width(), self.cols, "row width mismatch");
        }
        // A lane-LSB bit times `fill` sets that whole lane. Lanes tile the
        // limb, so neither the products nor the masked sums below cross a
        // lane, and no bit carries or shifts across a limb boundary.
        let fill = field_mask(seg);
        let (la, lb, lq) = (acc.limbs(), multiplicand.limbs(), multiplier.limbs());
        let (lm, ll, lact) = (self.msb.limbs(), self.lsb.limbs(), self.active.limbs());
        let mut out = BitRow::zeros(self.cols);
        for (i, o) in out.limbs_mut().iter_mut().enumerate() {
            let body = !lm[i] & lact[i];
            let sum = ((la[i] & body) + (lb[i] & body)) ^ ((la[i] ^ lb[i]) & lm[i]);
            let take = ((lq[i] >> bit) & ll[i]).wrapping_mul(fill);
            let next = (sum & take) | (la[i] & !take);
            *o = if final_step {
                next & lact[i]
            } else {
                (next << 1) & !ll[i] & lact[i]
            };
        }
        out
    }
}

/// The fused limb loop behind [`LaneMasks::lane_add`].
#[allow(clippy::too_many_arguments)]
fn lane_add_limbs(
    la: &[u64],
    lb: &[u64],
    carry_in: bool,
    lm: &[u64],
    ll: &[u64],
    lact: &[u64],
    ls: &mut [u64],
    lc: &mut [u64],
) {
    let (mut c1, mut c2) = (false, false);
    for i in 0..la.len() {
        let not_msb = !lm[i];
        let am = la[i] & not_msb & lact[i];
        let bm = lb[i] & not_msb & lact[i];
        // Stage 1: MSB-masked halves cannot carry across a lane boundary.
        let (s1, k1) = am.overflowing_add(bm);
        let (s1, k1b) = s1.overflowing_add(c1 as u64);
        c1 = k1 | k1b;
        // Stage 2: +1 at each lane LSB when a carry-in is requested.
        let s = if carry_in {
            let (s2, k2) = s1.overflowing_add(ll[i]);
            let (s2, k2b) = s2.overflowing_add(c2 as u64);
            c2 = k2 | k2b;
            s2
        } else {
            s1
        };
        let axb = la[i] ^ lb[i];
        ls[i] = (s ^ (axb & lm[i])) & lact[i];
        lc[i] = ((la[i] & lb[i]) | (axb & s)) & lm[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip_across_limb_boundary() {
        let mut r = BitRow::zeros(130);
        for i in [0, 63, 64, 65, 127, 128, 129] {
            r.set(i, true);
            assert!(r.get(i), "bit {i}");
        }
        assert_eq!(r.count_ones(), 7);
        r.set(64, false);
        assert_eq!(r.count_ones(), 6);
    }

    #[test]
    fn ones_respects_width() {
        let r = BitRow::ones(70);
        assert_eq!(r.count_ones(), 70);
        let r = BitRow::ones(64);
        assert_eq!(r.count_ones(), 64);
    }

    #[test]
    fn fields_cross_limb_boundaries() {
        let mut r = BitRow::zeros(128);
        r.set_field(60, 16, 0xBEEF);
        assert_eq!(r.get_field(60, 16), 0xBEEF);
        assert_eq!(r.get_field(60 + 4, 8), (0xBEEF >> 4) & 0xFF);
    }

    #[test]
    fn logic_ops_match_reference() {
        let a = BitRow::from_u64(64, 0b1100);
        let b = BitRow::from_u64(64, 0b1010);
        assert_eq!((&a & &b).get_field(0, 8), 0b1000);
        assert_eq!((&a | &b).get_field(0, 8), 0b1110);
        assert_eq!((&a ^ &b).get_field(0, 8), 0b0110);
        let n = !&a;
        assert!(!n.get(2));
        assert!(n.get(0));
    }

    #[test]
    fn not_respects_width_invariant() {
        let r = BitRow::zeros(100);
        let n = !&r;
        assert_eq!(n.count_ones(), 100);
    }

    #[test]
    fn display_is_msb_first() {
        let r = BitRow::from_u64(4, 0b0011);
        assert_eq!(r.to_string(), "0011");
        assert!(format!("{r:?}").contains("0011"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_widths_panic() {
        let a = BitRow::zeros(64);
        let b = BitRow::zeros(65);
        let _ = &a & &b;
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_get_panics() {
        let r = BitRow::zeros(8);
        let _ = r.get(8);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_field_value_panics() {
        let mut r = BitRow::zeros(16);
        r.set_field(0, 4, 16);
    }

    #[test]
    fn heap_rows_work_beyond_inline_capacity() {
        // 1024 columns (Fig. 9's largest BL size) spills to the heap.
        // 1024 > BitRow::INLINE_COLS, so this row is heap-backed.
        let mut r = BitRow::zeros(1024);
        for i in [0, 255, 256, 511, 767, 1023] {
            r.set(i, true);
        }
        assert_eq!(r.count_ones(), 6);
        let s = r.shl_bits(1);
        assert!(s.get(1) && s.get(256) && !s.get(0));
        assert!(!s.get(1023), "top bit dropped");
        let back = s.shr_bits(1);
        assert_eq!(back.count_ones(), 5, "bit 1023 was lost by the shift");
    }

    #[test]
    fn equality_ignores_inline_vs_heap_representation() {
        let mut a = BitRow::zeros(1024);
        a.set(700, true);
        let mut b = BitRow::zeros(1024);
        b.set(700, true);
        assert_eq!(a, b);
        b.set(0, true);
        assert_ne!(a, b);
    }

    #[test]
    fn shifts_by_k_match_per_bit_reference() {
        for width in [8usize, 64, 100, 128, 130, 320] {
            let mut r = BitRow::zeros(width);
            for i in (0..width).step_by(3) {
                r.set(i, true);
            }
            for k in [0usize, 1, 5, 63, 64, 65, width - 1] {
                let l = r.shl_bits(k);
                let s = r.shr_bits(k);
                for i in 0..width {
                    let expect_l = i >= k && r.get(i - k);
                    let expect_s = i + k < width && r.get(i + k);
                    assert_eq!(l.get(i), expect_l, "shl width {width} k {k} bit {i}");
                    assert_eq!(s.get(i), expect_s, "shr width {width} k {k} bit {i}");
                }
            }
        }
    }

    #[test]
    fn select_mixes_per_column() {
        let m = BitRow::from_u64(8, 0b1111_0000);
        let t = BitRow::from_u64(8, 0b1010_1010);
        let f = BitRow::from_u64(8, 0b0101_0101);
        assert_eq!(m.select(&t, &f).get_field(0, 8), 0b1010_0101);
    }

    #[test]
    fn nor_of_matches_operators() {
        let a = BitRow::from_u64(80, 0xF0F0);
        let b = BitRow::from_u64(80, 0x0FF0);
        assert_eq!(BitRow::nor_of(&a, &b), &!&a & &!&b);
    }

    #[test]
    fn wrapping_row_add_is_big_integer_addition() {
        // 128-bit add with a carry across the limb boundary.
        let a = BitRow::from_limbs(128, vec![u64::MAX, 0]);
        let b = BitRow::from_u64(128, 1);
        let s = a.wrapping_row_add(&b);
        assert_eq!(s.limbs(), &[0, 1]);
        // Wraps at the row width.
        let m = BitRow::ones(96);
        let one = BitRow::from_u64(96, 1);
        assert_eq!(m.wrapping_row_add(&one).count_ones(), 0);
    }

    #[test]
    fn lane_add_matches_per_word_arithmetic() {
        for (cols, seg) in [
            (128usize, 8usize),
            (128, 2),
            (130, 16),
            (320, 32),
            (1024, 8),
        ] {
            let m = LaneMasks::new(cols, seg);
            let mut a = BitRow::zeros(cols);
            let mut b = BitRow::zeros(cols);
            for i in 0..cols {
                a.set(i, i % 3 == 0);
                b.set(i, i % 5 != 0);
            }
            for cin in [false, true] {
                let (sum, cout) = m.lane_add(&a, &b, cin);
                for lane in 0..m.lane_count() {
                    let wa = a.get_field(lane * seg, seg.min(64));
                    let wb = b.get_field(lane * seg, seg.min(64));
                    let total = wa as u128 + wb as u128 + cin as u128;
                    let expect = (total & field_mask(seg.min(64)) as u128) as u64;
                    assert_eq!(
                        sum.get_field(lane * seg, seg.min(64)),
                        expect,
                        "cols {cols} seg {seg} lane {lane} cin {cin}"
                    );
                    let expect_cout = total >> seg == 1;
                    assert_eq!(cout.get(lane * seg + seg - 1), expect_cout);
                }
            }
        }
    }
}
