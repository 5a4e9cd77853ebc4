//! Bit-packed binary hypervectors: one `u64` word carries 64 dimensions.
//!
//! A [`PackedHypervector`] is the sign quantization of a dense bipolar
//! hypervector. The bit convention is **bit = 1 ⇔ −1, bit = 0 ⇔ +1**, so
//! element-wise multiplication of signs (binding) becomes XOR — the parity
//! of negative factors — and the dot product of two sign vectors follows
//! from the Hamming distance `h` as `d − 2h`. Relative to the dense `f32`
//! representation this is a 32× memory reduction, and similarity drops from
//! `3d` floating-point operations to `d/64` XOR+popcount word operations.

// smore-lint: allow-file(panic_path) word indices are all bounded by words_for(dim); the kernels are property-tested bit-for-bit against dense arithmetic

use smore_hdc::bits::{rotate_words_into, sign_words, words_for, WORD_BITS};
use smore_hdc::{HdcError, Hypervector};

use crate::Result;

/// A sign-quantized hypervector stored as packed bits (64 dims per word).
///
/// Unused padding bits in the final word are always zero, which every
/// operation preserves; Hamming distances therefore never count padding.
///
/// # Example
///
/// ```
/// use smore_packed::PackedHypervector;
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// let a = PackedHypervector::from_signs(&[1.0, -1.0, 1.0, 1.0]);
/// let b = PackedHypervector::from_signs(&[-1.0, -1.0, 1.0, -1.0]);
/// assert_eq!(a.hamming(&b)?, 2);
/// // Binding is XOR and self-inverse: (a ⊕ b) ⊕ a = b.
/// let bound = a.xor(&b)?;
/// assert_eq!(bound.xor(&a)?, b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedHypervector {
    words: Vec<u64>,
    dim: usize,
}

impl PackedHypervector {
    /// The all-`+1` hypervector (every bit zero) of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self { words: vec![0u64; words_for(dim)], dim }
    }

    /// Sign-quantizes a dense slice: strictly negative values set the bit
    /// (−1), everything else — positive, zero and non-finite — clears it
    /// (+1).
    pub fn from_signs(values: &[f32]) -> Self {
        Self { words: sign_words(values), dim: values.len() }
    }

    /// Sign-quantizes a dense [`Hypervector`].
    pub fn from_dense(hv: &Hypervector) -> Self {
        Self::from_signs(hv.as_slice())
    }

    /// Reconstructs a packed hypervector from its raw storage words — the
    /// artifact-load path, the inverse of [`words`](Self::words).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when the word count does not
    /// match `dim` or the final word violates the zero-padding invariant
    /// (both indicate corrupted or foreign bytes, not a usable vector).
    pub fn from_words(dim: usize, words: Vec<u64>) -> Result<Self> {
        if words.len() != words_for(dim) {
            return Err(HdcError::InvalidConfig {
                what: format!(
                    "{} storage words cannot carry {dim} dimensions (need {})",
                    words.len(),
                    words_for(dim)
                ),
            });
        }
        let tail_bits = dim % WORD_BITS;
        if tail_bits != 0 && words[words.len() - 1] >> tail_bits != 0 {
            return Err(HdcError::InvalidConfig {
                what: format!("padding bits beyond dimension {dim} must be zero"),
            });
        }
        Ok(Self { words, dim })
    }

    /// Expands back to a dense bipolar hypervector (`bit → ∓1`).
    pub fn to_dense(&self) -> Hypervector {
        Hypervector::from_vec((0..self.dim).map(|i| if self.get(i) { -1.0 } else { 1.0 }).collect())
    }

    /// Dimensionality (bits in use, not storage capacity).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the hypervector has zero dimensions.
    pub fn is_empty(&self) -> bool {
        self.dim == 0
    }

    /// The packed storage words (LSB-first within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable storage words — crate-internal so the zero-padding invariant
    /// of the final word cannot be violated from outside.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Bytes of storage held by the packed representation.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Reads bit `i` (`true` ⇔ −1).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.dim, "bit {i} out of range for dim {}", self.dim);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Overwrites every bit from a per-dimension predicate (`true` ⇔ −1),
    /// building each storage word in a register before one store — the
    /// allocation-free way to re-threshold an existing hypervector (e.g.
    /// from an accumulator's counters) without per-bit
    /// [`set`](Self::set) bounds checks. Padding bits stay zero.
    pub fn fill_with(&mut self, mut neg: impl FnMut(usize) -> bool) {
        let dim = self.dim;
        for (w, word) in self.words.iter_mut().enumerate() {
            let base = w * WORD_BITS;
            let bits = WORD_BITS.min(dim - base);
            let mut acc = 0u64;
            for b in 0..bits {
                acc |= u64::from(neg(base + b)) << b;
            }
            *word = acc;
        }
    }

    /// Writes bit `i` (`true` ⇔ −1).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.dim, "bit {i} out of range for dim {}", self.dim);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Number of −1 components (population count).
    pub fn count_negatives(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Binding: element-wise sign multiplication, i.e. word-wise XOR.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    pub fn xor(&self, other: &Self) -> Result<Self> {
        self.check_dim(other)?;
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| a ^ b).collect();
        Ok(Self { words, dim: self.dim })
    }

    /// In-place binding `self ⊕= other`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    pub fn xor_assign(&mut self, other: &Self) -> Result<()> {
        self.check_dim(other)?;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
        Ok(())
    }

    /// Hamming distance: number of disagreeing dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    #[inline]
    pub fn hamming(&self, other: &Self) -> Result<usize> {
        self.check_dim(other)?;
        Ok(self.words.iter().zip(&other.words).map(|(&a, &b)| (a ^ b).count_ones() as usize).sum())
    }

    /// Dot product of the underlying sign vectors: `d − 2·hamming`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    #[inline]
    pub fn dot(&self, other: &Self) -> Result<i64> {
        Ok(self.dim as i64 - 2 * self.hamming(other)? as i64)
    }

    /// Cosine-equivalent similarity `1 − 2h/d ∈ [−1, 1]`.
    ///
    /// For sign vectors (equal norm `√d`) this *is* their exact cosine, so
    /// packed similarities obey the same contract as
    /// [`Hypervector::cosine`]. Zero-dimensional inputs return `0.0` (the
    /// neutral value, matching the dense convention for zero vectors).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    #[inline]
    pub fn similarity(&self, other: &Self) -> Result<f32> {
        self.check_dim(other)?;
        if self.dim == 0 {
            return Ok(0.0);
        }
        Ok(1.0 - 2.0 * self.hamming(other)? as f32 / self.dim as f32)
    }

    /// Permutation `ρ^k`: circular shift of the `d`-bit ring so that bit
    /// `i` moves to `(i + k) mod d` — the exact analog of
    /// [`Hypervector::permute`] (the value of the final dimension moves to
    /// the first position for `k = 1`).
    pub fn rotate(&self, k: usize) -> Self {
        let mut out = Self::zeros(self.dim);
        self.rotate_into(k, &mut out);
        out
    }

    /// [`rotate`](Self::rotate) into an existing buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out.dim() != self.dim()`.
    pub fn rotate_into(&self, k: usize, out: &mut Self) {
        assert_eq!(out.dim, self.dim, "rotate_into: dimension mismatch");
        rotate_words_into(&self.words, self.dim, k, &mut out.words);
    }

    /// Inverse permutation: `unrotate(k)` undoes `rotate(k)`.
    pub fn unrotate(&self, k: usize) -> Self {
        if self.dim == 0 {
            return self.clone();
        }
        self.rotate(self.dim - (k % self.dim))
    }

    fn check_dim(&self, other: &Self) -> Result<()> {
        if self.dim != other.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: other.dim });
        }
        Ok(())
    }
}

/// Integer counter accumulator for counter-based majority bundling.
///
/// Binary HDC cannot bundle by addition — the sum of sign bits is not a
/// sign bit — so bundling accumulates per-dimension counts (`+1` for a
/// `+1` bit, `−1` for a `−1` bit) and thresholds at zero: the majority
/// sign wins, with ties resolving to `+1` deterministically.
///
/// # Example
///
/// ```
/// use smore_packed::{PackedAccumulator, PackedHypervector};
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// let a = PackedHypervector::from_signs(&[1.0, 1.0, -1.0]);
/// let b = PackedHypervector::from_signs(&[1.0, -1.0, -1.0]);
/// let c = PackedHypervector::from_signs(&[-1.0, 1.0, 1.0]);
/// let mut acc = PackedAccumulator::new(3);
/// for hv in [&a, &b, &c] {
///     acc.accumulate(hv)?;
/// }
/// assert_eq!(acc.finish(), PackedHypervector::from_signs(&[1.0, 1.0, -1.0]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedAccumulator {
    counts: Vec<i32>,
    dim: usize,
}

impl PackedAccumulator {
    /// A zeroed accumulator of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self { counts: vec![0i32; dim], dim }
    }

    /// Dimensionality of the accumulator.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The per-dimension signed counts (positive ⇔ `+1` majority so far).
    pub fn counts(&self) -> &[i32] {
        &self.counts
    }

    /// Adds one packed hypervector: `counts[i] += ±1` by bit sign.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    pub fn accumulate(&mut self, hv: &PackedHypervector) -> Result<()> {
        self.accumulate_signed(hv, 1)
    }

    /// Adds one packed hypervector scaled by an integer sign/weight —
    /// `counts[i] += weight · sign_i` — the primitive behind signature
    /// binding of integer counters.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    pub fn accumulate_signed(&mut self, hv: &PackedHypervector, weight: i32) -> Result<()> {
        if hv.dim() != self.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: hv.dim() });
        }
        for (w, &word) in hv.words().iter().enumerate() {
            let base = w * WORD_BITS;
            let bits = WORD_BITS.min(self.dim - base);
            for b in 0..bits {
                // bit 1 ⇔ −1: subtract the weight when the bit is set.
                let sign = 1 - 2 * ((word >> b) & 1) as i32;
                self.counts[base + b] += weight * sign;
            }
        }
        Ok(())
    }

    /// Majority threshold: positive counts → `+1`, negative → `−1`, ties →
    /// `+1` (deterministic).
    pub fn finish(&self) -> PackedHypervector {
        let mut out = PackedHypervector::zeros(self.dim);
        for (i, &c) in self.counts.iter().enumerate() {
            if c < 0 {
                out.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smore_hdc::bits::BitSliceAccumulator;
    use smore_tensor::init;

    fn random_packed(seed: u64, dim: usize) -> PackedHypervector {
        PackedHypervector::from_signs(&init::bipolar_vec(&mut init::rng(seed), dim))
    }

    #[test]
    fn round_trip_preserves_signs() {
        let dense = init::normal_vec(&mut init::rng(1), 300);
        let packed = PackedHypervector::from_signs(&dense);
        let back = packed.to_dense();
        for (i, (&v, &b)) in dense.iter().zip(back.as_slice()).enumerate() {
            if v < 0.0 {
                assert_eq!(b, -1.0, "dim {i}");
            } else {
                assert_eq!(b, 1.0, "dim {i}");
            }
        }
    }

    #[test]
    fn padding_bits_stay_zero() {
        // 70 dims → 2 words, 58 padding bits in the second word.
        let a = random_packed(2, 70);
        let b = random_packed(3, 70);
        let bound = a.xor(&b).unwrap();
        assert_eq!(bound.words()[1] >> 6, 0, "padding must stay clear");
        assert!(bound.hamming(&a).unwrap() <= 70);
    }

    #[test]
    fn xor_bind_is_self_inverse_and_commutative() {
        let a = random_packed(4, 512);
        let b = random_packed(5, 512);
        let ab = a.xor(&b).unwrap();
        assert_eq!(ab, b.xor(&a).unwrap());
        assert_eq!(ab.xor(&a).unwrap(), b);
        let mut c = a.clone();
        c.xor_assign(&b).unwrap();
        assert_eq!(c, ab);
    }

    #[test]
    fn similarity_matches_dense_cosine_of_signs() {
        let a = random_packed(6, 4096);
        let b = random_packed(7, 4096);
        let dense_sim = a.to_dense().cosine(&b.to_dense()).unwrap();
        let packed_sim = a.similarity(&b).unwrap();
        assert!((dense_sim - packed_sim).abs() < 1e-5);
        assert_eq!(a.similarity(&a).unwrap(), 1.0);
        assert_eq!(a.dot(&a).unwrap(), 4096);
    }

    #[test]
    fn rotate_matches_dense_permute() {
        for dim in [64usize, 128, 192, 70, 5] {
            let a = random_packed(8, dim);
            for k in [0usize, 1, 3, 63, 64, 65, dim - 1, dim, dim + 2] {
                let packed_rot = a.rotate(k);
                let dense_rot = PackedHypervector::from_dense(&a.to_dense().permute(k));
                assert_eq!(packed_rot, dense_rot, "dim {dim}, k {k}");
                assert_eq!(packed_rot.unrotate(k), a, "dim {dim}, k {k} inverse");
            }
        }
    }

    #[test]
    fn rotate_into_avoids_allocation_and_matches() {
        let a = random_packed(9, 256);
        let mut out = PackedHypervector::zeros(256);
        a.rotate_into(5, &mut out);
        assert_eq!(out, a.rotate(5));
        a.rotate_into(0, &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn rotate_is_near_orthogonal_for_random_vectors() {
        let a = random_packed(10, 4096);
        let sim = a.rotate(1).similarity(&a).unwrap();
        assert!(sim.abs() < 0.1, "ρH should be nearly orthogonal to H, got {sim}");
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = PackedHypervector::zeros(64);
        let b = PackedHypervector::zeros(128);
        assert!(matches!(
            a.xor(&b),
            Err(HdcError::DimensionMismatch { expected: 64, actual: 128 })
        ));
        assert!(a.hamming(&b).is_err());
        assert!(a.similarity(&b).is_err());
        let mut acc = PackedAccumulator::new(64);
        assert!(acc.accumulate(&b).is_err());
    }

    #[test]
    fn majority_bundle_is_similar_to_members() {
        let a = random_packed(11, 4096);
        let b = random_packed(12, 4096);
        let c = random_packed(13, 4096);
        let outsider = random_packed(14, 4096);
        let mut acc = PackedAccumulator::new(4096);
        for hv in [&a, &b, &c] {
            acc.accumulate(hv).unwrap();
        }
        let bundle = acc.finish();
        for hv in [&a, &b, &c] {
            assert!(bundle.similarity(hv).unwrap() > 0.3);
        }
        assert!(bundle.similarity(&outsider).unwrap().abs() < 0.1);
    }

    #[test]
    fn accumulate_signed_flips_contribution() {
        let a = random_packed(15, 128);
        let mut plus = PackedAccumulator::new(128);
        plus.accumulate_signed(&a, 3).unwrap();
        let mut minus = PackedAccumulator::new(128);
        minus.accumulate_signed(&a, -3).unwrap();
        for (p, m) in plus.counts().iter().zip(minus.counts()) {
            assert_eq!(*p, -*m);
        }
    }

    #[test]
    fn ties_resolve_to_plus_one() {
        let acc = PackedAccumulator::new(4);
        assert_eq!(acc.finish(), PackedHypervector::zeros(4));
    }

    #[test]
    fn bit_accessors_and_storage() {
        let mut a = PackedHypervector::zeros(70);
        a.set(69, true);
        assert!(a.get(69));
        assert!(!a.get(0));
        a.set(69, false);
        assert_eq!(a.count_negatives(), 0);
        assert_eq!(a.storage_bytes(), 16);
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert!(PackedHypervector::zeros(0).is_empty());
    }

    #[test]
    fn bit_slice_accumulator_matches_packed_accumulator() {
        // The shared SWAR counter (`smore_hdc::bits`) against the per-bit
        // counters.
        for dim in [64usize, 256, 70, 5, 192] {
            let mut swar = BitSliceAccumulator::new(dim);
            let mut reference = PackedAccumulator::new(dim);
            for seed in 0..10 {
                let hv = random_packed(seed, dim);
                swar.absorb(hv.words());
                reference.accumulate(&hv).unwrap();
            }
            assert_eq!(swar.absorbed(), 10);
            let mut counts = vec![0i32; dim];
            swar.counts_into(&mut counts);
            assert_eq!(counts.as_slice(), reference.counts(), "dim {dim}");
        }
    }

    #[test]
    fn bit_slice_accumulator_flushes_past_capacity() {
        // 600 absorbs force two automatic capacity flushes (capacity 255).
        let dim = 128;
        let mut swar = BitSliceAccumulator::new(dim);
        let mut reference = PackedAccumulator::new(dim);
        for seed in 0..600 {
            let hv = random_packed(seed, dim);
            swar.absorb(hv.words());
            reference.accumulate(&hv).unwrap();
        }
        let mut counts = vec![0i32; dim];
        swar.counts_into(&mut counts);
        assert_eq!(counts.as_slice(), reference.counts());
    }

    #[test]
    fn bit_slice_accumulator_bound_absorb_folds_signature() {
        let dim = 256;
        let a = random_packed(30, dim);
        let sig = random_packed(31, dim);
        let mut swar = BitSliceAccumulator::new(dim);
        swar.absorb_bound(a.words(), sig.words());
        let mut reference = PackedAccumulator::new(dim);
        reference.accumulate(&a.xor(&sig).unwrap()).unwrap();
        let mut counts = vec![0i32; dim];
        swar.counts_into(&mut counts);
        assert_eq!(counts.as_slice(), reference.counts());
    }

    #[test]
    fn bit_slice_accumulator_reset_reuses_storage() {
        let dim = 192;
        let mut swar = BitSliceAccumulator::new(dim);
        swar.absorb(random_packed(40, dim).words());
        swar.reset();
        assert_eq!(swar.absorbed(), 0);
        assert_eq!(swar.dim(), dim);
        let mut counts = vec![1i32; dim];
        swar.counts_into(&mut counts);
        assert!(counts.iter().all(|&c| c == 0), "reset clears all counters");
    }

    #[test]
    fn fill_with_packs_words_and_preserves_padding() {
        let mut a = PackedHypervector::zeros(70);
        a.fill_with(|i| i % 3 == 0);
        for i in 0..70 {
            assert_eq!(a.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(a.words()[1] >> 6, 0, "padding must stay clear");
        a.fill_with(|_| false);
        assert_eq!(a.count_negatives(), 0);
    }

    #[test]
    fn empty_vectors_are_neutral() {
        let a = PackedHypervector::zeros(0);
        assert_eq!(a.similarity(&a).unwrap(), 0.0);
        assert_eq!(a.rotate(3), a);
        assert_eq!(a.unrotate(3), a);
        assert_eq!(a.to_dense().dim(), 0);
    }
}
