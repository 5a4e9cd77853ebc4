//! Word-level sign-bit kernels: the shared core of the exact integer
//! encode path of [`crate::encoder::MultiSensorEncoder`] and of the
//! `smore_packed` serving backend.
//!
//! A bipolar (`±1`) vector is stored one bit per dimension, 64 dimensions
//! per `u64` word, LSB first, with the convention **bit = 1 ⇔ −1,
//! bit = 0 ⇔ +1**. Binding (element-wise sign product) is then XOR, and
//! the permutation `ρ^k` is a rotation of the `d`-bit ring
//! ([`rotate_words_into`]). Padding bits past `d` in the final word are
//! always zero.
//!
//! Bundling many such vectors goes through a [`BitSliceAccumulator`],
//! which counts the 1-bits of all 64 dimensions of a word at once. Its
//! counters are exact integers, so they reproduce an `f32` sum of the same
//! `±1` values exactly whenever that sum stays below `2^24`.

/// Dimensions carried per storage word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed for `dim` dimensions.
#[inline]
pub fn words_for(dim: usize) -> usize {
    dim.div_ceil(WORD_BITS)
}

/// Packs the signs of a dense slice: strictly negative values set the bit
/// (−1); positive, zero and non-finite values clear it (+1).
pub fn sign_words(values: &[f32]) -> Vec<u64> {
    let mut words = vec![0u64; words_for(values.len())];
    for (i, &v) in values.iter().enumerate() {
        if v < 0.0 {
            words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
        }
    }
    words
}

/// Rotates the `dim`-bit ring held in `src` by `k` positions into `out`
/// (bit `i` moves to `(i + k) mod dim`, the packed image of
/// [`crate::Hypervector::permute`]), keeping the final word's padding
/// zero.
///
/// # Panics
///
/// Panics if `src` and `out` are not both `words_for(dim)` long.
pub fn rotate_words_into(src: &[u64], dim: usize, k: usize, out: &mut [u64]) {
    assert_eq!(src.len(), words_for(dim), "rotate_words_into: bad source length");
    assert_eq!(out.len(), src.len(), "rotate_words_into: bad output length");
    if dim == 0 {
        return;
    }
    let k = k % dim;
    if k == 0 {
        out.copy_from_slice(src);
        return;
    }
    if dim.is_multiple_of(WORD_BITS) {
        let nw = src.len();
        let wshift = k / WORD_BITS;
        let bshift = k % WORD_BITS;
        if wshift == 0 {
            // Sub-word rotation (the common n-gram case, k < 64): each
            // output word is its own word shifted up, topped up from the
            // previous word — no index arithmetic in the loop.
            let mut prev = src[nw - 1];
            for (o, &cur) in out.iter_mut().zip(src) {
                *o = (cur << bshift) | (prev >> (WORD_BITS - bshift));
                prev = cur;
            }
        } else {
            // Word rotation: output word w takes its high bits from source
            // word (w − k/64) and its low bits from the word before.
            for (w, o) in out.iter_mut().enumerate() {
                let hi = src[(w + nw - wshift) % nw];
                *o = if bshift == 0 {
                    hi
                } else {
                    let lo = src[(w + nw - wshift - 1) % nw];
                    (hi << bshift) | (lo >> (WORD_BITS - bshift))
                };
            }
        }
    } else {
        // Ragged dimensions: bit-by-bit fallback (correctness over speed;
        // every production dimensionality is word-aligned).
        out.iter_mut().for_each(|w| *w = 0);
        for i in 0..dim {
            if (src[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1 {
                let j = (i + k) % dim;
                out[j / WORD_BITS] |= 1u64 << (j % WORD_BITS);
            }
        }
    }
}

/// Bit-plane counters per position: `planes[w * CSA_PLANES + j]` holds bit
/// `j` of the running 1-bit count for every dimension in word `w`. Eight
/// planes absorb up to `2^8 − 1` words between flushes.
const CSA_PLANES: usize = 8;

/// Words absorbable before the plane counters would overflow.
const CSA_CAPACITY: u32 = (1 << CSA_PLANES) - 1;

/// Word-parallel (SWAR) bundling through a carry-save-adder plane stack.
///
/// Counting the `±1` values of a bundle one dimension at a time costs `d`
/// sequential adds per bundled vector. `BitSliceAccumulator` instead keeps
/// the per-dimension count of absorbed 1-bits *bit-sliced* across eight
/// planes: absorbing a word is a binary increment of 64 independent
/// counters at once (`XOR` for the sum bit, `AND` for the carry), touching
/// on average two plane words per absorbed word. Once the planes near
/// capacity (or at the end), [`flush`](Self::flush) folds them into
/// ordinary integer counters, so arbitrarily many vectors can be bundled.
///
/// The counters read back signed: a `+1` bit (0) contributes `+1`, a `−1`
/// bit (1) contributes `−1`.
///
/// # Example
///
/// ```
/// use smore_hdc::bits::{sign_words, BitSliceAccumulator};
///
/// let a = sign_words(&[1.0, 1.0, -1.0]);
/// let b = sign_words(&[1.0, -1.0, -1.0]);
/// let mut acc = BitSliceAccumulator::new(3);
/// acc.absorb(&a);
/// acc.absorb(&b);
/// let mut counts = vec![0i32; 3];
/// acc.counts_into(&mut counts);
/// assert_eq!(counts, [2, 0, -2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSliceAccumulator {
    /// Word-major plane stack: `CSA_PLANES` counter bits per storage word.
    planes: Vec<u64>,
    /// Flushed per-dimension totals of absorbed 1-bits.
    ones: Vec<i32>,
    /// Words absorbed since the last flush (bounded by [`CSA_CAPACITY`]).
    pending: u32,
    /// Total words absorbed since the last reset.
    absorbed: i32,
    dim: usize,
}

impl BitSliceAccumulator {
    /// A zeroed accumulator of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            planes: vec![0u64; words_for(dim) * CSA_PLANES],
            ones: vec![0i32; dim],
            pending: 0,
            absorbed: 0,
            dim,
        }
    }

    /// Dimensionality of the accumulator.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors absorbed since the last reset.
    pub fn absorbed(&self) -> i32 {
        self.absorbed
    }

    /// Clears all state for reuse without reallocating.
    pub fn reset(&mut self) {
        self.planes.iter_mut().for_each(|w| *w = 0);
        self.ones.iter_mut().for_each(|c| *c = 0);
        self.pending = 0;
        self.absorbed = 0;
    }

    /// Absorbs one packed sign vector.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not `words_for(dim)` long.
    pub fn absorb(&mut self, words: &[u64]) {
        assert_eq!(words.len(), words_for(self.dim), "absorb: bad operand length");
        self.absorb_stream(words.iter().copied());
    }

    /// Absorbs the *binding* `a ⊕ b` of two word buffers without
    /// materialising it — the fused signature-integration primitive: binding
    /// a ±1 bundle element with a ±1 signature is a per-dimension sign
    /// flip, i.e. one XOR folded into the bundling read.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not both `words_for(dim)` long.
    pub fn absorb_bound(&mut self, a: &[u64], b: &[u64]) {
        let nw = words_for(self.dim);
        assert_eq!(a.len(), nw, "absorb_bound: bad operand length");
        assert_eq!(b.len(), nw, "absorb_bound: bad operand length");
        self.absorb_stream(a.iter().zip(b).map(|(&x, &y)| x ^ y));
    }

    /// The shared absorb core: one binary increment of 64 bit-sliced
    /// counters per word — XOR is the sum bit, AND the carry into the next
    /// plane; the carry chain dies after ~2 planes on average.
    fn absorb_stream(&mut self, words: impl Iterator<Item = u64>) {
        if self.pending == CSA_CAPACITY {
            self.flush();
        }
        for (plane, word) in self.planes.chunks_exact_mut(CSA_PLANES).zip(words) {
            let mut carry = word;
            for slot in plane.iter_mut() {
                if carry == 0 {
                    break;
                }
                let next = *slot & carry;
                *slot ^= carry;
                carry = next;
            }
            debug_assert_eq!(carry, 0, "plane overflow despite capacity flush");
        }
        self.pending += 1;
        self.absorbed += 1;
    }

    /// Folds the pending plane counters into the integer totals and zeroes
    /// the planes. Called automatically at capacity and by
    /// [`counts_into`](Self::counts_into); callers never need it for
    /// correctness.
    pub fn flush(&mut self) {
        if self.pending == 0 {
            return;
        }
        // Only planes that can be non-zero for `pending` absorbed words.
        let used = (u32::BITS - self.pending.leading_zeros()) as usize;
        for (plane, ones) in
            self.planes.chunks_exact_mut(CSA_PLANES).zip(self.ones.chunks_mut(WORD_BITS))
        {
            for (j, slot) in plane[..used].iter_mut().enumerate() {
                let mut word = *slot;
                *slot = 0;
                let weight = 1i32 << j;
                while word != 0 {
                    ones[word.trailing_zeros() as usize] += weight;
                    word &= word - 1;
                }
            }
        }
        self.pending = 0;
    }

    /// Writes the signed counters (`absorbed − 2·ones`: the sum of the
    /// absorbed `±1` values per dimension) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim`.
    pub fn counts_into(&mut self, out: &mut [i32]) {
        assert_eq!(out.len(), self.dim, "counts_into: bad output length");
        self.flush();
        for (o, &ones) in out.iter_mut().zip(&self.ones) {
            *o = self.absorbed - 2 * ones;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smore_tensor::init;

    /// Small dims keep these fast under Miri; 70 and 5 cover the ragged
    /// tail word.
    const DIMS: [usize; 4] = [5, 64, 70, 128];

    fn random_words(seed: u64, dim: usize) -> Vec<u64> {
        sign_words(&init::bipolar_vec(&mut init::rng(seed), dim))
    }

    fn bit(words: &[u64], i: usize) -> bool {
        (words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    #[test]
    fn sign_words_sets_negative_bits_and_clears_padding() {
        let values = [1.0, -1.0, 0.0, -0.0, f32::NAN, -3.5, f32::NEG_INFINITY];
        assert_eq!(sign_words(&values), vec![1 << 1 | 1 << 5 | 1 << 6]);
        assert_eq!(sign_words(&[-1.0; 70])[1], (1 << 6) - 1, "padding stays clear");
        assert!(sign_words(&[]).is_empty());
    }

    #[test]
    fn rotate_matches_bitwise_permutation() {
        for dim in DIMS {
            let src = random_words(dim as u64, dim);
            let mut out = vec![0u64; words_for(dim)];
            for k in [0, 1, 3, 63, 64, 65, dim - 1, dim, 2 * dim + 1] {
                rotate_words_into(&src, dim, k, &mut out);
                for i in 0..dim {
                    assert_eq!(bit(&out, (i + k) % dim), bit(&src, i), "dim {dim} k {k} bit {i}");
                }
                if dim % WORD_BITS != 0 {
                    assert_eq!(out[words_for(dim) - 1] >> (dim % WORD_BITS), 0, "padding");
                }
            }
        }
    }

    #[test]
    fn accumulator_matches_per_bit_counts_across_flushes() {
        for dim in DIMS {
            let mut acc = BitSliceAccumulator::new(dim);
            let mut expected = vec![0i32; dim];
            let signature = random_words(999, dim);
            // 300 absorbs cross one capacity flush (capacity 255).
            for seed in 0..300u64 {
                let words = random_words(seed, dim);
                if seed % 2 == 0 {
                    acc.absorb(&words);
                } else {
                    acc.absorb_bound(&words, &signature);
                }
                for (i, e) in expected.iter_mut().enumerate() {
                    let negative = bit(&words, i) ^ (seed % 2 == 1 && bit(&signature, i));
                    *e += if negative { -1 } else { 1 };
                }
            }
            assert_eq!(acc.absorbed(), 300);
            let mut counts = vec![0i32; dim];
            acc.counts_into(&mut counts);
            assert_eq!(counts, expected, "dim {dim}");
            acc.reset();
            acc.counts_into(&mut counts);
            assert!(counts.iter().all(|&c| c == 0), "reset clears every counter");
        }
    }
}
