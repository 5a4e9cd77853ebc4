//! The multi-sensor time series encoder `Ω` (paper §3.3, Fig. 3).
//!
//! A window of raw samples — `T` time steps by `m` sensors — is mapped into
//! hyperdimensional space in four stages:
//!
//! 1. **Vector quantisation**: each sensor value is mapped to a hypervector
//!    with a spectrum of similarity between random `H_min`/`H_max` anchors
//!    ([`crate::memory::LevelMemory`]).
//! 2. **Temporal sorting**: the hypervector for time step `t` inside an
//!    n-gram is permuted `ρ^{n-1-k}` times so order is preserved.
//! 3. **Binding** folds each n-gram into one hypervector; the n-grams of a
//!    window are bundled into the sensor hypervector `H_i`.
//! 4. **Spatial integration**: each sensor hypervector is bound with its
//!    random signature `G_i` and bundled: `Σ_i G_i ∗ H_i`.
//!
//! Encoding is deterministic given the [`EncoderConfig::seed`].
//!
//! # The exact integer path
//!
//! Every step codeword, signature and n-gram product is bipolar (`±1`), so
//! the window accumulator `Σ_i Σ_t G_i ∗ Π_k ρ^{n-1-k} H_{t+k}` is a sum of
//! `±1` values: an exact integer, which the plain `f32` loop also computes
//! exactly. [`MultiSensorEncoder::encode_window`] and
//! [`MultiSensorEncoder::encode_batch`] therefore compute it on sign bits,
//! 64 dimensions per word, with the kernels of [`crate::bits`]:
//!
//! - An `Interpolate` step codeword is `H_min` with the dimensions of the
//!   first `k` threshold ranks switched to `H_max`, where `k` is the number
//!   of thresholds `≤ α`. The encoder keeps a packed checkpoint codeword
//!   every 64 ranks and applies at most 63 bit flips on top (33 KiB per
//!   sensor at `d = 4096`). A `LevelFlip` codeword is a packed ladder
//!   lookup.
//! - n-grams bind by XOR under word rotation.
//! - Bundling and the signature bind go through one
//!   [`BitSliceAccumulator`], XOR-fusing the signature into each absorbed
//!   product.
//!
//! The integer counts become `f32` and pass through the same
//! [`vecops::normalize`] as before, so the output equals the `f32` loop bit
//! for bit. That loop is kept, doc-hidden, as
//! [`MultiSensorEncoder::encode_window_reference`], the oracle of the
//! bit-exactness tests. The packed codebooks are derived from the dense
//! ones and rebuilt by [`MultiSensorEncoder::regenerate_dims`].

use smore_tensor::{parallel, vecops, Matrix};

use crate::bits::{rotate_words_into, sign_words, words_for, BitSliceAccumulator, WORD_BITS};
use crate::memory::{LevelMemory, Quantization, SignatureMemory};
use crate::ngram::mul_shifted;
use crate::{HdcError, Hypervector, Result};

/// How raw values are normalised into the quantiser's `[0, 1]` range.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ValueRange {
    /// Paper-literal: each sensor is normalised by the minimum and maximum
    /// value it takes *within the current window* (Fig. 3 assigns `H_max`
    /// and `H_min` to the extreme samples of the window). Makes windows
    /// amplitude-invariant, which also removes per-subject gain shifts.
    #[default]
    PerWindow,
    /// Fixed per-sensor `(low, high)` ranges fitted on training data; values
    /// outside the range are clamped. Used by the encoding-mode ablation.
    Global(Vec<(f32, f32)>),
}

/// Configuration for [`MultiSensorEncoder`].
///
/// # Example
///
/// ```
/// use smore_hdc::encoder::EncoderConfig;
///
/// let cfg = EncoderConfig { dim: 4096, sensors: 6, ..EncoderConfig::default() };
/// assert_eq!(cfg.ngram, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderConfig {
    /// Hyperdimensional space dimensionality `d` (paper default: 8k).
    pub dim: usize,
    /// Number of sensors `m` (columns of each window).
    pub sensors: usize,
    /// n-gram size for temporal binding (the paper illustrates trigrams).
    pub ngram: usize,
    /// Number of discrete levels for [`Quantization::LevelFlip`].
    pub levels: usize,
    /// Quantisation strategy.
    pub quantization: Quantization,
    /// Value normalisation strategy.
    pub range: ValueRange,
    /// Whether encoded hypervectors are normalised to unit norm.
    pub normalize: bool,
    /// Master seed for all codebooks.
    pub seed: u64,
}

impl Default for EncoderConfig {
    /// Paper defaults: `d = 8192`, trigram, per-window quantisation.
    fn default() -> Self {
        Self {
            dim: 8192,
            sensors: 1,
            ngram: 3,
            levels: 64,
            quantization: Quantization::default(),
            range: ValueRange::default(),
            normalize: true,
            seed: 0x5304E,
        }
    }
}

/// The encoder `Ω : I → X` mapping raw multi-sensor windows to hypervectors.
///
/// # Example
///
/// ```
/// use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder};
/// use smore_tensor::Matrix;
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// let encoder = MultiSensorEncoder::new(EncoderConfig {
///     dim: 1024,
///     sensors: 3,
///     ..EncoderConfig::default()
/// })?;
/// let window = Matrix::from_fn(16, 3, |t, s| ((t + s) as f32 * 0.4).sin());
/// let hv = encoder.encode_window(&window)?;
/// assert_eq!(hv.dim(), 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiSensorEncoder {
    config: EncoderConfig,
    level_memories: Vec<LevelMemory>,
    signatures: SignatureMemory,
    /// Sign-bit images of the codebooks above, one per sensor, for the
    /// exact integer encode path.
    sensor_bits: Vec<SensorBits>,
}

/// The packed codebook of one sensor (see the module docs).
#[derive(Debug, Clone)]
struct SensorBits {
    codes: StepCodes,
    /// The packed signature `G_i`.
    signature: Vec<u64>,
}

/// Packed step codewords, `words_for(dim)` words each.
#[derive(Debug, Clone)]
enum StepCodes {
    Interpolate {
        /// The thresholds in ascending (rank) order.
        sorted_thresholds: Vec<f32>,
        /// The dimension switched to `H_max` at each rank.
        rank_dims: Vec<u32>,
        /// `H_min ⊕ H_max`: the bits a switch actually flips.
        anchor_diff: Vec<u64>,
        /// The codeword after every 64th rank.
        checkpoints: Vec<u64>,
    },
    LevelFlip {
        ladder: Vec<u64>,
    },
}

impl SensorBits {
    fn new(memory: &LevelMemory, signature: &Hypervector) -> Self {
        let signature = sign_words(signature.as_slice());
        if memory.mode() == Quantization::LevelFlip {
            let ladder = memory.ladder().iter().flat_map(|l| sign_words(l.as_slice())).collect();
            return Self { codes: StepCodes::LevelFlip { ladder }, signature };
        }
        let dim = memory.dim();
        let thresholds = memory.thresholds();
        let mut order: Vec<usize> = (0..dim).collect();
        order.sort_by(|&a, &b| thresholds[a].total_cmp(&thresholds[b]));
        let mut code = sign_words(memory.h_min().as_slice());
        let anchor_diff: Vec<u64> = code
            .iter()
            .zip(sign_words(memory.h_max().as_slice()))
            .map(|(lo, hi)| lo ^ hi)
            .collect();
        let mut checkpoints = Vec::with_capacity((dim / WORD_BITS + 1) * code.len());
        for (rank, &d) in order.iter().enumerate() {
            if rank % WORD_BITS == 0 {
                checkpoints.extend_from_slice(&code);
            }
            code[d / WORD_BITS] ^= anchor_diff[d / WORD_BITS] & (1u64 << (d % WORD_BITS));
        }
        if dim.is_multiple_of(WORD_BITS) {
            checkpoints.extend_from_slice(&code);
        }
        let codes = StepCodes::Interpolate {
            sorted_thresholds: order.iter().map(|&d| thresholds[d]).collect(),
            rank_dims: order.iter().map(|&d| d as u32).collect(),
            anchor_diff,
            checkpoints,
        };
        Self { codes, signature }
    }

    /// Writes the packed step codeword for the normalised value `alpha`
    /// (clamped; non-finite maps to `0.5`, as in
    /// [`LevelMemory::encode_into`]).
    fn code_into(&self, alpha: f32, out: &mut [u64]) {
        let nw = out.len();
        let alpha = if alpha.is_finite() { alpha.clamp(0.0, 1.0) } else { 0.5 };
        match &self.codes {
            StepCodes::LevelFlip { ladder } => {
                let levels = ladder.len() / nw;
                let idx = ((alpha * (levels - 1) as f32).round() as usize).min(levels - 1);
                out.copy_from_slice(&ladder[idx * nw..(idx + 1) * nw]);
            }
            StepCodes::Interpolate { sorted_thresholds, rank_dims, anchor_diff, checkpoints } => {
                // Dimension d reads H_max exactly when alpha ≥ u_d: the
                // first k ranks.
                let k = sorted_thresholds.partition_point(|&u| u <= alpha);
                let c = k / WORD_BITS;
                out.copy_from_slice(&checkpoints[c * nw..(c + 1) * nw]);
                for &d in &rank_dims[c * WORD_BITS..k] {
                    let (w, bit) = (d as usize / WORD_BITS, d as usize % WORD_BITS);
                    out[w] ^= anchor_diff[w] & (1u64 << bit);
                }
            }
        }
    }
}

/// Per-call buffers of the exact integer encode path.
struct EncodeScratch {
    /// The packed codewords of the last `n` steps, `words_for(dim)` each.
    ring: Vec<u64>,
    /// The n-gram product being folded.
    prod: Vec<u64>,
    /// Rotation buffer.
    rot: Vec<u64>,
    acc: BitSliceAccumulator,
    counts: Vec<i32>,
}

impl EncodeScratch {
    fn new(dim: usize, ngram: usize) -> Self {
        let nw = words_for(dim);
        Self {
            ring: vec![0; ngram * nw],
            prod: vec![0; nw],
            rot: vec![0; nw],
            acc: BitSliceAccumulator::new(dim),
            counts: vec![0; dim],
        }
    }
}

impl MultiSensorEncoder {
    /// Builds the encoder codebooks from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when `dim`, `sensors` or `ngram`
    /// is zero, when `levels < 2`, or when a [`ValueRange::Global`] range
    /// does not provide exactly one `(low, high)` pair per sensor or has
    /// `low >= high`.
    pub fn new(config: EncoderConfig) -> Result<Self> {
        if config.dim == 0 {
            return Err(HdcError::InvalidConfig { what: "encoder dim must be positive".into() });
        }
        if config.sensors == 0 {
            return Err(HdcError::InvalidConfig {
                what: "encoder needs at least one sensor".into(),
            });
        }
        if config.ngram == 0 {
            return Err(HdcError::InvalidConfig { what: "n-gram size must be positive".into() });
        }
        if let ValueRange::Global(ranges) = &config.range {
            if ranges.len() != config.sensors {
                return Err(HdcError::InvalidConfig {
                    what: format!(
                        "global range needs one (low, high) pair per sensor: got {} pairs for {} sensors",
                        ranges.len(),
                        config.sensors
                    ),
                });
            }
            let not_increasing =
                |lo: &f32, hi: &f32| !matches!(lo.partial_cmp(hi), Some(std::cmp::Ordering::Less));
            if let Some((lo, hi)) = ranges.iter().find(|(lo, hi)| not_increasing(lo, hi)) {
                return Err(HdcError::InvalidConfig {
                    what: format!("global range requires low < high, got ({lo}, {hi})"),
                });
            }
        }
        let level_memories = (0..config.sensors)
            .map(|s| {
                LevelMemory::new(
                    config.dim,
                    config.levels,
                    config.quantization,
                    config.seed.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_mul(s as u64 + 1),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let signatures =
            SignatureMemory::new(config.sensors, config.dim, config.seed ^ 0xC0FF_EE00)?;
        let sensor_bits = Self::pack_codebooks(&level_memories, &signatures)?;
        Ok(Self { config, level_memories, signatures, sensor_bits })
    }

    fn pack_codebooks(
        level_memories: &[LevelMemory],
        signatures: &SignatureMemory,
    ) -> Result<Vec<SensorBits>> {
        level_memories
            .iter()
            .enumerate()
            .map(|(s, memory)| Ok(SensorBits::new(memory, signatures.signature(s)?)))
            .collect()
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Hyperdimensional dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Number of sensors `m`.
    pub fn sensors(&self) -> usize {
        self.config.sensors
    }

    /// The quantisation codebook of sensor `s` — exposed so alternative
    /// backends (e.g. the bit-packed encoder of `smore_packed`) can derive
    /// their codebooks from the exact same random anchors instead of
    /// replicating the per-sensor seed derivation.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::LabelOutOfRange`] for an unknown sensor.
    pub fn level_memory(&self, sensor: usize) -> Result<&LevelMemory> {
        self.level_memories.get(sensor).ok_or(HdcError::LabelOutOfRange {
            label: sensor,
            num_classes: self.level_memories.len(),
        })
    }

    /// The per-sensor signature memory (see [`level_memory`](Self::level_memory)).
    pub fn signature_memory(&self) -> &SignatureMemory {
        &self.signatures
    }

    /// Encodes one window (`T` rows of time steps, `m` columns of sensors).
    ///
    /// # Errors
    ///
    /// - [`HdcError::DimensionMismatch`] when the window does not have one
    ///   column per sensor.
    /// - [`HdcError::InvalidConfig`] when the window has fewer time steps
    ///   than the n-gram size.
    pub fn encode_window(&self, window: &Matrix) -> Result<Hypervector> {
        let mut scratch = EncodeScratch::new(self.config.dim, self.config.ngram);
        let mut out = vec![0.0f32; self.config.dim];
        self.encode_window_into(window, &mut scratch, &mut out)?;
        Ok(Hypervector::from_vec(out))
    }

    /// The plain `f32` encode loop [`encode_window`](Self::encode_window)
    /// replaces, kept as the oracle of the bit-exactness tests.
    ///
    /// # Errors
    ///
    /// Same conditions as [`encode_window`](Self::encode_window).
    #[doc(hidden)]
    pub fn encode_window_reference(&self, window: &Matrix) -> Result<Hypervector> {
        self.check_window(window)?;
        let n = self.config.ngram;
        let d = self.config.dim;
        let mut acc = vec![0.0f32; d];
        // Ring buffer of the last n quantised step hypervectors.
        let mut ring = vec![vec![0.0f32; d]; n];
        let mut prod = vec![0.0f32; d];

        for (s, level_memory) in self.level_memories.iter().enumerate() {
            let (lo, hi) = self.sensor_range(window, s);
            let span = hi - lo;
            // Per-sensor accumulation happens in a local buffer, then gets
            // signature-bound into the window accumulator.
            let mut local = vec![0.0f32; d];
            for (t, y) in window.col(s).enumerate() {
                let alpha = if span > 1e-12 { (y - lo) / span } else { 0.5 };
                let slot = t % n;
                level_memory.encode_into(alpha, &mut ring[slot]);
                if t + 1 >= n {
                    // n-gram ending at step t: element at step t-j gets shift j.
                    prod.copy_from_slice(&ring[t % n]);
                    for j in 1..n {
                        mul_shifted(&mut prod, &ring[(t - j) % n], j % d);
                    }
                    for (a, &p) in local.iter_mut().zip(&prod) {
                        *a += p;
                    }
                }
            }
            // Spatial integration: acc += G_s ∗ H_s.
            let signature = self.signatures.signature(s)?;
            for ((a, &l), &g) in acc.iter_mut().zip(&local).zip(signature.as_slice()) {
                *a += l * g;
            }
        }

        let mut hv = Hypervector::from_vec(acc);
        if self.config.normalize {
            hv.normalize();
        }
        Ok(hv)
    }

    /// Encodes a batch of windows into a `(batch, dim)` matrix, in parallel.
    /// Rows are written in place; each worker reuses one scratch across its
    /// chunk of windows.
    ///
    /// # Errors
    ///
    /// Propagates the first [`encode_window`](Self::encode_window) error
    /// (all windows must share the sensor count and satisfy the n-gram
    /// length requirement).
    pub fn encode_batch(&self, windows: &[Matrix], threads: usize) -> Result<Matrix> {
        let (d, n) = (self.config.dim, self.config.ngram);
        let mut out = Matrix::zeros(windows.len(), d);
        let mut rows: Vec<(&mut [f32], Result<()>)> =
            out.as_mut_slice().chunks_mut(d).map(|row| (row, Ok(()))).collect();
        parallel::par_chunks_indexed(&mut rows, threads, |start, chunk| {
            let mut scratch = EncodeScratch::new(d, n);
            for (k, (row, status)) in chunk.iter_mut().enumerate() {
                *status = self.encode_window_into(&windows[start + k], &mut scratch, row);
            }
        });
        rows.into_iter().try_for_each(|(_, status)| status)?;
        Ok(out)
    }

    /// Encodes one window into `out` (`dim` long) through the exact integer
    /// path: counts, converted to `f32`, normalised if configured.
    fn encode_window_into(
        &self,
        window: &Matrix,
        scratch: &mut EncodeScratch,
        out: &mut [f32],
    ) -> Result<()> {
        self.encode_counts_into(window, scratch)?;
        for (o, &c) in out.iter_mut().zip(&scratch.counts) {
            *o = c as f32;
        }
        if self.config.normalize {
            vecops::normalize(out);
        }
        Ok(())
    }

    /// The window accumulator as integer counts in `scratch.counts`: packed
    /// step codewords, XOR-rotate n-gram binding, and bit-sliced bundling
    /// with the sensor signature fused into each absorb.
    fn encode_counts_into(&self, window: &Matrix, scratch: &mut EncodeScratch) -> Result<()> {
        self.check_window(window)?;
        let (d, n) = (self.config.dim, self.config.ngram);
        let nw = words_for(d);
        let EncodeScratch { ring, prod, rot, acc, counts } = scratch;
        acc.reset();
        for (s, bits) in self.sensor_bits.iter().enumerate() {
            let (lo, hi) = self.sensor_range(window, s);
            let span = hi - lo;
            for (t, y) in window.col(s).enumerate() {
                let alpha = if span > 1e-12 { (y - lo) / span } else { 0.5 };
                let slot = (t % n) * nw;
                bits.code_into(alpha, &mut ring[slot..slot + nw]);
                if t + 1 < n {
                    continue;
                }
                // n-gram ending at step t: element at step t-j gets rotation ρ^j.
                prod.copy_from_slice(&ring[slot..slot + nw]);
                for j in 1..n {
                    let older = ((t - j) % n) * nw;
                    rotate_words_into(&ring[older..older + nw], d, j, rot);
                    prod.iter_mut().zip(rot.iter()).for_each(|(p, &r)| *p ^= r);
                }
                acc.absorb_bound(prod, &bits.signature);
            }
        }
        acc.counts_into(counts);
        Ok(())
    }

    /// Regenerates the listed dimensions of every codebook with fresh random
    /// values — the DOMINO primitive for discarding domain-variant
    /// dimensions.
    pub fn regenerate_dims(&mut self, dims: &[usize], seed: u64) {
        for (s, lm) in self.level_memories.iter_mut().enumerate() {
            lm.regenerate_dims(dims, seed.wrapping_add(s as u64));
        }
        self.signatures.regenerate_dims(dims, seed ^ 0xABCD);
        // Anchors, ladder and signatures changed: repack every codeword,
        // checkpoint and signature bit derived from them.
        self.sensor_bits = Self::pack_codebooks(&self.level_memories, &self.signatures)
            .expect("one signature per level memory by construction");
    }

    /// Validates the window shape shared by every encode entry point.
    fn check_window(&self, window: &Matrix) -> Result<()> {
        let (t_total, cols) = window.shape();
        if cols != self.config.sensors {
            return Err(HdcError::DimensionMismatch {
                expected: self.config.sensors,
                actual: cols,
            });
        }
        let n = self.config.ngram;
        if t_total < n {
            return Err(HdcError::InvalidConfig {
                what: format!("window of {t_total} steps is shorter than the n-gram size {n}"),
            });
        }
        Ok(())
    }

    fn sensor_range(&self, window: &Matrix, sensor: usize) -> (f32, f32) {
        match &self.config.range {
            ValueRange::PerWindow => {
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for v in window.col(sensor) {
                    if v.is_finite() {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
                if !lo.is_finite() || !hi.is_finite() {
                    (0.0, 0.0)
                } else {
                    (lo, hi)
                }
            }
            ValueRange::Global(ranges) => ranges[sensor],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smore_tensor::vecops;

    fn test_config(dim: usize, sensors: usize) -> EncoderConfig {
        EncoderConfig { dim, sensors, ..EncoderConfig::default() }
    }

    fn sine_window(t_total: usize, sensors: usize, phase: f32) -> Matrix {
        Matrix::from_fn(t_total, sensors, |t, s| (t as f32 * 0.37 + s as f32 * 1.3 + phase).sin())
    }

    #[test]
    fn encoder_validates_config() {
        assert!(MultiSensorEncoder::new(test_config(0, 1)).is_err());
        assert!(MultiSensorEncoder::new(test_config(64, 0)).is_err());
        let mut cfg = test_config(64, 2);
        cfg.ngram = 0;
        assert!(MultiSensorEncoder::new(cfg).is_err());
        let mut cfg = test_config(64, 2);
        cfg.range = ValueRange::Global(vec![(0.0, 1.0)]);
        assert!(MultiSensorEncoder::new(cfg).is_err(), "wrong number of range pairs");
        let mut cfg = test_config(64, 1);
        cfg.range = ValueRange::Global(vec![(1.0, 1.0)]);
        assert!(MultiSensorEncoder::new(cfg).is_err(), "low must be < high");
    }

    #[test]
    fn encode_window_shape_and_norm() {
        let enc = MultiSensorEncoder::new(test_config(512, 2)).unwrap();
        let hv = enc.encode_window(&sine_window(20, 2, 0.0)).unwrap();
        assert_eq!(hv.dim(), 512);
        assert!((hv.norm() - 1.0).abs() < 1e-5, "default config normalises");
    }

    #[test]
    fn encode_window_rejects_bad_inputs() {
        let enc = MultiSensorEncoder::new(test_config(128, 2)).unwrap();
        // Wrong sensor count.
        assert!(enc.encode_window(&sine_window(10, 3, 0.0)).is_err());
        // Too short for the trigram.
        assert!(enc.encode_window(&sine_window(2, 2, 0.0)).is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = MultiSensorEncoder::new(test_config(256, 2)).unwrap();
        let b = MultiSensorEncoder::new(test_config(256, 2)).unwrap();
        let w = sine_window(12, 2, 0.5);
        assert_eq!(a.encode_window(&w).unwrap(), b.encode_window(&w).unwrap());
    }

    #[test]
    fn different_seeds_give_different_codes() {
        let a = MultiSensorEncoder::new(test_config(256, 1)).unwrap();
        let mut cfg = test_config(256, 1);
        cfg.seed = 999;
        let b = MultiSensorEncoder::new(cfg).unwrap();
        let w = sine_window(12, 1, 0.0);
        let ha = a.encode_window(&w).unwrap();
        let hb = b.encode_window(&w).unwrap();
        assert!(ha.cosine(&hb).unwrap() < 0.9);
    }

    #[test]
    fn similar_windows_are_similar_distinct_windows_are_not() {
        let enc = MultiSensorEncoder::new(test_config(4096, 2)).unwrap();
        let w = sine_window(30, 2, 0.0);
        let w_close = sine_window(30, 2, 0.02);
        let w_far = Matrix::from_fn(30, 2, |t, s| {
            // Square-ish wave with a very different temporal profile.
            if (t / 3 + s) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let h = enc.encode_window(&w).unwrap();
        let h_close = enc.encode_window(&w_close).unwrap();
        let h_far = enc.encode_window(&w_far).unwrap();
        let sim_close = h.cosine(&h_close).unwrap();
        let sim_far = h.cosine(&h_far).unwrap();
        assert!(
            sim_close > sim_far + 0.1,
            "nearby windows should encode closer: close={sim_close}, far={sim_far}"
        );
    }

    #[test]
    fn sensor_permutation_changes_code() {
        // Swapping the two sensor columns must give a different code because
        // of the per-sensor signatures. Bundling leaves a common-mode floor
        // (~0.7 between arbitrary windows), so the check is a drop below
        // identity rather than orthogonality.
        let enc = MultiSensorEncoder::new(test_config(4096, 2)).unwrap();
        let w = Matrix::from_fn(20, 2, |t, s| {
            if s == 0 {
                (t as f32 * 0.37).sin()
            } else {
                (t % 5) as f32 / 4.0 * 2.0 - 1.0
            }
        });
        let swapped = Matrix::from_fn(20, 2, |t, s| w.get(t, 1 - s));
        let h = enc.encode_window(&w).unwrap();
        let h_swapped = enc.encode_window(&swapped).unwrap();
        assert!(h.cosine(&h_swapped).unwrap() < 0.9);
    }

    #[test]
    fn constant_window_encodes_finite() {
        let enc = MultiSensorEncoder::new(test_config(256, 1)).unwrap();
        let w = Matrix::filled(10, 1, 3.5);
        let hv = enc.encode_window(&w).unwrap();
        assert!(hv.is_finite());
        assert!(hv.norm() > 0.0, "constant window still produces a code");
    }

    #[test]
    fn nan_samples_do_not_poison_encoding() {
        let enc = MultiSensorEncoder::new(test_config(256, 1)).unwrap();
        let mut w = sine_window(10, 1, 0.0);
        w.set(4, 0, f32::NAN);
        let hv = enc.encode_window(&w).unwrap();
        assert!(hv.is_finite(), "NaN input must map to a finite code");
    }

    #[test]
    fn global_range_mode_uses_fixed_anchors() {
        let mut cfg = test_config(1024, 1);
        cfg.range = ValueRange::Global(vec![(-1.0, 1.0)]);
        let enc = MultiSensorEncoder::new(cfg).unwrap();
        // Same shape at different amplitudes should now produce different
        // codes (amplitude is preserved by a global range).
        let small = Matrix::from_fn(12, 1, |t, _| 0.1 * (t as f32 * 0.5).sin());
        let large = Matrix::from_fn(12, 1, |t, _| 0.9 * (t as f32 * 0.5).sin());
        let hs = enc.encode_window(&small).unwrap();
        let hl = enc.encode_window(&large).unwrap();
        assert!(hs.cosine(&hl).unwrap() < 0.995);

        // Per-window mode erases pure amplitude differences entirely.
        let enc_pw = MultiSensorEncoder::new(test_config(1024, 1)).unwrap();
        let hs = enc_pw.encode_window(&small).unwrap();
        let hl = enc_pw.encode_window(&large).unwrap();
        assert!((hs.cosine(&hl).unwrap() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn encode_batch_matches_single_and_parallel_agree() {
        let enc = MultiSensorEncoder::new(test_config(256, 2)).unwrap();
        let windows: Vec<Matrix> = (0..9).map(|i| sine_window(15, 2, i as f32 * 0.3)).collect();
        let batch1 = enc.encode_batch(&windows, 1).unwrap();
        let batch4 = enc.encode_batch(&windows, 4).unwrap();
        assert_eq!(batch1, batch4);
        for (i, w) in windows.iter().enumerate() {
            let single = enc.encode_window(w).unwrap();
            assert_eq!(batch1.row(i), single.as_slice());
        }
        let empty = enc.encode_batch(&[], 4).unwrap();
        assert_eq!(empty.shape(), (0, 256));
    }

    #[test]
    fn regenerate_dims_changes_codes_only_partially() {
        let mut enc = MultiSensorEncoder::new(test_config(2048, 1)).unwrap();
        let w = sine_window(12, 1, 0.0);
        let before = enc.encode_window(&w).unwrap();
        enc.regenerate_dims(&(0..200).collect::<Vec<_>>(), 77);
        let after = enc.encode_window(&w).unwrap();
        let sim = vecops::cosine(before.as_slice(), after.as_slice());
        assert!(sim > 0.5, "regenerating 10% of dims should keep codes mostly similar, got {sim}");
        assert_ne!(before, after);
    }

    #[test]
    fn ngram_size_is_respected() {
        for n in [1usize, 2, 4, 5] {
            let mut cfg = test_config(256, 1);
            cfg.ngram = n;
            let enc = MultiSensorEncoder::new(cfg).unwrap();
            let hv = enc.encode_window(&sine_window(10, 1, 0.0)).unwrap();
            assert!(hv.is_finite());
            assert!(hv.norm() > 0.0, "n={n}");
        }
    }
}
