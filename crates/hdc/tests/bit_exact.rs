//! The exact integer encode path against the plain `f32` loop it replaced
//! (`encode_window_reference`): every output element must match bit for
//! bit, across quantisation and range modes, n-gram sizes, ragged and
//! word-aligned dimensions, and hostile inputs (out-of-range, NaN, ±∞,
//! constant columns, values exactly on a threshold).

use proptest::prelude::*;
use rand::Rng;
use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder, ValueRange};
use smore_hdc::memory::Quantization;
use smore_tensor::{init, Matrix};

const DIMS: [usize; 3] = [64, 1000, 4096];

fn assert_bits_equal(fast: &[f32], reference: &[f32], what: &str) -> TestCaseResult {
    prop_assert_eq!(fast.len(), reference.len());
    for (i, (a, b)) in fast.iter().zip(reference).enumerate() {
        prop_assert!(a.to_bits() == b.to_bits(), "{}: element {} is {} vs {}", what, i, a, b);
    }
    Ok(())
}

/// A window whose columns mix smooth signals, values outside `[-1, 1]`,
/// NaN/±∞ samples, constant columns and values exactly on an
/// `Interpolate` threshold `(r + 0.5) / dim` (the `Global` range is
/// `(0, 1)` for those).
fn hostile_window(seed: u64, steps: usize, sensors: usize, dim: usize) -> Matrix {
    let mut rng = init::rng(seed);
    let kinds: Vec<u32> = (0..sensors).map(|_| rng.gen_range(0u32..4)).collect();
    let constant: f32 = rng.gen_range(-2.0f32..2.0);
    Matrix::from_fn(steps, sensors, |t, s| {
        let v = match kinds[s] {
            0 => (t as f32 * 0.37 + s as f32 * 1.3 + constant).sin() * 1.5,
            1 => constant,
            2 => (rng.gen_range(0..dim) as f32 + 0.5) / dim as f32,
            _ => init::standard_normal(&mut rng) * 3.0,
        };
        match rng.gen_range(0u32..40) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => v,
        }
    })
}

fn encoder(
    dim: usize,
    sensors: usize,
    ngram: usize,
    level_flip: bool,
    global: bool,
    normalize: bool,
    seed: u64,
) -> MultiSensorEncoder {
    let range = if global {
        ValueRange::Global(
            (0..sensors).map(|s| if s == 0 { (0.0, 1.0) } else { (-1.0, 1.0) }).collect(),
        )
    } else {
        ValueRange::PerWindow
    };
    let quantization = if level_flip { Quantization::LevelFlip } else { Quantization::Interpolate };
    MultiSensorEncoder::new(EncoderConfig {
        dim,
        sensors,
        ngram,
        quantization,
        range,
        normalize,
        seed,
        ..EncoderConfig::default()
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_encode_equals_reference_bit_for_bit(
        seed in any::<u64>(),
        dim_index in 0usize..3,
        ngram in 1usize..6,
        sensors in 1usize..4,
        extra_steps in 0usize..12,
        level_flip in prop::bool::ANY,
        global in prop::bool::ANY,
        normalize in prop::bool::ANY,
    ) {
        let dim = DIMS[dim_index];
        let enc = encoder(dim, sensors, ngram, level_flip, global, normalize, seed);
        let windows: Vec<Matrix> = (0..3)
            .map(|i| hostile_window(seed ^ i, ngram + extra_steps, sensors, dim))
            .collect();
        let batch = enc.encode_batch(&windows, 2).unwrap();
        for (i, w) in windows.iter().enumerate() {
            let reference = enc.encode_window_reference(w).unwrap();
            let fast = enc.encode_window(w).unwrap();
            assert_bits_equal(fast.as_slice(), reference.as_slice(), "encode_window")?;
            assert_bits_equal(batch.row(i), reference.as_slice(), "encode_batch")?;
        }
    }

    #[test]
    fn regenerated_dims_repack_the_fast_path(
        seed in any::<u64>(),
        dim_index in 0usize..3,
        level_flip in prop::bool::ANY,
        global in prop::bool::ANY,
    ) {
        let dim = DIMS[dim_index];
        let mut enc = encoder(dim, 2, 3, level_flip, global, true, seed);
        let w = hostile_window(seed, 14, 2, dim);
        let before = enc.encode_window(&w).unwrap();
        let mut rng = init::rng(seed);
        let dims: Vec<usize> = (0..dim / 8).map(|_| rng.gen_range(0..dim)).collect();
        enc.regenerate_dims(&dims, seed.wrapping_add(1));
        let reference = enc.encode_window_reference(&w).unwrap();
        assert_bits_equal(enc.encode_window(&w).unwrap().as_slice(), reference.as_slice(), "after regeneration")?;
        prop_assert_ne!(before, reference);
    }
}

#[test]
fn batch_errors_match_the_first_bad_window() {
    let enc = encoder(256, 2, 3, false, false, true, 5);
    let good = hostile_window(1, 10, 2, 256);
    let wrong_width = hostile_window(2, 10, 3, 256);
    let too_short = hostile_window(3, 2, 2, 256);
    let expected = enc.encode_window(&wrong_width).unwrap_err();
    let got = enc.encode_batch(&[good.clone(), wrong_width, too_short], 2).unwrap_err();
    assert_eq!(got, expected);
    assert_eq!(enc.encode_batch(&[], 2).unwrap().shape(), (0, 256));
    assert!(enc.encode_batch(&[good], 4).is_ok());
}
