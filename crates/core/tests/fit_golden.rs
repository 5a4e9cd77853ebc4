//! Golden checksums of the artifacts a fixed `Smore::fit` produces.
//!
//! The dense encoder and the classifier's training loop are optimised
//! kernels that must reproduce the plain `f32`/`f64` arithmetic bit for
//! bit. Any drift in an encoded hypervector, a cosine score or a class
//! update shows up as a different class matrix, and therefore as different
//! artifact bytes. The checksums below were recorded from the straight
//! per-element loops the kernels replaced.

use smore::{Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_hdc::memory::Quantization;

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

/// Fits a `d = 1024` model on a fixed three-domain synthetic set and
/// returns the checksums of its quantized and dense artifact bytes.
fn fit_checksums(quantization: Quantization) -> (u64, u64) {
    let ds = generate(&GeneratorConfig {
        name: "fit-golden".into(),
        num_classes: 4,
        channels: 3,
        window_len: 24,
        sample_rate_hz: 20.0,
        domains: vec![
            DomainSpec { subjects: vec![0], windows: 30 },
            DomainSpec { subjects: vec![1], windows: 30 },
            DomainSpec { subjects: vec![2], windows: 30 },
        ],
        shift_severity: 0.8,
        seed: 1024,
    })
    .unwrap();
    let config = SmoreConfig::builder()
        .dim(1024)
        .channels(ds.meta().channels)
        .num_classes(ds.meta().num_classes)
        .quantization(quantization)
        .epochs(6)
        .threads(2)
        .build()
        .unwrap();
    let mut model = Smore::new(config).unwrap();
    let all: Vec<usize> = (0..ds.len()).collect();
    model.fit_indices(&ds, &all).unwrap();
    let quantized = model.quantize().unwrap().to_artifact_bytes();
    let dense = model.to_artifact_bytes().unwrap();
    (fnv1a(&quantized), fnv1a(&dense))
}

#[test]
fn interpolate_fit_artifacts_match_golden_checksums() {
    let (quantized, dense) = fit_checksums(Quantization::Interpolate);
    assert_eq!(
        (quantized, dense),
        (0x0dee_26b6_1d1b_fab2, 0x5f24_5bb0_a35a_351c),
        "artifact checksums (quantized, dense) = ({quantized:#018x}, {dense:#018x})"
    );
}

#[test]
fn levelflip_fit_artifacts_match_golden_checksums() {
    let (quantized, dense) = fit_checksums(Quantization::LevelFlip);
    assert_eq!(
        (quantized, dense),
        (0x4fca_71b7_cdef_3d11, 0xcf8c_76b3_99c0_6cb5),
        "artifact checksums (quantized, dense) = ({quantized:#018x}, {dense:#018x})"
    );
}
