//! Hyperdimensional computing (HDC) substrate for the SMORE reproduction.
//!
//! This crate implements the brain-inspired computing primitives of the
//! paper's §3.1 and the multi-sensor time series encoder of §3.3:
//!
//! - [`Hypervector`] — dense `f32` hypervectors with the four canonical
//!   operations: *bundling* (element-wise addition), *binding* (element-wise
//!   multiplication), *permutation* (circular shift) and *similarity*
//!   (cosine).
//! - [`memory`] — item, level and signature memories: the seeded random
//!   codebooks that map raw symbols, quantised signal values and sensor
//!   identities into hyperdimensional space.
//! - [`bits`] — packed sign-bit kernels (word rotation, bit-sliced
//!   counting) behind the encoder's exact integer path, shared with the
//!   `smore_packed` serving backend.
//! - [`encoder`] — the multi-sensor time series encoder (paper Fig. 3):
//!   per-sensor vector quantisation, temporal n-gram binding under
//!   permutation, sensor-signature binding and spatial bundling.
//! - [`model`] — the adaptive HDC classifier of §3.4 (Eq. 1–2), the building
//!   block for both the domain-specific models of SMORE and the
//!   BaselineHD/DOMINO baselines.
//!
//! # Example
//!
//! ```
//! use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder};
//! use smore_tensor::Matrix;
//!
//! # fn main() -> Result<(), smore_hdc::HdcError> {
//! // Two sensors, eight time steps per window.
//! let cfg = EncoderConfig { dim: 512, sensors: 2, ..EncoderConfig::default() };
//! let encoder = MultiSensorEncoder::new(cfg)?;
//! let window = Matrix::from_fn(8, 2, |t, s| (t as f32 * 0.3 + s as f32).sin());
//! let hv = encoder.encode_window(&window)?;
//! assert_eq!(hv.dim(), 512);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod encoder;
mod error;
mod hypervector;
pub mod memory;
pub mod model;
pub mod ngram;

pub use error::HdcError;
pub use hypervector::{bundle_all, Hypervector};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, HdcError>;
