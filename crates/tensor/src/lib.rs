//! Dense tensor substrate for the ALISA reproduction.
//!
//! The paper's algorithm (Sparse Window Attention, Algorithm 1) and its
//! KV compression (Eq. 7) run on the functional path one token at a
//! time: `TinyTransformer::decode_step` in `alisa-model` projects one
//! row, scores it against the kept cache rows and normalizes. This crate
//! holds what that path, the figure binaries and the byte pricing call,
//! implemented in portable, deterministic Rust so that every experiment
//! reproduces bit-for-bit:
//!
//! * [`Matrix`] — a row-major 2-D `f32` tensor for weights, the per-layer
//!   K/V cache and attention maps,
//! * [`ops`] — the row-vector × matrix product over input-major weights
//!   and the dot product,
//! * [`nn`] — numerically-stable softmax, layer norm, ReLU, cross-entropy,
//!   each on one row,
//! * [`quant`] — per-row fake quantization of KV rows (Eq. 7) and the
//!   per-region KV byte pricing of [`quant::PrecisionPolicy`],
//! * [`stats`] — Spearman correlation, attention-weight sparsity, Zipf fits,
//! * [`topk`] — arg-max and the candidate-restricted top-k that SWA and
//!   H2O select with.
//!
//! # Example
//!
//! One attention head's weights over three cached keys. [`ops::vecmat`]
//! takes its matrix input-major (one row per element of the vector it
//! multiplies), so the key rows are transposed first:
//!
//! ```
//! use alisa_tensor::{nn::softmax, ops::vecmat, Matrix};
//!
//! let keys = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
//! let logits = vecmat(&[1.0, 2.0], &keys.transpose()).unwrap();
//! assert_eq!(logits, vec![1.0, 2.0, 3.0]);
//! let weights = softmax(&logits);
//! let total: f32 = weights.iter().sum();
//! assert!((total - 1.0).abs() < 1e-6);
//! assert!(weights[0] < weights[1] && weights[1] < weights[2]);
//! ```

pub mod nn;
pub mod ops;
pub mod quant;
pub mod stats;
pub mod tensor;
pub mod topk;

pub use tensor::Matrix;

/// Error type for shape mismatches in tensor kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes; payload is a human-readable
    /// description of the two shapes involved.
    ShapeMismatch(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
