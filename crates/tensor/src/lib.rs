//! Dense tensor substrate for the ALISA reproduction.
//!
//! The paper's algorithm (Sparse Window Attention, Algorithm 1) and its
//! KV compression (Eq. 7) operate on dense `f32` matrices: queries, keys,
//! values, attention weights. This crate provides the kernels those code
//! paths need, implemented in portable, deterministic Rust so that every
//! experiment in the repository reproduces bit-for-bit:
//!
//! * [`Matrix`] — a row-major 2-D `f32` tensor with shape checking,
//!   row gather and transpose,
//! * [`ops`] — matmul / matvec / dot / column sums,
//! * [`nn`] — numerically-stable softmax, layer-norm, ReLU, cross-entropy,
//! * [`quant`] — channel-wise INT8/INT4 quantization of KV tensors,
//! * [`stats`] — Spearman correlation, attention-weight sparsity, Zipf fits,
//! * [`topk`] — arg-max / top-k index selection used by SWA and H2O.
//!
//! # Example
//!
//! ```
//! use alisa_tensor::{Matrix, nn::softmax_rows};
//!
//! let logits = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
//! let probs = softmax_rows(&logits);
//! let total: f32 = probs.row(0).iter().sum();
//! assert!((total - 1.0).abs() < 1e-6);
//! ```

pub mod nn;
pub mod ops;
pub mod quant;
pub mod stats;
pub mod tensor;
pub mod topk;

pub use tensor::Matrix;

/// Error type for shape mismatches and invalid arguments in tensor kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes; payload is a human-readable
    /// description of the two shapes involved.
    ShapeMismatch(String),
    /// An index (row, column, or gather index) was out of range.
    IndexOutOfRange { index: usize, len: usize },
    /// A numeric argument was outside its valid domain (e.g. `bits == 0`).
    InvalidArgument(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            TensorError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
