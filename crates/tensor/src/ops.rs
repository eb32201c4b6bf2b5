//! Linear-algebra kernels: matrix–vector product and dot product.
//!
//! These are the two products one decoding step of Algorithm 1 performs
//! per token. [`matvec`] applies the projections (`W·x` for Q, K, V, the
//! output, the FFN and the LM head). Attention logits `q·Kᵀ` are one
//! [`dot`] per head per kept key row, scaled by `1/√d`; the weighted
//! value sum `AW·V` is accumulated row by row at the call site in
//! `alisa-model`. No matrix–matrix product runs. The implementations
//! are plain loops — the
//! repository measures *placement decisions*, not kernel
//! micro-optimizations, and determinism matters more than speed at the
//! functional-path model scales.

use crate::{Matrix, Result, TensorError};

/// Matrix–vector product `a (m×k) · v (k) -> (m)`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != v.len()`.
pub fn matvec(a: &Matrix, v: &[f32]) -> Result<Vec<f32>> {
    if a.cols() != v.len() {
        return Err(TensorError::ShapeMismatch(format!(
            "matvec {}x{} . vec of len {}",
            a.rows(),
            a.cols(),
            v.len()
        )));
    }
    Ok((0..a.rows())
        .map(|i| a.row(i).iter().zip(v).map(|(x, y)| x * y).sum())
        .collect())
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let v = vec![5.0, 6.0];
        assert_eq!(matvec(&a, &v).unwrap(), vec![17.0, 39.0]);
        assert!(matvec(&a, &[1.0]).is_err());
    }

    #[test]
    fn dot_products() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }
}
