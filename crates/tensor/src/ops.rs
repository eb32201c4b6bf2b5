//! Linear-algebra kernels: row-vector × matrix product and dot product.
//!
//! These are the two products one decoding step of Algorithm 1 performs
//! per token. [`vecmat`] applies the projections (`x·W` for Q, K, V, the
//! output, the FFN and the LM head). Attention logits `q·Kᵀ` are one
//! [`dot`] per head per kept key row, scaled by `1/√d`; the weighted
//! value sum `AW·V` is accumulated row by row at the call site in
//! `alisa-model`. No matrix–matrix product runs.
//!
//! # Layout and summation order
//!
//! [`vecmat`] takes its matrix **input-major**: `w` is `in × out`, one
//! row per input element, so the weights one input feeds to neighbouring
//! outputs sit side by side. The kernel keeps a block of 16 outputs in a
//! `[f32; 16]` across the whole input loop and walks the block's 16-wide
//! slice of each row, so the compiler computes the block's lanes with
//! vector instructions at the default target.
//!
//! The blocking changes no bit. Every output is the sum of its products
//! `x[i]·w[i][j]` over the input index `i` in ascending order, starting
//! from `-0.0`, each product rounded before it is added — exactly the
//! value `Iterator::sum` gives over the same products — whatever the
//! block width or the output's place in the block.

use crate::{Matrix, Result, TensorError};

/// Outputs one block of [`vecmat`] accumulates together.
const LANES: usize = 16;

/// Row-vector × matrix product `x (in) · w (in×out) -> (out)`.
///
/// Output `j` is `Σᵢ x[i]·w[i][j]`, summed over ascending `i` from `-0.0`
/// (see the module docs for why the result has exactly those bits).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.len() != w.rows()`.
pub fn vecmat(x: &[f32], w: &Matrix) -> Result<Vec<f32>> {
    if x.len() != w.rows() {
        return Err(TensorError::ShapeMismatch(format!(
            "vecmat vec of len {} . {}x{}",
            x.len(),
            w.rows(),
            w.cols()
        )));
    }
    let cols = w.cols();
    let full = cols - cols % LANES;
    let mut y = Vec::with_capacity(cols);
    for j in (0..full).step_by(LANES) {
        let mut acc = [-0.0f32; LANES];
        for (&xi, row) in x.iter().zip(w.as_slice().chunks_exact(cols)) {
            let block: &[f32; LANES] = row[j..j + LANES].try_into().expect("block of LANES");
            for (a, &wv) in acc.iter_mut().zip(block) {
                *a += xi * wv;
            }
        }
        y.extend_from_slice(&acc);
    }
    // The tail of fewer than LANES outputs, one strided column each.
    for j in full..cols {
        let column = w.as_slice().iter().skip(j).step_by(cols);
        y.push(x.iter().zip(column).map(|(&xi, &wv)| xi * wv).sum());
    }
    Ok(y)
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
    fn vecmat_multiplies_input_major() {
        // x · w with w = [[1, 2], [3, 4]] (row i = input i).
        let w = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(vecmat(&[5.0, 6.0], &w).unwrap(), vec![23.0, 34.0]);
        assert!(vecmat(&[1.0], &w).is_err());
    }

    #[test]
    fn dot_products() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }
}
