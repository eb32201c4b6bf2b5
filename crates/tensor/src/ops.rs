//! Linear-algebra kernels: matmul, matvec, dot products, element-wise
//! ops and column sums.
//!
//! These are the exact operations Algorithm 1 performs: `Q Kᵀ` (matmul),
//! scaling by `1/√d`, and `AW · V` (matmul). The implementations are naive
//! triple loops — the repository measures *placement decisions*, not kernel
//! micro-optimizations, and determinism matters more than speed at the
//! functional-path model scales.

use crate::{Matrix, Result, TensorError};

/// Dense matrix multiplication `a (m×k) · b (k×n) -> (m×n)`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use alisa_tensor::{Matrix, ops::matmul};
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
/// let b = Matrix::from_rows(&[vec![3.0], vec![4.0]]);
/// let c = matmul(&a, &b).unwrap();
/// assert_eq!(c.get(0, 0), 11.0);
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch(format!(
            "matmul {}x{} . {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for (p, &av) in arow.iter().enumerate().take(k) {
            if av == 0.0 {
                continue;
            }
            let brow = b.row(p);
            for j in 0..n {
                orow[j] += av * brow[j];
            }
        }
    }
    Ok(out)
}

/// `a · bᵀ` without materializing the transpose.
///
/// Attention weights are `Q Kᵀ`; K is stored row-per-token so this avoids
/// the transpose copy on the hot path.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.cols()`.
pub fn matmul_bt(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch(format!(
            "matmul_bt {}x{} . ({}x{})^T",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    let (m, n) = (a.rows(), b.rows());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for (j, o) in orow.iter_mut().enumerate().take(n) {
            let brow = b.row(j);
            let mut acc = 0.0;
            for (x, y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *o = acc;
        }
    }
    Ok(out)
}

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

/// Returns `a + b` element-wise.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn add(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch(format!(
            "add {:?} + {:?}",
            a.shape(),
            b.shape()
        )));
    }
    let mut out = a.clone();
    for (o, &x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o += x;
    }
    Ok(out)
}

/// Returns `a - b` element-wise.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn sub(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch(format!(
            "sub {:?} - {:?}",
            a.shape(),
            b.shape()
        )));
    }
    let mut out = a.clone();
    for (o, &x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o -= x;
    }
    Ok(out)
}

/// Sums each column, producing a row of column totals.
///
/// H2O-style heavy-hitter selection uses the *global* column sum of the
/// attention-weight history; SWA (Algorithm 1 line 2) uses the sum over
/// only the most recent rows — see [`col_sums_range`].
pub fn col_sums(m: &Matrix) -> Vec<f32> {
    col_sums_range(m, 0, m.rows())
}

/// Sums columns over the row range `lo..hi` only.
///
/// This is the **local attention sum** of Algorithm 1 line 2: columns are
/// prior tokens, rows `lo..hi` are the most recent decoding steps.
///
/// # Panics
///
/// Panics if `lo > hi` or `hi > m.rows()`.
pub fn col_sums_range(m: &Matrix, lo: usize, hi: usize) -> Vec<f32> {
    assert!(lo <= hi && hi <= m.rows(), "row range out of bounds");
    let mut out = vec![0.0; m.cols()];
    for r in lo..hi {
        for (acc, &v) in out.iter_mut().zip(m.row(r)) {
            *acc += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]]);
        let via_t = matmul(&a, &b.transpose()).unwrap();
        let direct = matmul_bt(&a, &b).unwrap();
        assert_eq!(via_t, direct);
    }

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

    #[test]
    fn scale_add_sub() {
        let a = Matrix::from_rows(&[vec![2.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 1.0]]);
        assert_eq!(add(&a, &b).unwrap().row(0), &[3.0, 5.0]);
        assert_eq!(sub(&a, &b).unwrap().row(0), &[1.0, 3.0]);
        let c = Matrix::zeros(2, 2);
        assert!(add(&a, &c).is_err());
        assert!(sub(&a, &c).is_err());
    }

    #[test]
    fn row_and_col_sums() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(col_sums(&m), vec![4.0, 6.0]);
    }

    #[test]
    fn col_sums_range_is_local_attention_sum() {
        // Only the last two rows should contribute, per Algorithm 1 line 2.
        let m = Matrix::from_rows(&[
            vec![100.0, 100.0, 100.0],
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
        ]);
        assert_eq!(col_sums_range(&m, 1, 3), vec![5.0, 7.0, 9.0]);
    }
}
