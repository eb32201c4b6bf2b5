//! The [`Matrix`] type: a row-major 2-D `f32` tensor.
//!
//! The functional path keeps its weights, each layer's K/V cache and the
//! captured attention maps as 2-D matrices; one token's query, key, value
//! and activations are plain `f32` slices (batch and head dimensions are
//! handled by looping at the call site, mirroring how the paper's
//! Algorithm 1 is written per-head). Row-major storage keeps per-token KV
//! rows contiguous, which is what token-level caching moves around.

use serde::{Deserialize, Serialize};

use crate::{Result, TensorError};

/// A dense, row-major 2-D `f32` tensor.
///
/// Rows are the "token" dimension throughout this repository: `K` is
/// `(seq_len, head_dim)`, attention weights are `(q_len, kv_len)`, and a
/// token's KV entry is one row. Reading a token that Sparse Window
/// Attention keeps is then one contiguous row borrow.
///
/// # Example
///
/// ```
/// use alisa_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 2);
/// assert_eq!(m.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from an explicit row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch(format!(
                "buffer of len {} cannot form a {}x{} matrix",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of equally-long rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths. Intended for literals in
    /// tests and examples; use [`Matrix::from_vec`] for fallible input.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair, convenient for error messages and assertions.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole row-major buffer: row `r` is
    /// `[r * cols, (r + 1) * cols)`.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The transpose `cols × rows`: element `(r, c)` moves to `(c, r)`.
    pub fn transpose(&self) -> Matrix {
        // Strips of 8 source rows: each output row takes a run of 8 from
        // a strip, whose few cache lines stay hot across its columns.
        const STRIP: usize = 8;
        let mut data = vec![0.0; self.data.len()];
        for r0 in (0..self.rows).step_by(STRIP) {
            let strip = STRIP.min(self.rows - r0);
            for c in 0..self.cols {
                let out = &mut data[c * self.rows + r0..][..strip];
                for (k, x) in out.iter_mut().enumerate() {
                    *x = self.data[(r0 + k) * self.cols + c];
                }
            }
        }
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Appends a single row.
    ///
    /// This is the "concatenate stored KV with the new token's KV" step of
    /// KV caching (Figure 2(b) of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `row.len() != cols`
    /// (unless the matrix is still empty, in which case the row defines
    /// the column count).
    pub fn push_row(&mut self, row: &[f32]) -> Result<()> {
        if self.rows == 0 {
            self.cols = row.len();
        } else if row.len() != self.cols {
            return Err(TensorError::ShapeMismatch(format!(
                "cannot push row of len {} onto matrix with {} cols",
                row.len(),
                self.cols
            )));
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Returns a sub-matrix of rows `lo..hi` (half-open range).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > rows`.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.rows, "row range out of bounds");
        Matrix {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }

    /// Element-wise maximum value; `None` for an empty matrix.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix, ready to have rows pushed into it.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for r in 0..show {
            let row = self.row(r);
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:8.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", cells.join(", "), ellipsis)?;
        }
        if self.rows > show {
            writeln!(f, "  ... ({} more rows)", self.rows - show)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!((0..3).all(|r| m.row(r).iter().all(|&x| x == 0.0)));
    }

    #[test]
    fn identity_is_diagonal() {
        let m = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn row_returns_contiguous_slice() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn transpose_swaps_rows_and_columns() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.transpose(), m);
        assert_eq!(Matrix::zeros(0, 4).transpose().shape(), (4, 0));
    }

    #[test]
    fn push_row_accumulates() {
        let mut m = Matrix::default();
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn slice_rows_copies_range() {
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let s = m.slice_rows(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.get(0, 0), 1.0);
    }

    #[test]
    fn max_is_largest_element() {
        let m = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, 6.0]]);
        assert_eq!(m.max(), Some(6.0));
        assert_eq!(Matrix::default().max(), None);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m}").is_empty());
    }
}
