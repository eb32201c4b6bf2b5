//! Attention computation kernels (Eq. 1–2 of the paper).
//!
//! Single-head building blocks; `alisa-model` loops them over heads.
//! The sparse path mirrors Algorithm 1 lines 6–8 exactly: gather the
//! selected KV rows into dense tensors, then run the *same* dense
//! kernels — "despite the multi-step attention calculation in SWA, both
//! the computation and memory access remain regular".

use alisa_tensor::nn::softmax_inplace;
use alisa_tensor::ops::dot;
use alisa_tensor::{Matrix, Result, TensorError};

/// Output of one attention evaluation for a single query.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionStep {
    /// Post-softmax attention weights over the supplied keys
    /// (`AW(Q, K)` in Eq. 1), one per KV row.
    pub weights: Vec<f32>,
    /// The attention score row (`Attn(Q, K, V)` in Eq. 2).
    pub output: Vec<f32>,
}

/// Computes single-query attention against `keys`/`values` rows.
///
/// `bias[j]` is an additive logit bias for KV row `j` — the hook through
/// which `alisa-model` injects ALiBi-style recency and heavy-hitter sink
/// structure. Pass `None` for pure dot-product attention.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if dimensions disagree or
/// `keys`/`values` have different row counts.
pub fn attend_single(
    query: &[f32],
    keys: &Matrix,
    values: &Matrix,
    bias: Option<&[f32]>,
) -> Result<AttentionStep> {
    if keys.rows() != values.rows() {
        return Err(TensorError::ShapeMismatch(format!(
            "keys rows {} != values rows {}",
            keys.rows(),
            values.rows()
        )));
    }
    if keys.cols() != query.len() {
        return Err(TensorError::ShapeMismatch(format!(
            "query len {} != key dim {}",
            query.len(),
            keys.cols()
        )));
    }
    if let Some(b) = bias {
        if b.len() != keys.rows() {
            return Err(TensorError::ShapeMismatch(format!(
                "bias len {} != kv rows {}",
                b.len(),
                keys.rows()
            )));
        }
    }
    let d = query.len().max(1) as f32;
    let scale = 1.0 / d.sqrt();
    let mut logits: Vec<f32> = (0..keys.rows())
        .map(|j| dot(query, keys.row(j)) * scale)
        .collect();
    if let Some(b) = bias {
        for (l, &bb) in logits.iter_mut().zip(b) {
            *l += bb;
        }
    }
    softmax_inplace(&mut logits);
    let mut output = vec![0.0f32; values.cols()];
    for (j, &w) in logits.iter().enumerate() {
        for (o, &v) in output.iter_mut().zip(values.row(j)) {
            *o += w * v;
        }
    }
    Ok(AttentionStep {
        weights: logits,
        output,
    })
}

/// Sparse attention for one query: gathers the `kept` KV rows (and the
/// matching bias entries), attends over the packed tensors, and scatters
/// the weights back to full sequence positions (zeros elsewhere) so the
/// caller can log comparable attention maps.
///
/// # Errors
///
/// Propagates gather/shape errors from the underlying kernels.
pub fn attend_single_sparse(
    query: &[f32],
    keys: &Matrix,
    values: &Matrix,
    bias: Option<&[f32]>,
    kept: &[usize],
) -> Result<AttentionStep> {
    let ks = keys.gather_rows(kept)?;
    let vs = values.gather_rows(kept)?;
    let gathered_bias: Option<Vec<f32>> = bias.map(|b| kept.iter().map(|&i| b[i]).collect());
    let step = attend_single(query, &ks, &vs, gathered_bias.as_deref())?;
    let mut full_weights = vec![0.0f32; keys.rows()];
    for (&pos, &w) in kept.iter().zip(&step.weights) {
        full_weights[pos] = w;
    }
    Ok(AttentionStep {
        weights: full_weights,
        output: step.output,
    })
}

/// Full causal self-attention over a prompt: query row `i` attends to
/// rows `0..=i`. Returns the `(n × n)` lower-triangular attention-weight
/// matrix and the `(n × d_v)` outputs. Used for whole-prompt analyses
/// (Figures 4 and 5) and the prefill pass.
///
/// `bias_fn(i, j)` supplies the additive logit bias of query `i`
/// attending to key `j`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `queries`, `keys` and
/// `values` disagree on dimensions.
pub fn causal_attention<F: Fn(usize, usize) -> f32>(
    queries: &Matrix,
    keys: &Matrix,
    values: &Matrix,
    bias_fn: F,
) -> Result<(Matrix, Matrix)> {
    if queries.rows() != keys.rows() || keys.rows() != values.rows() {
        return Err(TensorError::ShapeMismatch(format!(
            "causal attention rows q={} k={} v={}",
            queries.rows(),
            keys.rows(),
            values.rows()
        )));
    }
    if queries.cols() != keys.cols() {
        return Err(TensorError::ShapeMismatch(format!(
            "q dim {} != k dim {}",
            queries.cols(),
            keys.cols()
        )));
    }
    let n = queries.rows();
    let d = queries.cols().max(1) as f32;
    let scale = 1.0 / d.sqrt();
    let mut weights = Matrix::zeros(n, n);
    let mut outputs = Matrix::zeros(n, values.cols());
    for i in 0..n {
        let q = queries.row(i);
        let mut logits: Vec<f32> = (0..=i)
            .map(|j| dot(q, keys.row(j)) * scale + bias_fn(i, j))
            .collect();
        softmax_inplace(&mut logits);
        for (j, &w) in logits.iter().enumerate() {
            weights.set(i, j, w);
            let vrow = values.row(j);
            let orow = outputs.row_mut(i);
            for (o, &v) in orow.iter_mut().zip(vrow) {
                *o += w * v;
            }
        }
    }
    Ok((weights, outputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_keys_give_uniform_weights() {
        let keys = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0]]);
        let values = Matrix::from_rows(&[vec![1.0], vec![3.0]]);
        let step = attend_single(&[1.0, 0.0], &keys, &values, None).unwrap();
        assert!((step.weights[0] - 0.5).abs() < 1e-6);
        assert!((step.output[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn matching_key_dominates() {
        let keys = Matrix::from_rows(&[vec![10.0, 0.0], vec![0.0, 10.0]]);
        let values = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let step = attend_single(&[10.0, 0.0], &keys, &values, None).unwrap();
        assert!(step.weights[0] > 0.99);
        assert!(step.output[0] > 0.99);
    }

    #[test]
    fn bias_shifts_attention() {
        let keys = Matrix::from_rows(&[vec![1.0], vec![1.0]]);
        let values = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let step = attend_single(&[1.0], &keys, &values, Some(&[0.0, 5.0])).unwrap();
        assert!(step.weights[1] > 0.95, "bias must dominate equal logits");
    }

    #[test]
    fn shape_errors_are_reported() {
        let keys = Matrix::zeros(2, 3);
        let values = Matrix::zeros(3, 3);
        assert!(attend_single(&[0.0; 3], &keys, &values, None).is_err());
        let values2 = Matrix::zeros(2, 3);
        assert!(attend_single(&[0.0; 2], &keys, &values2, None).is_err());
        assert!(attend_single(&[0.0; 3], &keys, &values2, Some(&[0.0])).is_err());
    }

    #[test]
    fn sparse_attention_matches_dense_on_kept_set() {
        let keys = Matrix::from_rows(&[vec![5.0, 0.0], vec![0.0, 5.0], vec![2.0, 2.0]]);
        let values = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let q = [5.0, 0.0];
        // Keeping all tokens must equal dense attention.
        let dense = attend_single(&q, &keys, &values, None).unwrap();
        let sparse = attend_single_sparse(&q, &keys, &values, None, &[0, 1, 2]).unwrap();
        for (a, b) in dense.weights.iter().zip(&sparse.weights) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!((dense.output[0] - sparse.output[0]).abs() < 1e-6);
    }

    #[test]
    fn sparse_attention_zeroes_dropped_positions() {
        let keys = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let values = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let step = attend_single_sparse(&[1.0], &keys, &values, None, &[0, 2]).unwrap();
        assert_eq!(step.weights.len(), 3);
        assert_eq!(step.weights[1], 0.0);
        let kept_mass: f32 = step.weights.iter().sum();
        assert!((kept_mass - 1.0).abs() < 1e-6, "renormalized over kept set");
        // Output is the mean of values 1 and 3.
        assert!((step.output[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sparse_attention_gathers_bias() {
        let keys = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let values = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let bias = [0.0, 0.0, 9.0];
        let step = attend_single_sparse(&[1.0], &keys, &values, Some(&bias), &[0, 2]).unwrap();
        assert!(step.weights[2] > 0.99);
    }

    #[test]
    fn causal_attention_is_lower_triangular() {
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let (aw, out) = causal_attention(&x, &x, &x, |_, _| 0.0).unwrap();
        assert_eq!(aw.shape(), (3, 3));
        assert_eq!(aw.get(0, 1), 0.0);
        assert_eq!(aw.get(0, 2), 0.0);
        assert_eq!(aw.get(1, 2), 0.0);
        // Each realized row sums to 1.
        for i in 0..3 {
            let s: f32 = aw.row(i)[..=i].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert_eq!(out.shape(), (3, 2));
    }

    #[test]
    fn causal_attention_first_row_attends_self_only() {
        let x = Matrix::from_rows(&[vec![0.3, -0.7], vec![1.0, 2.0]]);
        let (aw, out) = causal_attention(&x, &x, &x, |_, _| 0.0).unwrap();
        assert!((aw.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(out.row(0), x.row(0));
    }

    #[test]
    fn causal_attention_bias_fn_applies_recency() {
        // Strong recency bias: every query should mostly attend to itself.
        let x = Matrix::full(4, 2, 1.0);
        let (aw, _) = causal_attention(&x, &x, &x, |i, j| -10.0 * (i - j) as f32).unwrap();
        for i in 0..4 {
            assert!(aw.get(i, i) > 0.99);
        }
    }

    #[test]
    fn causal_attention_shape_errors() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(causal_attention(&a, &b, &a, |_, _| 0.0).is_err());
        let c = Matrix::zeros(2, 3);
        assert!(causal_attention(&a, &c, &a, |_, _| 0.0).is_err());
    }
}
