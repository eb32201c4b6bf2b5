//! Neural-network primitives: softmax, layer normalization, activations.
//!
//! The paper folds the Add + LayerNorm operations into the MHA and FFN
//! blocks (§II-A); this module provides those pieces for the functional
//! transformer in `alisa-model`, which works on one token's row at a
//! time.

/// In-place numerically-stable softmax over a single slice:
/// `σ(x)ᵢ = exp(xᵢ - max) / Σ exp`, the `σ(·)` of Eq. 1.
///
/// A row of `-∞` (fully masked) becomes uniform rather than NaN, which
/// never occurs in practice because autoregressive attention always
/// attends to at least the current token.
pub fn softmax_inplace(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        // Fully-masked row: fall back to uniform to stay NaN-free.
        let u = 1.0 / row.len() as f32;
        row.fill(u);
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Softmax of a slice, returning a fresh vector.
pub fn softmax(row: &[f32]) -> Vec<f32> {
    let mut out = row.to_vec();
    softmax_inplace(&mut out);
    out
}

/// Layer normalization of one row in place, with learned `gain` and
/// `bias`: `y = (x - mean) / sqrt(var + eps) * gain + bias`.
///
/// # Panics
///
/// Panics if `gain.len()` or `bias.len()` differ from `x.len()`.
pub fn layernorm(x: &mut [f32], gain: &[f32], bias: &[f32], eps: f32) {
    assert_eq!(gain.len(), x.len(), "layernorm gain length");
    assert_eq!(bias.len(), x.len(), "layernorm bias length");
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let denom = (var + eps).sqrt();
    for (i, v) in x.iter_mut().enumerate() {
        *v = (*v - mean) / denom * gain[i] + bias[i];
    }
}

/// ReLU activation, element-wise in place (used by the OPT-style FFN).
pub fn relu_inplace(x: &mut [f32]) {
    for v in x {
        *v = v.max(0.0);
    }
}

/// Cross-entropy `-Σ t log p` between a target one-hot index and a
/// probability row; clamps `p` away from zero to stay finite.
///
/// # Panics
///
/// Panics if `target >= probs.len()`.
pub fn cross_entropy(probs: &[f32], target: usize) -> f32 {
    assert!(target < probs.len(), "target index out of range");
    -(probs[target].max(1e-12).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        for row in [[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]] {
            let total: f32 = softmax(&row).iter().sum();
            assert!((total - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extreme_values() {
        let s = softmax(&[1e30, -1e30]);
        assert!((s[0] - 1.0).abs() < 1e-6);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_fully_masked_row_is_uniform() {
        let s = softmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert_eq!(s, vec![0.5, 0.5]);
    }

    #[test]
    fn softmax_empty_row_is_noop() {
        let mut empty: [f32; 0] = [];
        softmax_inplace(&mut empty);
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let mut y = vec![1.0, 2.0, 3.0, 4.0];
        layernorm(&mut y, &[1.0; 4], &[0.0; 4], 1e-5);
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        let var: f32 = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_applies_gain_and_bias() {
        let mut y = vec![1.0, -1.0];
        layernorm(&mut y, &[2.0, 2.0], &[1.0, 1.0], 1e-5);
        // Normalized row is [1, -1]; with gain 2 bias 1 → [3, -1].
        assert!((y[0] - 3.0).abs() < 1e-2);
        assert!((y[1] + 1.0).abs() < 1e-2);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut x = vec![-1.0, 2.0];
        relu_inplace(&mut x);
        assert_eq!(x, vec![0.0, 2.0]);
    }

    #[test]
    fn cross_entropy_of_confident_prediction_is_small() {
        assert!(cross_entropy(&[0.99, 0.01], 0) < 0.02);
        assert!(cross_entropy(&[0.01, 0.99], 0) > 4.0);
    }
}
