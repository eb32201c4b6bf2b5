//! Fidelity metrics for sparse attention (Figure 4).
//!
//! Figure 4 compares each method's *attention-score distribution*
//! against dense attention and reports the Spearman correlation `ρ`.

use alisa_tensor::stats::{spearman, zipf_fit};
use alisa_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Summary of how faithfully a sparse method reproduces dense attention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Spearman ρ between the sparse and dense per-position attention
    /// mass (Figure 4's headline number; 1.0 = identical ranking).
    pub spearman_rho: f32,
    /// Zipf-fit slope of the sparse method's sorted score distribution —
    /// dense attention is near power-law (§IV-A), so a faithful method
    /// keeps a similar negative slope.
    pub zipf_slope: f32,
    /// R² of that power-law fit.
    pub zipf_r2: f32,
}

/// Per-position attention mass: column sums of a causal attention-weight
/// matrix, i.e. how much total attention each token position received.
/// This is the distribution Figure 4 plots (sorted descending).
pub fn attention_mass(aw: &Matrix) -> Vec<f32> {
    let mut mass = vec![0.0f32; aw.cols()];
    for r in 0..aw.rows() {
        for (m, &w) in mass.iter_mut().zip(aw.row(r)) {
            *m += w;
        }
    }
    mass
}

/// Attention mass aggregated over the **vocabulary**: Figure 4 plots
/// "average attention score distributions in the dataset vocabulary",
/// i.e. how much total attention each *token id* received, summed over
/// every position where it occurs. `tokens[j]` is the token id at
/// position `j`.
///
/// This is the discriminating view: a recency window still lands mass
/// on whatever ids happen to be recent, but only a heavy-hitter-aware
/// method reproduces the power-law concentration of mass on anchor ids.
///
/// # Panics
///
/// Panics if `tokens` is shorter than the attention map's width or an
/// id is `>= vocab_size`.
pub fn vocab_attention_mass(aw: &Matrix, tokens: &[usize], vocab_size: usize) -> Vec<f32> {
    assert!(tokens.len() >= aw.cols(), "token/id length mismatch");
    let mut mass = vec![0.0f32; vocab_size];
    for r in 0..aw.rows() {
        for (j, &w) in aw.row(r).iter().enumerate() {
            mass[tokens[j]] += w;
        }
    }
    mass
}

/// *Average* attention score per vocabulary token: total mass divided by
/// occurrence count — the paper's "average attention score
/// distributions in the dataset vocabulary" (Figure 4, bottom).
///
/// Averaging is what separates the methods: summed mass is dominated by
/// occurrence frequency (a recency window still collects mass on every
/// frequent id), whereas the per-occurrence average asks "when this
/// token is present, how hard does the model attend to it?" — dense
/// attention answers with a power law over heavy hitters, a recency
/// window with a near-flat profile.
pub fn vocab_attention_score(aw: &Matrix, tokens: &[usize], vocab_size: usize) -> Vec<f32> {
    let mass = vocab_attention_mass(aw, tokens, vocab_size);
    let mut counts = vec![0u32; vocab_size];
    for &t in &tokens[..aw.cols()] {
        counts[t] += 1;
    }
    mass.into_iter()
        .zip(counts)
        .map(|(m, c)| if c == 0 { 0.0 } else { m / c as f32 })
        .collect()
}

/// Compares a sparse method's attention-weight matrix against dense
/// attention over the same inputs.
pub fn fidelity(dense_aw: &Matrix, sparse_aw: &Matrix) -> FidelityReport {
    let dense_mass = attention_mass(dense_aw);
    let sparse_mass = attention_mass(sparse_aw);
    let rho = spearman(&dense_mass, &sparse_mass);
    let mut sorted = sparse_mass.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let (slope, r2) = zipf_fit(&sorted);
    FidelityReport {
        spearman_rho: rho,
        zipf_slope: slope,
        zipf_r2: r2,
    }
}

/// Figure 4's headline number over the vocabulary view: Spearman ρ
/// between sparse and dense per-token-id attention mass, computed over
/// the ids that actually occur in the sequence.
pub fn vocab_fidelity(
    dense_aw: &Matrix,
    sparse_aw: &Matrix,
    tokens: &[usize],
    vocab_size: usize,
) -> FidelityReport {
    let dense_mass = vocab_attention_score(dense_aw, tokens, vocab_size);
    let sparse_mass = vocab_attention_score(sparse_aw, tokens, vocab_size);
    // Restrict to ids present in the text; absent ids are all-zero ties
    // that would dilute the correlation.
    let mut present: Vec<usize> = tokens.to_vec();
    present.sort_unstable();
    present.dedup();
    let d: Vec<f32> = present.iter().map(|&t| dense_mass[t]).collect();
    let s: Vec<f32> = present.iter().map(|&t| sparse_mass[t]).collect();
    let rho = spearman(&d, &s);
    let mut sorted = s.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let (slope, r2) = zipf_fit(&sorted);
    FidelityReport {
        spearman_rho: rho,
        zipf_slope: slope,
        zipf_r2: r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alisa_tensor::nn::softmax_inplace;
    use alisa_tensor::ops::dot;

    fn power_law_attention(n: usize) -> Matrix {
        // Keys whose norms decay like a power law produce concentrated,
        // near-Zipfian attention mass.
        let mut x = Matrix::zeros(n, 4);
        for i in 0..n {
            let norm = 4.0 / ((i + 1) as f32).powf(0.7);
            for c in 0..4 {
                x.set(i, c, norm * if (i + c) % 2 == 0 { 1.0 } else { -0.5 });
            }
        }
        // Causal self-attention: row i is softmax(x_i · x_j / √4) over j ≤ i.
        let mut aw = Matrix::zeros(n, n);
        for i in 0..n {
            let mut logits: Vec<f32> = (0..=i).map(|j| dot(x.row(i), x.row(j)) / 2.0).collect();
            softmax_inplace(&mut logits);
            aw.row_mut(i)[..=i].copy_from_slice(&logits);
        }
        aw
    }

    #[test]
    fn attention_mass_sums_rows() {
        let aw = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.3, 0.7]]);
        assert_eq!(attention_mass(&aw), vec![1.3, 0.7]);
    }

    #[test]
    fn fidelity_of_identical_maps_is_perfect() {
        let aw = power_law_attention(32);
        let rep = fidelity(&aw, &aw);
        assert!(rep.spearman_rho > 0.999);
    }

    #[test]
    fn fidelity_detects_divergence() {
        let dense = power_law_attention(32);
        // A "local" map: all mass on the last position of each row.
        let mut local = Matrix::zeros(32, 32);
        for i in 0..32 {
            local.set(i, i, 1.0);
        }
        let rep = fidelity(&dense, &local);
        assert!(rep.spearman_rho < fidelity(&dense, &dense).spearman_rho);
    }

    #[test]
    fn vocab_mass_groups_by_token_id() {
        let aw = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.4, 0.6, 0.0],
            vec![0.2, 0.3, 0.5],
        ]);
        let tokens = [7usize, 7, 2];
        let mass = vocab_attention_mass(&aw, &tokens, 10);
        assert!((mass[7] - (1.0 + 0.4 + 0.6 + 0.2 + 0.3)).abs() < 1e-6);
        assert!((mass[2] - 0.5).abs() < 1e-6);
        assert_eq!(mass[0], 0.0);
    }

    #[test]
    fn vocab_fidelity_perfect_for_identical_maps() {
        let aw = power_law_attention(24);
        let tokens: Vec<usize> = (0..24).map(|i| i % 7).collect();
        let rep = vocab_fidelity(&aw, &aw, &tokens, 7);
        assert!(rep.spearman_rho > 0.999);
    }

    #[test]
    fn vocab_fidelity_punishes_mass_on_wrong_ids() {
        // Dense: all mass on the id at position 0. Sparse: all mass on
        // the most recent position's id. Distinct ids ⇒ low correlation.
        let n = 12;
        let mut dense = Matrix::zeros(n, n);
        let mut sparse = Matrix::zeros(n, n);
        for i in 0..n {
            dense.set(i, 0, 1.0);
            sparse.set(i, i, 1.0);
        }
        let tokens: Vec<usize> = (0..n).collect();
        let rep = vocab_fidelity(&dense, &sparse, &tokens, n);
        assert!(rep.spearman_rho < 0.5, "rho {}", rep.spearman_rho);
    }
}
