//! Statistics used by the paper's analyses.
//!
//! * attention-weight **sparsity** with the paper's 1%-of-row-max
//!   threshold (Figure 3, Figure 10),
//! * **Spearman rank correlation** between sparse and dense attention
//!   score distributions (Figure 4),
//! * power-law / Zipf diagnostics for the score distributions
//!   ("near power-law distribution", §IV-A).

use crate::Matrix;

/// Fraction of elements in `row` strictly below `threshold_frac` of the
/// row's maximum value.
///
/// The paper's measurement convention (Fig. 3 caption): *"We consider
/// elements as zeros if they fall below 1% of the row-wise maximum
/// value."* Call with `threshold_frac = 0.01` to reproduce it.
pub fn row_sparsity(row: &[f32], threshold_frac: f32) -> f32 {
    if row.is_empty() {
        return 0.0;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max <= 0.0 {
        return 0.0;
    }
    let thr = max * threshold_frac;
    let zeros = row.iter().filter(|&&v| v < thr).count();
    zeros as f32 / row.len() as f32
}

/// Mean row-wise sparsity of a lower-triangular attention-weight matrix,
/// respecting the causal mask: for row `r` only columns `0..=r` are real
/// weights (the grey blocks in Figures 4–5 are masked, not sparse).
///
/// Rows shorter than `min_row_len` are skipped — a 1-token row is
/// trivially 0% sparse and would bias the average.
pub fn causal_attention_sparsity(aw: &Matrix, threshold_frac: f32, min_row_len: usize) -> f32 {
    let mut total = 0.0;
    let mut counted = 0usize;
    for r in 0..aw.rows() {
        let valid = (r + 1).min(aw.cols());
        if valid < min_row_len {
            continue;
        }
        total += row_sparsity(&aw.row(r)[..valid], threshold_frac);
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f32
    }
}

/// Ranks with average tie-handling (rank 1 = smallest).
fn ranks(values: &[f32]) -> Vec<f32> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = vec![0.0f32; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f32 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Pearson correlation of two equal-length slices; 0.0 when either side
/// has zero variance or fewer than two points.
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "pearson length mismatch");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ma = a.iter().sum::<f32>() / n as f32;
    let mb = b.iter().sum::<f32>() / n as f32;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// Spearman rank correlation `ρ` — Pearson correlation of the ranks.
///
/// Figure 4 of the paper reports `ρ` between each sparse method's
/// attention-score distribution and dense attention's; SWA achieves
/// `ρ ≈ 1` while local/strided attention sit near 0.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn spearman(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "spearman length mismatch");
    pearson(&ranks(a), &ranks(b))
}

/// Least-squares slope of `log(value) ~ log(rank)` over the positive
/// entries of a descending-sorted distribution.
///
/// A near power-law (Zipfian) distribution yields a clearly negative
/// slope with high linear fit quality; returns `(slope, r_squared)`.
pub fn zipf_fit(sorted_desc: &[f32]) -> (f32, f32) {
    let pts: Vec<(f32, f32)> = sorted_desc
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0.0)
        .map(|(i, &v)| (((i + 1) as f32).ln(), v.ln()))
        .collect();
    if pts.len() < 2 {
        return (0.0, 0.0);
    }
    let n = pts.len() as f32;
    let mx = pts.iter().map(|p| p.0).sum::<f32>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f32>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in &pts {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return (0.0, 0.0);
    }
    let slope = sxy / sxx;
    let r2 = (sxy * sxy) / (sxx * syy);
    (slope, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_sparsity_counts_below_threshold() {
        // max = 1.0, threshold = 0.01 → values < 0.01 are "zero".
        let row = [1.0, 0.005, 0.02, 0.001];
        assert!((row_sparsity(&row, 0.01) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn row_sparsity_uniform_row_is_dense() {
        let row = [0.25, 0.25, 0.25, 0.25];
        assert_eq!(row_sparsity(&row, 0.01), 0.0);
    }

    #[test]
    fn causal_sparsity_ignores_masked_region() {
        // Row 2 has weights [0.98, 0.001, 0.019] in the causal region.
        let aw = Matrix::from_rows(&[
            vec![1.0, 9.0, 9.0], // skipped: row len 1 < min_row_len 2
            vec![0.5, 0.5, 9.0], // dense: sparsity 0
            vec![0.98, 0.001, 0.019],
        ]);
        let s = causal_attention_sparsity(&aw, 0.01, 2);
        // Row 1: 0.0; row 2: 1/3 below 0.0098 → mean = 1/6.
        assert!((s - (1.0 / 6.0)).abs() < 1e-6);
    }

    #[test]
    fn spearman_perfect_monotone_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 100.0, 1000.0, 10000.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spearman_reversed_is_minus_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&a, &b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 2.0, 3.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn spearman_constant_input_is_zero() {
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_linear_relation() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-6);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn zipf_fit_recovers_exponent() {
        // value = rank^-1.5 exactly → slope −1.5, r² = 1.
        let vals: Vec<f32> = (1..=50).map(|r| (r as f32).powf(-1.5)).collect();
        let (slope, r2) = zipf_fit(&vals);
        assert!((slope + 1.5).abs() < 1e-3);
        assert!(r2 > 0.999);
    }

    #[test]
    fn zipf_fit_degenerate_inputs() {
        assert_eq!(zipf_fit(&[]), (0.0, 0.0));
        assert_eq!(zipf_fit(&[1.0]), (0.0, 0.0));
        assert_eq!(zipf_fit(&[1.0, 1.0]), (0.0, 0.0)); // zero variance
    }
}
