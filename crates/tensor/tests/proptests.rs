//! Property-based tests for the tensor substrate's core invariants.

use alisa_tensor::nn::{softmax, softmax_inplace};
use alisa_tensor::ops::vecmat;
use alisa_tensor::quant::{fake_quantize_row, KvPrecision, PrecisionPolicy, QuantBits};
use alisa_tensor::stats::spearman;
use alisa_tensor::topk::top_k_indices_within;
use alisa_tensor::{Matrix, TensorError};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1.0e3f32..1.0e3f32).prop_filter("finite", |v| v.is_finite())
}

/// A finite value that is `+0.0` or `-0.0` one time in three.
fn signed_zero_or_finite() -> impl Strategy<Value = f32> {
    (0u8..6, finite_f32()).prop_map(|(pick, v)| match pick {
        0 => 0.0,
        1 => -0.0,
        _ => v,
    })
}

/// An input vector, an input-major `in × out` matrix, each dimension in
/// `0..=70` so shapes cross the kernel's 16-wide block and its tail.
fn vecmat_operands() -> impl Strategy<Value = (Vec<f32>, Matrix)> {
    (0usize..=70, 0usize..=70).prop_flat_map(|(n_in, n_out)| {
        (
            proptest::collection::vec(signed_zero_or_finite(), n_in),
            proptest::collection::vec(signed_zero_or_finite(), n_in * n_out)
                .prop_map(move |w| Matrix::from_vec(n_in, n_out, w).expect("shape")),
        )
    })
}

/// `x · w` the plain way: per output, `Iterator::sum` over the products
/// in ascending input order.
fn naive_vecmat(x: &[f32], w: &Matrix) -> Vec<f32> {
    (0..w.cols())
        .map(|j| (0..w.rows()).map(|i| x[i] * w.get(i, j)).sum())
        .collect()
}

/// The full-sort top-k: rank every candidate (value descending, ties
/// toward the larger index), keep the first `k`, sort them by index.
fn full_sort_top_k(xs: &[f32], candidates: &[usize], k: usize) -> Vec<usize> {
    let mut cand = candidates.to_vec();
    cand.sort_by(|&a, &b| {
        xs[b]
            .partial_cmp(&xs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.cmp(&a))
    });
    cand.truncate(k);
    cand.sort_unstable();
    cand
}

proptest! {
    /// Softmax rows always sum to 1 and contain only finite values in [0, 1].
    #[test]
    fn softmax_is_probability_distribution(row in proptest::collection::vec(finite_f32(), 1..64)) {
        let mut s = row.clone();
        softmax_inplace(&mut s);
        let total: f32 = s.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-4);
        for &v in &s {
            prop_assert!(v.is_finite());
            prop_assert!((0.0..=1.0 + 1e-6).contains(&v));
        }
    }

    /// Softmax preserves the ordering of the inputs.
    #[test]
    fn softmax_is_monotone(row in proptest::collection::vec(finite_f32(), 2..32)) {
        let s = softmax(&row);
        for i in 0..row.len() {
            for j in 0..row.len() {
                if row[i] > row[j] {
                    prop_assert!(s[i] >= s[j] - 1e-6);
                }
            }
        }
    }

    /// Fake quantization moves each element of a row by at most one
    /// quantization step, `(max − min) / levels`, at INT8 and INT4.
    #[test]
    fn quant_roundtrip_error_bounded(row in proptest::collection::vec(finite_f32(), 1..64)) {
        let lo = row.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for bits in [QuantBits::Int8, QuantBits::Int4] {
            let step = (hi - lo) / bits.levels() as f32;
            let mut q = row.clone();
            fake_quantize_row(&mut q, bits);
            for (a, b) in row.iter().zip(&q) {
                let err = (a - b).abs();
                // 1e-3 of slack absorbs f32 rounding at |x| ≤ 1e3.
                prop_assert!(err <= step + 1e-3, "{bits}: err {err} > step {step}");
            }
        }
    }

    /// top_k_indices_within returns min(k, |candidates|) distinct,
    /// ascending candidates, none valued below an unselected candidate —
    /// with every index a candidate, and with a strict subset.
    #[test]
    fn top_k_indices_are_valid(
        xs in proptest::collection::vec(finite_f32(), 1..64),
        k in 0usize..64,
        stride in 1usize..4,
    ) {
        let every: Vec<usize> = (0..xs.len()).collect();
        // Never index 0, so always a strict subset.
        let subset: Vec<usize> = (1..xs.len()).step_by(stride).collect();
        for candidates in [every, subset] {
            let idx = top_k_indices_within(&xs, &candidates, k);
            prop_assert_eq!(idx.len(), k.min(candidates.len()));
            for w in idx.windows(2) {
                prop_assert!(w[0] < w[1], "indices must be strictly ascending");
            }
            for &i in &idx {
                prop_assert!(candidates.contains(&i));
            }
            // Every selected value is >= every unselected candidate's.
            if let Some(selected_min) = idx.iter().map(|&i| xs[i]).reduce(f32::min) {
                for &i in &candidates {
                    if !idx.contains(&i) {
                        prop_assert!(xs[i] <= selected_min);
                    }
                }
            }
        }
    }

    /// Partial selection keeps exactly the full sort's winners: values
    /// from a four-element set force ties (`-0.0` and `0.0` compare
    /// equal too), over every index, a random subset, and the subset
    /// listed in reverse.
    #[test]
    fn top_k_matches_full_sort(
        xs in proptest::collection::vec((0u8..4).prop_map(|v| match v {
            0 => -0.0f32,
            1 => 0.0,
            2 => 0.5,
            _ => 1.0,
        }), 0..96),
        mask in proptest::collection::vec(0u8..3, 96),
        k in 0usize..100,
    ) {
        let every: Vec<usize> = (0..xs.len()).collect();
        let subset: Vec<usize> = every.iter().copied().filter(|&i| mask[i] != 0).collect();
        let reversed: Vec<usize> = subset.iter().rev().copied().collect();
        for candidates in [every, subset, reversed] {
            prop_assert_eq!(
                top_k_indices_within(&xs, &candidates, k),
                full_sort_top_k(&xs, &candidates, k)
            );
        }
    }

    /// `vecmat` gives every output the exact bits of the naive ascending
    /// sum, for the inputs as drawn and for their non-positive mirror
    /// against a matrix whose every fifth column is zero (products of
    /// `-0.0` only, which a sum started from `+0.0` would turn into
    /// `+0.0`); a vector of the wrong length is a shape mismatch.
    #[test]
    fn vecmat_matches_naive_sum_bit_for_bit((x, w) in vecmat_operands()) {
        let mut zeroed = w.clone();
        for i in 0..w.rows() {
            for j in (0..w.cols()).step_by(5) {
                zeroed.set(i, j, 0.0);
            }
        }
        let non_positive: Vec<f32> = x.iter().map(|v| -v.abs()).collect();
        for (x, w) in [(&x, &w), (&non_positive, &zeroed)] {
            let got: Vec<u32> = vecmat(x, w).expect("shapes agree").iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = naive_vecmat(x, w).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
        let longer: Vec<f32> = x.iter().copied().chain([1.0]).collect();
        prop_assert!(matches!(vecmat(&longer, &w), Err(TensorError::ShapeMismatch(_))));
    }

    /// Spearman is symmetric and bounded in [-1, 1].
    #[test]
    fn spearman_symmetric_bounded(
        a in proptest::collection::vec(finite_f32(), 3..32),
    ) {
        let b: Vec<f32> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let r1 = spearman(&a, &b);
        let r2 = spearman(&b, &a);
        prop_assert!((r1 - r2).abs() < 1e-5);
        prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&r1));
    }
}

fn precisions() -> [KvPrecision; 3] {
    // Widest to narrowest: byte accounting must be monotone along this.
    [KvPrecision::Fp16, KvPrecision::Int8, KvPrecision::Int4]
}

proptest! {
    /// Accounted KV bytes are monotone non-increasing in bit-width for
    /// every region split: whichever region's precision is narrowed —
    /// CPU warm share, cold tail, or handoff — and for any cold-tail
    /// fraction, the stored/shipped bytes never grow.
    #[test]
    fn region_bytes_monotone_in_bit_width(
        fp16_bytes in 0u64..(1u64 << 40),
        cold_frac in 0.0f64..1.0,
    ) {
        let ps = precisions();
        for w in ps.windows(2) {
            let (wide, narrow) = (w[0], w[1]);
            prop_assert!(narrow.bytes_of_fp16(fp16_bytes) <= wide.bytes_of_fp16(fp16_bytes));
            // Handoff region.
            let h_wide = PrecisionPolicy::fp16().with_handoff(wide);
            let h_narrow = PrecisionPolicy::fp16().with_handoff(narrow);
            prop_assert!(h_narrow.handoff_bytes(fp16_bytes) <= h_wide.handoff_bytes(fp16_bytes));
            // CPU warm share, at every cold-tail split and tail width.
            for cold in ps {
                let c_wide = PrecisionPolicy::fp16()
                    .with_cpu(wide)
                    .with_cold_tail(cold_frac, cold);
                let c_narrow = PrecisionPolicy::fp16()
                    .with_cpu(narrow)
                    .with_cold_tail(cold_frac, cold);
                prop_assert!(
                    c_narrow.cpu_bytes(fp16_bytes) <= c_wide.cpu_bytes(fp16_bytes),
                    "warm {wide}->{narrow} grew bytes at cold_frac {cold_frac}"
                );
                // Narrowing the tail itself is monotone too.
                let t_wide = PrecisionPolicy::fp16().with_cold_tail(cold_frac, wide);
                let t_narrow = PrecisionPolicy::fp16().with_cold_tail(cold_frac, narrow);
                prop_assert!(t_narrow.cpu_bytes(fp16_bytes) <= t_wide.cpu_bytes(fp16_bytes));
            }
        }
        // The mixed policy never accounts more than flat INT8, which
        // never accounts more than FP16 — the fig15 ordering.
        let fp16 = PrecisionPolicy::fp16().cpu_bytes(fp16_bytes);
        let int8 = PrecisionPolicy::int8().cpu_bytes(fp16_bytes);
        let mixed = PrecisionPolicy::mixed().cpu_bytes(fp16_bytes);
        prop_assert!(mixed <= int8 && int8 <= fp16);
    }
}
