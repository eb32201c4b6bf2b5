//! Criterion micro-benchmarks for the functional path's kernels: token
//! selection (`PolicyKind::select`, which `TinyTransformer::decode_step`
//! calls once per layer per step), KV quantization, and the matmul
//! primitives.

use alisa_attention::policy::{AttentionHistory, PolicyKind, SelectionContext};
use alisa_tensor::ops::{matmul, matmul_bt};
use alisa_tensor::quant::{dequantize, quantize, QuantBits};
use alisa_tensor::Matrix;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn filled(rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((i * 37) % 101) as f32 * 0.01 - 0.5)
            .collect(),
    )
    .unwrap()
}

fn history(seq: usize, depth: usize) -> AttentionHistory {
    let mut h = AttentionHistory::new(depth);
    for step in 0..depth {
        let row: Vec<f32> = (0..seq - depth + step + 1)
            .map(|j| ((j * 13 + step) % 97) as f32 / 97.0)
            .collect();
        h.push(&row);
    }
    h
}

fn bench_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_selection");
    for &seq in &[128usize, 512, 2048] {
        let h = history(seq, 4);
        let budget = seq / 5;
        let ctx = SelectionContext {
            seq_len: seq,
            budget,
            history: &h,
            swa_local_fraction: 0.5,
        };
        for kind in [PolicyKind::Swa, PolicyKind::H2o, PolicyKind::Local] {
            g.bench_with_input(BenchmarkId::new(kind.label(), seq), &seq, |b, _| {
                b.iter(|| black_box(kind.select(&ctx)));
            });
        }
    }
    g.finish();
}

fn bench_quantization(c: &mut Criterion) {
    let mut g = c.benchmark_group("kv_quantization");
    for &rows in &[64usize, 512] {
        let m = filled(rows, 128);
        g.bench_with_input(BenchmarkId::new("quantize_int8", rows), &rows, |b, _| {
            b.iter(|| black_box(quantize(&m, QuantBits::Int8).unwrap()));
        });
        let q = quantize(&m, QuantBits::Int8).unwrap();
        g.bench_with_input(BenchmarkId::new("dequantize_int8", rows), &rows, |b, _| {
            b.iter(|| black_box(dequantize(&q)));
        });
    }
    g.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for &n in &[32usize, 128] {
        let a = filled(n, n);
        let b_mat = filled(n, n);
        g.bench_with_input(BenchmarkId::new("matmul", n), &n, |b, _| {
            b.iter(|| black_box(matmul(&a, &b_mat).unwrap()));
        });
        g.bench_with_input(BenchmarkId::new("matmul_bt", n), &n, |b, _| {
            b.iter(|| black_box(matmul_bt(&a, &b_mat).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_selection, bench_quantization, bench_matmul);
criterion_main!(benches);
