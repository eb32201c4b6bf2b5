//! Criterion benchmarks for the two KV-compression pieces that run: the
//! per-row fake quantizer `TinyTransformer::decode_step` applies to each
//! new K and V row under `kv_quant`, at INT8 and INT4, and the
//! per-region `PrecisionPolicy` byte pricing the schedulers and the
//! serving engine call every step.

use alisa_tensor::quant::{fake_quantize_row, PrecisionPolicy, QuantBits};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// A deterministic pseudo-random KV-like row (no RNG dependency).
fn kv_row(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn bench_fake_quantize_row(c: &mut Criterion) {
    let row = kv_row(4096);
    let mut g = c.benchmark_group("fake_quantize_row_4096");
    for bits in [QuantBits::Int8, QuantBits::Int4] {
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            b.iter(|| {
                let mut r = row.clone();
                fake_quantize_row(&mut r, bits);
                black_box(r)
            });
        });
    }
    g.finish();
}

fn bench_policy_accounting(c: &mut Criterion) {
    let mut g = c.benchmark_group("precision_policy");
    let mixed = PrecisionPolicy::mixed();
    g.bench_function("cpu_bytes_mixed", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                acc = acc.wrapping_add(mixed.cpu_bytes(i << 10));
            }
            black_box(acc)
        });
    });
    let int8 = PrecisionPolicy::int8();
    g.bench_function("cpu_bytes_int8", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                acc = acc.wrapping_add(int8.cpu_bytes(i << 10));
            }
            black_box(acc)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_fake_quantize_row, bench_policy_accounting);
criterion_main!(benches);
