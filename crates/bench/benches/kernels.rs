//! Criterion micro-benchmarks for the functional path's token selection:
//! `PolicyKind::select`, which `TinyTransformer::decode_step` calls once
//! per layer per step, for SWA, H2O and local attention at three
//! sequence lengths. The per-row KV quantizer is timed in the `quant`
//! suite.

use alisa_attention::policy::{AttentionHistory, PolicyKind, SelectionContext};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

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

criterion_group!(benches, bench_selection);
criterion_main!(benches);
