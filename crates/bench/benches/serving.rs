//! Criterion benchmarks for the online serving hot path: the
//! continuous-batching engine loop (arrival dispatch + admission + step
//! pricing + metrics) and its supporting pieces (trace generation and
//! report building). These guard the new subsystem's simulation cost —
//! a serving sweep runs thousands of engine steps per policy, so step
//! cost is what bounds experiment turnaround.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{AdmissionPolicy, ArrivalProcess, ServeConfig, ServeEngine, Trace};
use alisa_workloads::LengthModel;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn trace(rate: f64, n: usize) -> Trace {
    Trace::generate(
        &ArrivalProcess::Poisson { rate },
        &LengthModel::alpaca().with_max_output(64),
        n,
        7,
    )
}

fn bench_continuous_batching(c: &mut Criterion) {
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    let t = trace(8.0, 64);
    let mut g = c.benchmark_group("serve_engine_64req");
    for policy in [
        AdmissionPolicy::alisa(),
        AdmissionPolicy::vllm(),
        AdmissionPolicy::flexgen(),
    ] {
        let engine = ServeEngine::new(ServeConfig::new(model.clone(), hw.clone(), policy));
        g.bench_function(policy.name(), |b| {
            b.iter(|| black_box(engine.run(&t)));
        });
    }
    g.finish();
}

fn bench_engine_scaling(c: &mut Criterion) {
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    let engine = ServeEngine::new(ServeConfig::new(model, hw, AdmissionPolicy::alisa()));
    let mut g = c.benchmark_group("serve_engine_scaling");
    for n in [16usize, 64, 256] {
        let t = trace(8.0, n);
        g.bench_with_input(BenchmarkId::new("alisa", n), &t, |b, t| {
            b.iter(|| black_box(engine.run(t)));
        });
    }
    g.finish();
}

fn bench_trace_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_trace");
    g.bench_function("generate_256", |b| {
        b.iter(|| black_box(trace(4.0, 256)));
    });
    let t = trace(4.0, 256);
    let text = t.to_text();
    g.bench_function("codec_round_trip_256", |b| {
        b.iter(|| black_box(Trace::from_text(&text).unwrap()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_continuous_batching,
    bench_engine_scaling,
    bench_trace_pipeline
);
criterion_main!(benches);
