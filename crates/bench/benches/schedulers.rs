//! Criterion benchmarks of the system simulators themselves: how fast
//! each scheduling algorithm makes its placement decisions. The ALISA
//! scheduler does real per-step work (working-set selection, the
//! eviction walk), so its simulation cost reflects scheduling
//! complexity.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_sched::{
    AccelerateScheduler, AlisaScheduler, DeepSpeedZeroScheduler, FlexGenScheduler, InferenceSystem,
    VllmScheduler, Workload,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_systems(c: &mut Criterion) {
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    let wl = Workload::new(16, 64, 64);
    let mut g = c.benchmark_group("system_simulation");
    g.bench_function("alisa", |b| {
        let s = AlisaScheduler::new(0.8, true);
        b.iter(|| black_box(s.run(&model, &hw, &wl)));
    });
    g.bench_function("flexgen", |b| {
        let s = FlexGenScheduler::new();
        b.iter(|| black_box(s.run(&model, &hw, &wl)));
    });
    g.bench_function("vllm", |b| {
        let s = VllmScheduler;
        b.iter(|| black_box(s.run(&model, &hw, &wl)));
    });
    g.bench_function("accelerate", |b| {
        b.iter(|| black_box(AccelerateScheduler.run(&model, &hw, &wl)));
    });
    g.bench_function("deepspeed_zero", |b| {
        b.iter(|| black_box(DeepSpeedZeroScheduler.run(&model, &hw, &wl)));
    });
    g.finish();
}

fn bench_functional_decode(c: &mut Criterion) {
    use alisa_attention::policy::PolicyKind;
    use alisa_model::engine::{generate, GenerationConfig};
    use alisa_model::{InitSpec, TinyTransformer};

    let model = TinyTransformer::structured(ModelConfig::tiny_2l(), InitSpec::default());
    let prompt: Vec<usize> = (0..32).map(|i| i % 100).collect();
    let mut g = c.benchmark_group("functional_generate_16");
    for (name, kind, sp) in [
        ("dense", PolicyKind::Dense, 0.0f32),
        ("swa_80", PolicyKind::Swa, 0.8),
        ("local_80", PolicyKind::Local, 0.8),
    ] {
        g.bench_function(name, |b| {
            let cfg = GenerationConfig {
                max_new_tokens: 16,
                ..GenerationConfig::default().with_policy(kind, sp)
            };
            b.iter(|| black_box(generate(&model, &prompt, &cfg)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_systems, bench_functional_decode);
criterion_main!(benches);
