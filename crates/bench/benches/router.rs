//! Criterion benchmark of a wide fleet end to end: one 512-replica
//! round-robin router run with each replica's queue scan gated
//! (`indexed`) and run on every step (`reference`).
//!
//! The committed `BENCH_router.json` is the regression floor and
//! `bench_check` watches it. Least-* dispatch, which picks from a flat
//! array of load slots, is timed end to end by the fleet suite and by
//! the `fleet_512` workload of `perfbench`.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{AdmissionPolicy, ArrivalProcess, Router, RouterConfig, ServeConfig, Trace};
use alisa_workloads::LengthModel;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// End-to-end: one 512-replica fleet serving the same trace with each
/// replica's rejection scan gated (`indexed`) and run on every step
/// (`reference`, `with_reference_paths(true)`): the pair prices the
/// gated queue scan against the ungated one.
fn bench_fleet_512(c: &mut Criterion) {
    let trace = Trace::generate(
        &ArrivalProcess::Poisson { rate: 40.0 },
        &LengthModel::alpaca().with_max_output(48),
        150,
        7,
    );
    let cfg = || {
        RouterConfig::homogeneous(
            ServeConfig::new(
                ModelConfig::opt_6_7b(),
                HardwareSpec::v100_16gb(),
                AdmissionPolicy::alisa(),
            ),
            512,
        )
    };
    let indexed = Router::new(cfg());
    let reference = Router::new(cfg()).with_reference_paths(true);
    let mut g = c.benchmark_group("router_fleet_512");
    g.bench_function("indexed", |b| {
        b.iter(|| black_box(indexed.run(&trace)));
    });
    g.bench_function("reference", |b| {
        b.iter(|| black_box(reference.run(&trace)));
    });
    g.finish();
}

criterion_group!(benches, bench_fleet_512);
criterion_main!(benches);
