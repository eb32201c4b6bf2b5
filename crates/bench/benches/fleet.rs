//! Criterion benchmarks for the dynamic-fleet paths, end to end under
//! least-outstanding dispatch: an autoscaled diurnal run against its
//! static-fleet counterpart on the same trace, and a failure-injected
//! run paying the re-prefill recovery path.
//!
//! The committed `BENCH_fleet.json` is the regression floor and
//! `bench_check` watches it: fleet dynamics are opt-in, so the
//! `static` ids double as the guard that the feature costs nothing
//! when unused.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, FailurePlan, LoadBalancePolicy, Router, RouterConfig,
    ServeConfig, Trace,
};
use alisa_workloads::LengthModel;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn cfg() -> ServeConfig {
    ServeConfig::new(
        ModelConfig::opt_6_7b(),
        HardwareSpec::v100_16gb(),
        AdmissionPolicy::alisa(),
    )
}

/// End-to-end diurnal wave on a 4-replica fleet: `static` (all four
/// always up — the no-dynamics baseline the feature must not tax) vs
/// `autoscaled` (floor 1, ceiling 4, the full control loop with
/// drain/scale bookkeeping).
fn bench_diurnal_fleet(c: &mut Criterion) {
    let trace = Trace::generate(
        &ArrivalProcess::Diurnal {
            rate: 40.0,
            swing: 0.9,
            period_s: 24.0,
        },
        &LengthModel::alpaca().with_max_output(64),
        400,
        7,
    );
    let static_fleet = Router::new(
        RouterConfig::homogeneous(cfg(), 4).with_lb(LoadBalancePolicy::LeastOutstanding),
    );
    let autoscaled = Router::new(
        RouterConfig::homogeneous(cfg(), 4)
            .with_lb(LoadBalancePolicy::LeastOutstanding)
            .with_autoscaler(),
    );
    let mut g = c.benchmark_group("fleet_diurnal");
    g.bench_function("static", |b| {
        b.iter(|| black_box(static_fleet.run(&trace)));
    });
    g.bench_function("autoscaled", |b| {
        b.iter(|| black_box(autoscaled.run(&trace)));
    });
    g.finish();
}

/// Failure injection end to end: two kills out of eight replicas, all
/// of the dead replicas' queue and running sets re-homed through the
/// recovery path (re-prefill pricing, retention discard, the dead
/// replica's load slot set to `+∞`).
fn bench_failure_recovery(c: &mut Criterion) {
    let trace = Trace::generate(
        &ArrivalProcess::Poisson { rate: 60.0 },
        &LengthModel::alpaca().with_max_output(64),
        300,
        7,
    );
    let horizon = trace.duration();
    let router = Router::new(
        RouterConfig::homogeneous(cfg(), 8)
            .with_lb(LoadBalancePolicy::LeastOutstanding)
            .with_failures(FailurePlan::seeded(7, 2, 8, horizon)),
    );
    let mut g = c.benchmark_group("fleet_failures");
    g.bench_function("kill2_of8", |b| {
        b.iter(|| black_box(router.run(&trace)));
    });
    g.finish();
}

criterion_group!(benches, bench_diurnal_fleet, bench_failure_recovery);
criterion_main!(benches);
