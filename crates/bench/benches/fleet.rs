//! Criterion benchmarks for the dynamic-fleet paths PR 9 added: the
//! `DispatchIndex` membership churn an autoscaler causes (insert on
//! scale-up, remove on drain/failure, re-key every dispatch), the
//! end-to-end autoscaled diurnal run against its static-fleet
//! counterpart on the same trace, and a failure-injected run paying
//! the re-prefill recovery path.
//!
//! The committed `BENCH_fleet.json` is the regression floor and
//! `bench_check` watches it: fleet dynamics are opt-in, so the
//! `static` ids double as the guard that the feature costs nothing
//! when unused.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, DispatchIndex, FailurePlan, LoadBalancePolicy, Router,
    RouterConfig, ServeConfig, Trace,
};
use alisa_workloads::LengthModel;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn cfg() -> ServeConfig {
    ServeConfig::new(
        ModelConfig::opt_6_7b(),
        HardwareSpec::v100_16gb(),
        AdmissionPolicy::alisa(),
    )
}

/// Membership churn: one scale-down + scale-up + re-key + pick cycle,
/// the per-tick work an autoscaler or failure injector adds on top of
/// the static index. Swept across fleet sizes.
fn bench_index_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_index_churn");
    for n in [8usize, 64, 512] {
        let mut ix = DispatchIndex::new(vec![0; n], 1);
        for i in 0..n {
            ix.update(i, ((i * 37 + 11) % 97) as f64);
        }
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut turn = 0usize;
            b.iter(|| {
                let r = turn % n;
                turn += 1;
                ix.remove(r);
                let picked = ix.least(0, |_| true);
                ix.insert(r);
                ix.update(r, ((turn * 29) % 89) as f64);
                black_box(picked)
            });
        });
    }
    g.finish();
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
/// recovery path (re-prefill pricing, retention discard, index
/// removal).
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

criterion_group!(
    benches,
    bench_index_churn,
    bench_diurnal_fleet,
    bench_failure_recovery
);
criterion_main!(benches);
