//! Criterion benchmarks for the fleet dispatch hot path: the
//! per-request replica selection (an incrementally-maintained index
//! against the linear scan it replaced), the indexed select+re-key
//! cycle (the full bookkeeping cost a dispatch pays), and an
//! end-to-end 512-replica router run with the gated queue scan and
//! with the ungated one.
//!
//! The acceptance gate lives in `router_dispatch`: at 512 replicas the
//! `indexed` id must be ≥10× faster than the `reference` id — the
//! committed `BENCH_router.json` is the evidence, and `bench_check`
//! keeps both from regressing.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, DispatchIndex, Router, RouterConfig, ServeConfig, Trace,
};
use alisa_workloads::LengthModel;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const FLEET_SIZES: [usize; 3] = [8, 64, 512];

/// Synthetic per-replica outstanding counts: varied, no ties at the
/// minimum, minimum nowhere near index 0 — the scan can't shortcut.
fn loads(n: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 37 + 11) % 97 + 1).collect()
}

fn seeded_index(outstanding: &[usize]) -> DispatchIndex {
    let n = outstanding.len();
    let mut ix = DispatchIndex::new(vec![0; n], 1);
    for (i, &o) in outstanding.iter().enumerate() {
        ix.update(i, o as f64);
    }
    ix
}

/// The per-request selection: the reference is the router's
/// `LeastOutstanding` pick (a full `min_by_key` scan over the tier), the
/// indexed path is one leftmost B-tree descent through the same
/// eligibility filter the dispatcher applies.
fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("router_dispatch");
    for n in FLEET_SIZES {
        let outstanding = loads(n);
        let tier: Vec<usize> = (0..n).collect();
        let exclude = black_box(Some(n + 1));
        g.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    tier.iter()
                        .copied()
                        .filter(|&i| Some(i) != exclude)
                        .min_by_key(|&i| (outstanding[i], i)),
                )
            });
        });
        let ix = seeded_index(&outstanding);
        g.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| black_box(ix.least(0, |i| Some(i) != exclude)));
        });
    }
    g.finish();
}

/// The full indexed per-dispatch cycle — select, then re-key the chosen
/// replica's load signal (what the router pays after an enqueue). This
/// is the honest amortized cost to compare against the scan.
fn bench_dispatch_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("router_dispatch_update");
    for n in FLEET_SIZES {
        let outstanding = loads(n);
        let mut ix = seeded_index(&outstanding);
        g.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            let mut bump = 0usize;
            b.iter(|| {
                let picked = ix.least(0, |_| true).expect("non-empty tier");
                bump += 1;
                ix.update(picked, (outstanding[picked] + bump % 7) as f64);
                black_box(picked)
            });
        });
    }
    g.finish();
}

/// End-to-end: one 512-replica fleet serving the same trace with each
/// replica's rejection scan gated (`indexed`) and run on every step
/// (`reference`, `with_reference_paths(true)`). The fleet is
/// round-robin, which builds no `DispatchIndex` on either side, so the
/// pair prices the gated queue scan against the ungated one.
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

criterion_group!(
    benches,
    bench_dispatch,
    bench_dispatch_update,
    bench_fleet_512
);
criterion_main!(benches);
