//! Integration tests of the online serving subsystem: determinism down
//! to the byte, the headline ALISA-vs-vLLM goodput claim on the paper's
//! V100-16GB testbed, and request-conservation accounting.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, ClosedLoopCfg, ServeConfig, ServeEngine, Trace, TraceEntry,
};
use alisa_workloads::LengthModel;

fn v100_config(policy: AdmissionPolicy) -> ServeConfig {
    ServeConfig::new(ModelConfig::opt_6_7b(), HardwareSpec::v100_16gb(), policy)
}

fn alpaca_trace(rate: f64, n: usize, seed: u64) -> Trace {
    Trace::generate(
        &ArrivalProcess::Poisson { rate },
        &LengthModel::alpaca().with_max_output(96),
        n,
        seed,
    )
}

/// (a) Same seed ⇒ byte-identical `ServeReport`, across fresh engines
/// and regenerated traces.
#[test]
fn same_seed_produces_byte_identical_reports() {
    for policy in [
        AdmissionPolicy::alisa(),
        AdmissionPolicy::vllm(),
        AdmissionPolicy::flexgen(),
    ] {
        let run = || {
            let trace = alpaca_trace(3.0, 60, 0xA11A5);
            ServeEngine::new(v100_config(policy)).run(&trace)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "{}: reports must be equal", policy.name());
        assert_eq!(
            a.canonical_text().into_bytes(),
            b.canonical_text().into_bytes(),
            "{}: canonical reports must be byte-identical",
            policy.name()
        );
    }
    // And a different seed must actually change the report.
    let t1 = ServeEngine::new(v100_config(AdmissionPolicy::alisa())).run(&alpaca_trace(3.0, 60, 1));
    let t2 = ServeEngine::new(v100_config(AdmissionPolicy::alisa())).run(&alpaca_trace(3.0, 60, 2));
    assert_ne!(t1.canonical_text(), t2.canonical_text());
}

/// (b) ALISA admission achieves >= vLLM goodput at equal arrival rate
/// on the V100-16GB testbed — from unloaded through saturated.
#[test]
fn alisa_goodput_at_least_vllm_on_v100() {
    for seed in [11u64, 42] {
        for rate in [0.5, 2.0, 6.0, 12.0] {
            let trace = alpaca_trace(rate, 80, seed);
            let timeout = 5.0 * v100_config(AdmissionPolicy::alisa()).slo.ttft_s;
            let alisa =
                ServeEngine::new(v100_config(AdmissionPolicy::alisa()).with_queue_timeout(timeout))
                    .run(&trace);
            let vllm =
                ServeEngine::new(v100_config(AdmissionPolicy::vllm()).with_queue_timeout(timeout))
                    .run(&trace);
            assert!(
                alisa.goodput_rps >= vllm.goodput_rps,
                "seed {seed} rate {rate}: ALISA goodput {:.3} < vLLM {:.3}",
                alisa.goodput_rps,
                vllm.goodput_rps
            );
        }
    }
}

/// At saturation the win must be strict, driven by the larger
/// sparsity-budgeted batch.
#[test]
fn alisa_wins_strictly_at_saturation() {
    // Full Alpaca output lengths (n up to 512): dense vLLM reservations
    // fit only ~11 concurrent requests on a V100-16GB, so 6 req/s is
    // deep saturation for vLLM while ALISA's sparse reservations keep up.
    let trace = Trace::generate(
        &ArrivalProcess::Poisson { rate: 6.0 },
        &LengthModel::alpaca(),
        60,
        42,
    );
    let timeout = 5.0 * v100_config(AdmissionPolicy::alisa()).slo.ttft_s;
    let alisa = ServeEngine::new(v100_config(AdmissionPolicy::alisa()).with_queue_timeout(timeout))
        .run(&trace);
    let vllm = ServeEngine::new(v100_config(AdmissionPolicy::vllm()).with_queue_timeout(timeout))
        .run(&trace);
    assert!(
        alisa.goodput_rps > 1.2 * vllm.goodput_rps,
        "at 6 req/s ALISA ({:.3} req/s) must clearly beat vLLM ({:.3} req/s)",
        alisa.goodput_rps,
        vllm.goodput_rps
    );
    assert!(
        alisa.mean_batch > vllm.mean_batch,
        "the win must come from the bigger admitted batch ({:.1} vs {:.1})",
        alisa.mean_batch,
        vllm.mean_batch
    );
}

/// (c) Rejected requests are accounted: admitted + rejected = arrived,
/// with and without overload, and nothing is left in flight.
#[test]
fn request_accounting_conserves() {
    for (rate, timeout) in [(2.0, f64::INFINITY), (40.0, 1.0), (100.0, 0.25)] {
        for policy in [
            AdmissionPolicy::alisa(),
            AdmissionPolicy::vllm(),
            AdmissionPolicy::flexgen(),
        ] {
            let trace = alpaca_trace(rate, 70, 9);
            let r = ServeEngine::new(v100_config(policy).with_queue_timeout(timeout)).run(&trace);
            assert_eq!(r.arrived, 70, "{}", policy.name());
            assert_eq!(
                r.admitted + r.rejected,
                r.arrived,
                "{} at {rate} req/s: admitted {} + rejected {} != arrived {}",
                policy.name(),
                r.admitted,
                r.rejected,
                r.arrived
            );
            assert_eq!(
                r.completed,
                r.admitted,
                "{}: every admitted request must run to completion",
                policy.name()
            );
        }
    }
}

/// Saved traces replay to the exact same report as the in-memory ones.
#[test]
fn persisted_trace_replays_identically() {
    let trace = alpaca_trace(4.0, 40, 123);
    let reloaded = Trace::from_text(&trace.to_text()).expect("codec round trip");
    let engine = ServeEngine::new(v100_config(AdmissionPolicy::alisa()));
    assert_eq!(
        engine.run(&trace).canonical_text(),
        engine.run(&reloaded).canonical_text()
    );
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

/// The closed-loop fixture's engine: 24 clients with 1 s mean think
/// time in front of a vLLM V100 replica under FCFS and a 4 s timeout.
fn closed_loop_engine() -> ServeEngine {
    let cfg = v100_config(AdmissionPolicy::vllm())
        .with_queue_timeout(4.0)
        .with_closed_loop(ClosedLoopCfg {
            clients: 24,
            think_s: 1.0,
            seed: 42,
        });
    ServeEngine::new(cfg)
}

fn closed_loop_trace() -> Trace {
    Trace::generate(
        &ArrivalProcess::ClosedLoop {
            clients: 24,
            think_s: 1.0,
        },
        &LengthModel::alpaca(),
        400,
        42,
    )
}

/// Closed-loop gating pinned byte for byte: which client submits next,
/// and when, decides every later arrival time, so a change to the order
/// due clients are taken in shows up in this report.
#[test]
fn closed_loop_run_matches_golden_fixture() {
    let report = closed_loop_engine().run(&closed_loop_trace());
    assert_eq!(
        report.canonical_text(),
        golden("serve_closed_loop_seed42.txt"),
        "closed-loop canonical report drifted from the committed fixture \
         (regenerate with `cargo test --test serving -- --ignored` if intentional)"
    );
}

/// Rewrites the closed-loop fixture from the current implementation.
/// Ignored so a normal test run can never bless its own regression:
/// `cargo test --test serving -- --ignored`.
#[test]
#[ignore]
fn regenerate_closed_loop_fixture() {
    let path = format!(
        "{}/tests/golden/serve_closed_loop_seed42.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let report = closed_loop_engine().run(&closed_loop_trace());
    std::fs::write(path, report.canonical_text()).expect("write closed-loop fixture");
}

/// A request that can never fit still counts in the engine's report,
/// and its arrival still bounds the makespan, even though nothing ever
/// runs it.
#[test]
fn a_trailing_never_fit_request_is_reported() {
    let mut cfg = v100_config(AdmissionPolicy::vllm());
    cfg.model.max_context = 1 << 20;
    let trace = Trace::new(vec![
        TraceEntry::single_shot(0.0, 128, 16),
        TraceEntry::single_shot(100.0, 500_000, 500_000),
    ])
    .unwrap();
    let r = ServeEngine::new(cfg).run(&trace);
    assert_eq!(r.arrived, 2);
    assert_eq!(r.rejected, 1);
    assert_eq!(r.completed, 1);
    assert_eq!(r.makespan_s, 100.0);
}

/// A closed-loop client whose request can never fit is released like
/// any other: its later requests still arrive and run.
#[test]
fn closed_loop_client_survives_a_never_fit_request() {
    let mut cfg = v100_config(AdmissionPolicy::vllm()).with_closed_loop(ClosedLoopCfg {
        clients: 2,
        think_s: 0.5,
        seed: 3,
    });
    cfg.model.max_context = 1 << 20;
    let entries = (0..10)
        .map(|i| {
            let (prompt, output) = if i == 4 {
                (500_000, 500_000)
            } else {
                (128, 16)
            };
            TraceEntry::single_shot(i as f64 * 1e-6, prompt, output)
        })
        .collect();
    let r = ServeEngine::new(cfg).run(&Trace::new(entries).unwrap());
    assert_eq!(r.arrived, 10);
    assert_eq!(r.admitted, 9);
    assert_eq!(r.rejected, 1);
    assert_eq!(r.completed, 9);
}
