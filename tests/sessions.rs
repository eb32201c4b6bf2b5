//! Integration tests for multi-turn sessions and cross-request prefix
//! KV reuse: legacy single-shot traces must round-trip unchanged
//! through the new session-aware parser and reproduce the pre-change
//! golden reports byte-for-byte, while session traces under sticky
//! routing + retention must actually reuse prefixes — and never serve
//! worse than the same fleet without reuse (the `fig16_multi_turn`
//! claim).

use alisa::PrecisionPolicy;
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, LoadBalancePolicy, PrefillJob, RetentionCfg, Router,
    RouterConfig, ServeConfig, ServeEngine, Trace,
};
use alisa_workloads::{LengthModel, SessionModel};

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

fn v100_cfg(policy: AdmissionPolicy) -> ServeConfig {
    ServeConfig::new(ModelConfig::opt_6_7b(), HardwareSpec::v100_16gb(), policy)
}

fn legacy_trace(seed: u64) -> Trace {
    Trace::generate(
        &ArrivalProcess::Poisson { rate: 6.0 },
        &LengthModel::alpaca().with_max_output(48),
        50,
        seed,
    )
}

fn chat_trace(rate: f64, sessions: usize, seed: u64) -> Trace {
    Trace::generate_sessions(
        &ArrivalProcess::Poisson { rate },
        &SessionModel::chat().with_max_turns(5),
        sessions,
        seed,
    )
}

/// A legacy single-shot trace parses as 1-turn sessions, re-emits
/// byte-identical v1 text, and — run through the session-aware engine —
/// still reproduces the pre-session golden fixtures byte-for-byte.
#[test]
fn legacy_traces_round_trip_and_reproduce_golden_reports() {
    for seed in [7u64, 42] {
        let trace = legacy_trace(seed);
        assert!(!trace.has_sessions());
        let text = trace.to_text();
        let reparsed = Trace::from_text(&text).unwrap();
        assert_eq!(trace, reparsed, "seed {seed}: parser must not alter");
        assert_eq!(text, reparsed.to_text(), "seed {seed}: text is stable");
        for (precision, fixture) in [
            (
                PrecisionPolicy::fp16(),
                format!("serve_fp16_seed{seed}.txt"),
            ),
            (
                PrecisionPolicy::int8(),
                format!("serve_int8_seed{seed}.txt"),
            ),
        ] {
            let cfg = v100_cfg(AdmissionPolicy::Alisa {
                sparsity: 0.8,
                precision,
            });
            let report = ServeEngine::new(cfg).run(&reparsed);
            assert_eq!(
                report.canonical_text(),
                golden(&fixture),
                "seed {seed}: legacy trace through the new parser diverged from {fixture}"
            );
            assert!(report.reuse.is_none(), "no retention => no reuse block");
        }
    }
}

/// Prefix reuse engages on a session trace: turns whose prefix KV is
/// retained skip its prefill, and the engine reports the hits.
#[test]
fn session_reuse_hits_and_skips_prefill_work() {
    let trace = chat_trace(0.5, 20, 11);
    assert!(trace.has_sessions());
    assert!(trace.len() > 20, "multi-turn sessions expand the trace");
    let base = v100_cfg(AdmissionPolicy::alisa());
    let with = ServeEngine::new(base.clone().with_session_reuse(RetentionCfg::half()));
    let report = with.run(&trace);
    let reuse = report.reuse.expect("retention enabled => stats present");
    assert!(reuse.hits > 0, "follow-up turns must hit retained prefixes");
    assert!(reuse.reused_tokens > 0);
    assert!(reuse.retained >= reuse.hits);
    // Requests carry the per-turn reuse attribution in the report's
    // canonical text only when retention ran.
    assert!(report.canonical_text().contains("reuse hits="));
}

/// The fig16 claim at engine level: same trace, same policy — the
/// retention run's goodput and mean TTFT are never worse than the
/// no-reuse run's.
#[test]
fn reuse_never_hurts_goodput_or_ttft() {
    for (rate, seed) in [(0.3, 3u64), (0.8, 5), (1.5, 9)] {
        let trace = chat_trace(rate, 24, seed);
        let base = v100_cfg(AdmissionPolicy::alisa());
        let without = ServeEngine::new(base.clone()).run(&trace);
        let with = ServeEngine::new(base.with_session_reuse(RetentionCfg::half())).run(&trace);
        assert!(
            with.goodput_rps + 1e-12 >= without.goodput_rps,
            "rate {rate} seed {seed}: reuse goodput {} < no-reuse {}",
            with.goodput_rps,
            without.goodput_rps
        );
        assert!(
            with.ttft.mean <= without.ttft.mean + 1e-12,
            "rate {rate} seed {seed}: reuse mean TTFT {} > no-reuse {}",
            with.ttft.mean,
            without.ttft.mean
        );
    }
}

/// Reuse pricing: a prefill that reuses most of its prompt must cost
/// well under the full prefill, but still more than the bare suffix
/// (the cross-attention over the retained sparse prefix is charged).
#[test]
fn reuse_prefill_pricing_is_between_suffix_and_full() {
    let engine = ServeEngine::new(v100_cfg(AdmissionPolicy::alisa()));
    let full = engine.step_time(&[PrefillJob::full(512)], &[]);
    let suffix_only = engine.step_time(&[PrefillJob::full(64)], &[]);
    let reused = engine.step_time(
        &[PrefillJob {
            prompt_len: 512,
            reused_prefix: 448,
        }],
        &[],
    );
    assert!(
        reused < full,
        "reusing 448/512 tokens must beat a full prefill: {reused} vs {full}"
    );
    assert!(
        reused > suffix_only,
        "context attention over the retained prefix must be charged: {reused} vs {suffix_only}"
    );
}

/// Retained bytes respect retention's share of the KV budget.
#[test]
fn retention_respects_its_budget_fraction() {
    let trace = chat_trace(2.0, 30, 13);
    let cfg = v100_cfg(AdmissionPolicy::alisa()).with_session_reuse(RetentionCfg::half());
    let engine = ServeEngine::new(cfg);
    let report = engine.run(&trace);
    let reuse = report.reuse.unwrap();
    let cap = (engine.kv_budget() as f64 * RetentionCfg::BUDGET_SHARE) as u64;
    assert!(
        reuse.peak_retained_bytes <= cap,
        "retained peak {} exceeds cap {cap}",
        reuse.peak_retained_bytes
    );
    assert!(reuse.peak_retained_bytes > 0, "something must be retained");
}

/// Sticky routing keyed on real session ids sends every turn of a
/// session to the replica that retained its prefix — so a sticky fleet
/// sees (almost) every follow-up turn hit, while round-robin scatters
/// turns away from their retained prefixes and hits strictly less.
#[test]
fn sticky_affinity_feeds_reuse_round_robin_starves_it() {
    let trace = chat_trace(1.0, 24, 17);
    let replica = v100_cfg(AdmissionPolicy::alisa()).with_session_reuse(RetentionCfg::half());
    let run = |lb: LoadBalancePolicy| {
        Router::new(RouterConfig::homogeneous(replica.clone(), 3).with_lb(lb))
            .run(&trace)
            .fleet
            .reuse
            .expect("retention on")
    };
    let sticky = run(LoadBalancePolicy::sticky());
    let rr = run(LoadBalancePolicy::RoundRobin);
    assert!(sticky.hits > 0);
    assert!(
        sticky.hits > rr.hits,
        "sticky ({}) must out-hit round-robin ({})",
        sticky.hits,
        rr.hits
    );
}

/// A 1-replica fleet with retention reproduces the retention-enabled
/// single engine byte-for-byte — the reuse logic cannot drift between
/// the two implementations.
#[test]
fn single_replica_router_matches_engine_under_retention() {
    let trace = chat_trace(1.2, 20, 23);
    let cfg = v100_cfg(AdmissionPolicy::alisa()).with_session_reuse(RetentionCfg::half());
    let engine_report = ServeEngine::new(cfg.clone()).run(&trace);
    let router_report = Router::new(RouterConfig::homogeneous(cfg, 1)).run(&trace);
    assert_eq!(
        engine_report.canonical_text().into_bytes(),
        router_report.replicas[0].canonical_text().into_bytes(),
        "1-replica fleet with retention must equal the plain engine"
    );
}

/// Session runs are deterministic per seed, byte-for-byte, and the
/// seed matters.
#[test]
fn session_serving_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let trace = chat_trace(1.0, 18, seed);
        let replica = v100_cfg(AdmissionPolicy::alisa()).with_session_reuse(RetentionCfg::half());
        Router::new(RouterConfig::homogeneous(replica, 2).with_lb(LoadBalancePolicy::sticky()))
            .run(&trace)
            .canonical_text()
    };
    assert_eq!(run(0xBEEF).into_bytes(), run(0xBEEF).into_bytes());
    assert_ne!(run(1), run(2));
}

/// Legacy behaviour of the folded sticky policy is unchanged: single-
/// shot entries still key on their trace index modulo the bucket count.
#[test]
fn folded_sticky_still_pins_legacy_traces_to_one_replica() {
    let trace = legacy_trace(5);
    let router = Router::new(
        RouterConfig::homogeneous(v100_cfg(AdmissionPolicy::alisa()), 4)
            .with_lb(LoadBalancePolicy::Sticky { sessions: 1 }),
    );
    let r = router.run(&trace);
    let non_empty = r.replicas.iter().filter(|x| x.arrived > 0).count();
    assert_eq!(non_empty, 1, "one folded session => one replica");
}
