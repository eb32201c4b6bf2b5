//! Integration tests of the multi-replica router: byte-level
//! determinism per load-balancing policy, request conservation across
//! the fleet, single-replica equivalence with the plain engine, the
//! scaling/disaggregation behaviour `fig14_multi_replica` gates on,
//! digests pinning the reports of 64-, 256- and 512-replica fleets
//! (`tests/golden/router_wide_digests.txt`), and the `(time, replica)`
//! order of the fleet timeline.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, ClosedLoopCfg, EventKind, FailurePlan, LoadBalancePolicy,
    MemorySink, Router, RouterConfig, RouterReport, ServeConfig, ServeEngine, ServeSample, Trace,
    TraceEntry,
};
use alisa_workloads::LengthModel;

fn replica_cfg(policy: AdmissionPolicy) -> ServeConfig {
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

const ALL_LBS: [LoadBalancePolicy; 4] = [
    LoadBalancePolicy::RoundRobin,
    LoadBalancePolicy::LeastOutstanding,
    LoadBalancePolicy::LeastKvPressure,
    LoadBalancePolicy::Sticky { sessions: 8 },
];

/// Byte-identical `RouterReport`s (hence `ServeReport`s, fleet and
/// per-replica) across runs at a fixed seed, for every load-balancing
/// policy — with and without requeue and disaggregation.
#[test]
fn router_reports_are_byte_identical_per_seed() {
    for lb in ALL_LBS {
        for (requeue, disagg) in [(false, false), (true, false), (false, true)] {
            let run = || {
                let trace = alpaca_trace(5.0, 60, 0x5EED);
                let mut cfg =
                    RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 3).with_lb(lb);
                if requeue {
                    cfg = cfg.with_requeue();
                }
                if disagg {
                    cfg = cfg.with_disagg(1);
                }
                Router::new(cfg).run(&trace)
            };
            let (a, b) = (run(), run());
            assert_eq!(
                a,
                b,
                "{} requeue={requeue} disagg={disagg}: reports must be equal",
                lb.name()
            );
            assert_eq!(
                a.canonical_text().into_bytes(),
                b.canonical_text().into_bytes(),
                "{} requeue={requeue} disagg={disagg}: canonical text must be byte-identical",
                lb.name()
            );
        }
        // A different seed must actually change the outcome.
        let r1 = Router::new(
            RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 3).with_lb(lb),
        )
        .run(&alpaca_trace(5.0, 60, 1));
        let r2 = Router::new(
            RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 3).with_lb(lb),
        )
        .run(&alpaca_trace(5.0, 60, 2));
        assert_ne!(r1.canonical_text(), r2.canonical_text(), "{}", lb.name());
    }
}

/// The paths that publish events from inside replica steps — timeout
/// bounces onto the re-queue heap and prefill→decode handoffs — leave a
/// same-seed 4-replica fleet byte-identical, for every load-balancing
/// policy.
#[test]
fn step_event_paths_are_byte_identical_per_seed() {
    let run = |lb: LoadBalancePolicy, requeue: bool, disagg: bool, timeout: f64| -> String {
        let trace = alpaca_trace(9.0, 60, 0xF1EE7);
        let base = replica_cfg(AdmissionPolicy::alisa()).with_queue_timeout(timeout);
        let mut cfg = RouterConfig::homogeneous(base, 4).with_lb(lb);
        if requeue {
            cfg = cfg.with_requeue();
        }
        if disagg {
            cfg = cfg.with_disagg(2);
        }
        Router::new(cfg).run(&trace).canonical_text()
    };
    for lb in ALL_LBS {
        for (requeue, disagg, timeout) in [
            (false, false, f64::INFINITY),
            (true, false, 1.5),
            (true, true, f64::INFINITY),
        ] {
            assert_eq!(
                run(lb, requeue, disagg, timeout).as_bytes(),
                run(lb, requeue, disagg, timeout).as_bytes(),
                "{} requeue={requeue} disagg={disagg} timeout={timeout}",
                lb.name()
            );
        }
    }
}

/// Invariant: total admitted + rejected across replicas equals the
/// offered load, for every policy, under light load and overload, with
/// and without requeue/disaggregation.
#[test]
fn fleet_admission_accounting_conserves_offered_load() {
    for lb in ALL_LBS {
        for (rate, timeout) in [(2.0, f64::INFINITY), (50.0, 1.0)] {
            for (requeue, disagg) in [(false, false), (true, false), (true, true)] {
                let trace = alpaca_trace(rate, 70, 7);
                let base = replica_cfg(AdmissionPolicy::vllm()).with_queue_timeout(timeout);
                let mut cfg = RouterConfig::homogeneous(base, 3).with_lb(lb);
                if requeue {
                    cfg = cfg.with_requeue();
                }
                if disagg {
                    cfg = cfg.with_disagg(1);
                }
                let r = Router::new(cfg).run(&trace);
                let ctx = format!(
                    "{} rate={rate} requeue={requeue} disagg={disagg}",
                    lb.name()
                );
                assert_eq!(r.fleet.arrived, 70, "{ctx}");
                assert_eq!(
                    r.fleet.admitted + r.fleet.rejected,
                    r.fleet.arrived,
                    "{ctx}: admitted {} + rejected {} != offered {}",
                    r.fleet.admitted,
                    r.fleet.rejected,
                    r.fleet.arrived
                );
                assert_eq!(
                    r.fleet.completed, r.fleet.admitted,
                    "{ctx}: every admitted request must finish"
                );
                // Per-replica accounting also conserves: each replica's
                // own report balances, and their populations sum to at
                // most the fleet's (router-level rejects have no home).
                let mut total = 0;
                for (i, rep) in r.replicas.iter().enumerate() {
                    assert_eq!(
                        rep.admitted + rep.rejected,
                        rep.arrived,
                        "{ctx}: replica {i} accounting"
                    );
                    total += rep.arrived;
                }
                assert!(total <= r.fleet.arrived, "{ctx}");
            }
        }
    }
}

/// A 1-replica fleet is the single engine: same trace, byte-identical
/// replica report — the router adds routing, not new step semantics.
#[test]
fn single_replica_router_matches_plain_engine() {
    for policy in [
        AdmissionPolicy::alisa(),
        AdmissionPolicy::vllm(),
        AdmissionPolicy::flexgen(),
    ] {
        let trace = alpaca_trace(4.0, 50, 99);
        let engine_report = ServeEngine::new(replica_cfg(policy)).run(&trace);
        let router_report =
            Router::new(RouterConfig::homogeneous(replica_cfg(policy), 1)).run(&trace);
        assert_eq!(
            engine_report.canonical_text().into_bytes(),
            router_report.replicas[0].canonical_text().into_bytes(),
            "{}: 1-replica fleet must reproduce the engine byte-for-byte",
            policy.name()
        );
    }
}

/// Goodput never degrades as replicas are added at a fixed offered
/// rate, and ALISA keeps its per-replica advantage over vLLM at fleet
/// scale — the two properties `fig14_multi_replica` gates on.
#[test]
fn scaling_up_helps_and_alisa_keeps_winning() {
    let trace = alpaca_trace(8.0, 70, 42);
    for policy in [AdmissionPolicy::alisa(), AdmissionPolicy::vllm()] {
        let mut last = 0.0;
        for n in [1usize, 2, 4] {
            let r = Router::new(RouterConfig::homogeneous(replica_cfg(policy), n)).run(&trace);
            assert!(
                r.fleet.goodput_rps + 1e-12 >= last,
                "{} at {n} replicas: goodput {} dropped below {last}",
                policy.name(),
                r.fleet.goodput_rps
            );
            last = r.fleet.goodput_rps;
        }
    }
    for n in [1usize, 2, 4] {
        let alisa = Router::new(RouterConfig::homogeneous(
            replica_cfg(AdmissionPolicy::alisa()),
            n,
        ))
        .run(&trace);
        let vllm = Router::new(RouterConfig::homogeneous(
            replica_cfg(AdmissionPolicy::vllm()),
            n,
        ))
        .run(&trace);
        assert!(
            alisa.fleet.goodput_rps >= vllm.fleet.goodput_rps,
            "{n} replicas: ALISA {} < vLLM {}",
            alisa.fleet.goodput_rps,
            vllm.fleet.goodput_rps
        );
    }
}

/// The hardest step paths: an overloaded fleet running preemptive-SJF
/// with session-KV retention and requeue, where steps preempt,
/// re-queue, retain, and bounce — still byte-identical per seed.
#[test]
fn preemptive_retention_fleet_is_byte_identical_per_seed() {
    use alisa_serve::{QueueDiscipline, RetentionCfg};
    let run = || -> String {
        let trace = Trace::generate(
            &ArrivalProcess::Poisson { rate: 20.0 },
            &LengthModel::heavy_tailed(),
            80,
            42,
        );
        let base = replica_cfg(AdmissionPolicy::alisa())
            .with_discipline(
                QueueDiscipline::preemptive_sjf()
                    .with_aging(5.0)
                    .with_patience(0.1),
            )
            .with_queue_timeout(2.0)
            .with_session_reuse(RetentionCfg::half());
        let cfg = RouterConfig::homogeneous(base, 3)
            .with_lb(LoadBalancePolicy::LeastOutstanding)
            .with_requeue();
        Router::new(cfg).run(&trace).canonical_text()
    };
    assert_eq!(run().as_bytes(), run().as_bytes());
}

/// The six 512-replica fleets the indexed/reference check runs and
/// `tests/golden/router_wide_digests.txt` pins, each with its name: the
/// two indexed policies plus round-robin, unified and with a 128-replica
/// prefill tier.
fn wide_512_configs() -> Vec<(String, RouterConfig)> {
    let mut runs = Vec::new();
    for lb in [
        LoadBalancePolicy::RoundRobin,
        LoadBalancePolicy::LeastOutstanding,
        LoadBalancePolicy::LeastKvPressure,
    ] {
        for disagg in [false, true] {
            let mut cfg =
                RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 512).with_lb(lb);
            let mut name = format!("512x-{}", lb.name());
            if disagg {
                cfg = cfg.with_disagg(128);
                name.push_str("-disagg128");
            }
            runs.push((name, cfg));
        }
    }
    runs
}

/// The trace every 512-replica fleet above serves.
fn wide_512_trace() -> Trace {
    alpaca_trace(40.0, 300, 0xA11A)
}

/// A 64-replica fleet alternating V100-16GB and H100-80GB replicas
/// under least-KV-pressure dispatch, and the trace it serves.
fn mixed_fleet() -> (Router, Trace) {
    let replicas = (0..64)
        .map(|i| {
            let hw = if i % 2 == 0 {
                HardwareSpec::v100_16gb()
            } else {
                HardwareSpec::h100_80gb()
            };
            ServeConfig::new(ModelConfig::opt_6_7b(), hw, AdmissionPolicy::alisa())
        })
        .collect();
    let router = Router::new(
        RouterConfig::heterogeneous(replicas).with_lb(LoadBalancePolicy::LeastKvPressure),
    );
    (router, alpaca_trace(160.0, 1500, 0x64))
}

/// The name of the mixed-hardware fleet's line in the digest fixture.
const MIXED_FLEET: &str = "64x-v100+h100-least-kv";

/// Two more wide fleets, each with its name and trace: 256 replicas
/// under least-KV-pressure dispatch with the autoscaler, seeded kills
/// and re-queue, serving diurnal waves (scale-ups, drains and kills
/// at width), and 512 replicas serving heavy-tailed traffic, whose
/// stragglers run long past the rest of the fleet.
fn wide_dynamic_and_straggler_fleets() -> Vec<(&'static str, Router, Trace)> {
    let waves = Trace::generate(
        &ArrivalProcess::Diurnal {
            rate: 40.0,
            swing: 0.9,
            period_s: 10.0,
        },
        &LengthModel::alpaca().with_max_output(96),
        1600,
        0x256,
    );
    let dynamic = RouterConfig::homogeneous(
        replica_cfg(AdmissionPolicy::alisa()).with_queue_timeout(1.0),
        256,
    )
    .with_lb(LoadBalancePolicy::LeastKvPressure)
    .with_requeue()
    .with_autoscaler()
    .with_failures(FailurePlan::seeded(0x256, 64, 256, waves.duration()));
    let heavy = Trace::generate(
        &ArrivalProcess::Poisson { rate: 80.0 },
        &LengthModel::heavy_tailed(),
        600,
        0x4EA7,
    );
    let stragglers = RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 512)
        .with_lb(LoadBalancePolicy::LeastOutstanding);
    vec![
        (
            "256x-least-kv-autoscale-kills-requeue",
            Router::new(dynamic),
            waves,
        ),
        (
            "512x-least-outstanding-heavy-tailed",
            Router::new(stragglers),
            heavy,
        ),
    ]
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A digest line: the run's name, the length of its report's canonical
/// text, and the text's FNV-1a-64 hash.
fn digest_line(name: &str, report: &RouterReport) -> String {
    let text = report.canonical_text();
    format!("{name} {} {:016x}", text.len(), fnv1a64(text.as_bytes()))
}

/// The committed digest line of run `name`.
fn golden_digest(name: &str) -> String {
    let path = format!(
        "{}/tests/golden/router_wide_digests.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"));
    text.lines()
        .find(|l| l.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("{path} has no line for {name}"))
        .to_string()
}

/// Fleet-scale smoke: a 512-replica fleet dispatches through the
/// incremental `DispatchIndex` and still matches the linear-scan
/// reference byte-for-byte, for the two indexed policies plus
/// round-robin, under both unified and disaggregated tiers. This is the
/// scale point the `router` criterion bench gates (≥10× over the
/// reference scan); here both runs must also match the committed digest
/// of the report, which the golden fixtures, at four replicas and
/// fewer, cannot stand in for.
#[test]
fn indexed_dispatch_matches_reference_at_512_replicas() {
    let trace = wide_512_trace();
    for (name, cfg) in wide_512_configs() {
        let indexed = Router::new(cfg.clone()).run(&trace);
        let reference = Router::new(cfg).with_reference_paths(true).run(&trace);
        assert_eq!(
            indexed.canonical_text().into_bytes(),
            reference.canonical_text().into_bytes(),
            "{name}: 512-replica indexed dispatch must reproduce the reference scan byte-for-byte"
        );
        assert_eq!(
            digest_line(&name, &indexed),
            golden_digest(&name),
            "{name}: report drifted from the committed digest \
             (regenerate with `cargo test --test multi_replica -- --ignored` if intentional)"
        );
    }
}

/// The fleet timeline is every replica's timeline, concatenated and
/// stable-sorted by `(t, replica)`: time order, ties to the lower
/// replica, and one replica's samples in their own order.
fn assert_timeline_is_time_then_replica_order(report: &RouterReport) {
    let mut expected: Vec<(usize, ServeSample)> = (report.replicas.iter().enumerate())
        .flat_map(|(i, r)| r.timeline.iter().map(move |&s| (i, s)))
        .collect();
    expected.sort_by(|a, b| a.1.t.total_cmp(&b.1.t).then_with(|| a.0.cmp(&b.0)));
    let expected: Vec<ServeSample> = expected.into_iter().map(|(_, s)| s).collect();
    assert!(
        report.fleet.timeline == expected,
        "the fleet timeline is not the replicas' timelines in (t, replica) order"
    );
}

/// A heterogeneous 64-replica fleet: its report matches the committed
/// digest, and its fleet timeline interleaves the replicas' timelines
/// in `(t, replica)` order.
#[test]
fn mixed_hardware_fleet_matches_digest_and_merges_timelines() {
    let (router, trace) = mixed_fleet();
    let report = router.run(&trace);
    assert_eq!(
        digest_line(MIXED_FLEET, &report),
        golden_digest(MIXED_FLEET),
        "report drifted from the committed digest \
         (regenerate with `cargo test --test multi_replica -- --ignored` if intentional)"
    );
    assert_timeline_is_time_then_replica_order(&report);
}

/// The dynamic and the straggler fleet match their committed digests,
/// the dynamic one scales up, drains and re-homes work from killed
/// replicas, and both fleet timelines are in `(t, replica)` order.
#[test]
fn dynamic_and_straggler_wide_fleets_match_digests() {
    for (name, router, trace) in wide_dynamic_and_straggler_fleets() {
        let report = router.run(&trace);
        assert_eq!(
            digest_line(name, &report),
            golden_digest(name),
            "{name}: report drifted from the committed digest \
             (regenerate with `cargo test --test multi_replica -- --ignored` if intentional)"
        );
        if let Some(d) = report.dynamics {
            assert!(
                d.scale_ups > 0 && d.drains > 0 && d.recovered > 0,
                "{name}: {d:?}"
            );
        }
        assert_timeline_is_time_then_replica_order(&report);
    }
}

/// Samples from two replicas at exactly the same time merge lower
/// replica first. Two identical replicas under round-robin take the
/// two requests of each simultaneous pair, one each. The pair shares
/// its prompt, so both replicas price the same steps and sample at the
/// same instants; its output lengths differ, so the two replicas book
/// different KV and tied samples are told apart by `kv_bytes`.
#[test]
fn tied_samples_merge_lower_replica_first() {
    let entries = (0..6)
        .flat_map(|k| {
            let at = 5.0 * k as f64;
            [
                TraceEntry::single_shot(at, 128, 8),
                TraceEntry::single_shot(at, 128, 24),
            ]
        })
        .collect();
    let trace = Trace::new(entries).expect("valid trace");
    let report = Router::new(RouterConfig::homogeneous(
        replica_cfg(AdmissionPolicy::alisa()),
        2,
    ))
    .run(&trace);
    let tl = &report.fleet.timeline;
    let ties = (tl.windows(2))
        .filter(|w| w[0].t == w[1].t && w[0] != w[1])
        .count();
    assert!(
        ties > 0,
        "the pairs must yield distinguishable tied samples"
    );
    assert_timeline_is_time_then_replica_order(&report);
}

/// Rewrites `tests/golden/router_wide_digests.txt` from the current
/// implementation. Ignored so a normal test run can never bless its own
/// regression; run explicitly after an intentional output change:
/// `cargo test --test multi_replica -- --ignored`.
#[test]
#[ignore]
fn regenerate_wide_digests() {
    let mut lines = String::from(
        "# run, canonical_text() length, FNV-1a-64 of canonical_text(); \
         regenerate with `cargo test --test multi_replica -- --ignored`\n",
    );
    let trace = wide_512_trace();
    for (name, cfg) in wide_512_configs() {
        lines.push_str(&digest_line(&name, &Router::new(cfg).run(&trace)));
        lines.push('\n');
    }
    let (router, trace) = mixed_fleet();
    lines.push_str(&digest_line(MIXED_FLEET, &router.run(&trace)));
    lines.push('\n');
    for (name, router, trace) in wide_dynamic_and_straggler_fleets() {
        lines.push_str(&digest_line(name, &router.run(&trace)));
        lines.push('\n');
    }
    let path = format!(
        "{}/tests/golden/router_wide_digests.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::write(path, lines).expect("write digest fixture");
}

/// Disaggregated fleets hand every multi-token prompt off exactly once,
/// and the handoff count shows up in the report.
#[test]
fn disaggregation_accounting() {
    let trace = alpaca_trace(3.0, 40, 5);
    let r = Router::new(
        RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 3)
            .with_disagg(1)
            .with_lb(LoadBalancePolicy::LeastKvPressure),
    )
    .run(&trace);
    assert_eq!(r.prefill_replicas, 1);
    assert_eq!(
        r.handoffs, r.fleet.admitted,
        "every admitted multi-token request is handed off exactly once"
    );
    assert_eq!(r.fleet.completed, r.fleet.admitted);
    assert_eq!(r.replicas[0].completed, 0, "prefill tier never finishes");
}

/// Closed-loop clients work behind the router: a 2-replica fleet never
/// has more requests in flight than it has clients — counted from its
/// event stream as arrivals minus terminal events — and conserves
/// requests.
#[test]
fn closed_loop_fleet_bounds_in_flight_and_conserves() {
    let clients = 6;
    let cfg = replica_cfg(AdmissionPolicy::alisa()).with_closed_loop(ClosedLoopCfg {
        clients,
        think_s: 0.5,
        seed: 11,
    });
    let router =
        Router::new(RouterConfig::homogeneous(cfg, 2).with_lb(LoadBalancePolicy::LeastOutstanding));
    let trace = Trace::generate(
        &ArrivalProcess::ClosedLoop {
            clients,
            think_s: 0.5,
        },
        &LengthModel::alpaca().with_max_output(48),
        120,
        11,
    );
    let mut sink = MemorySink::new();
    let r = router.run_traced(&trace, &mut sink);
    let (mut in_flight, mut peak) = (0usize, 0usize);
    for ev in sink.events() {
        match ev.kind {
            EventKind::Arrival { .. } => {
                in_flight += 1;
                peak = peak.max(in_flight);
            }
            EventKind::Finished { .. } | EventKind::Rejected { .. } => in_flight -= 1,
            _ => {}
        }
    }
    assert!(
        peak <= clients,
        "{peak} requests in flight > {clients} clients"
    );
    assert!(peak > 1, "the clients must overlap");
    assert_eq!(in_flight, 0, "every arrival reaches a terminal state");
    assert_eq!(r.fleet.arrived, 120);
    assert_eq!(r.fleet.admitted + r.fleet.rejected, r.fleet.arrived);
    assert_eq!(r.fleet.completed, r.fleet.admitted);
    assert!(
        r.replicas.iter().all(|x| x.arrived > 0),
        "both replicas serve the clients"
    );
}
