//! Integration tests of the observability layer (`alisa-obs` threaded
//! through `alisa-serve`): decision-trace event streams must *reconcile
//! exactly* with the `ServeReport` the same run produces, tracing must
//! be invisible when disabled, and the canonical report text must name
//! every field of the report. The invariants pinned here:
//!
//! * `run()` and `run_traced(.., &mut NullSink)` are the same run —
//!   tracing off leaves the report byte-identical and adds no metrics
//!   section;
//! * same seed ⇒ byte-identical JSONL event stream, and every line of
//!   it re-parses through `Event::from_json` (the schema check CI runs
//!   via `trace_check`);
//! * arrival/admission/rejection/preemption/finish counters derived
//!   from the event stream equal the report's own totals — including
//!   the re-admission accounting for preempted requests — and the
//!   report's embedded metrics section IS the registry dump of the
//!   stream;
//! * timeout rejections carry the discipline scan and the queue wait
//!   in their decision-trace event;
//! * `retention-evict` and `retention-store` events equal the report's
//!   `ReuseStats` evictions and retains, preemption retains and the
//!   LRU evictions a retain makes included;
//! * changing any one field of a report — with and without the
//!   optional reuse / discipline / metrics sections — changes its
//!   `canonical_text()`, the bytes every golden and digest compares.

use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, Event, EventKind, LatencyStats, LoadBalancePolicy, MemorySink,
    MetricsRegistry, QueueDiscipline, RetentionCfg, Router, RouterConfig, ServeConfig, ServeEngine,
    ServeReport, Trace,
};
use alisa_workloads::{LengthModel, SessionModel};

fn v100_config(policy: AdmissionPolicy) -> ServeConfig {
    ServeConfig::new(
        alisa_model::ModelConfig::opt_6_7b(),
        alisa_memsim::HardwareSpec::v100_16gb(),
        policy,
    )
}

fn heavy_trace(rate: f64, n: usize, seed: u64) -> Trace {
    Trace::generate(
        &ArrivalProcess::Poisson { rate },
        &LengthModel::heavy_tailed(),
        n,
        seed,
    )
}

/// The preemption-heavy operating point `tests/discipline.rs` pins:
/// overload plus an impatient preemptive-SJF scan, with a finite
/// timeout so the stream also contains queue-timeout rejections.
fn preemptive_overload() -> (ServeConfig, Trace) {
    let cfg = v100_config(AdmissionPolicy::alisa())
        .with_discipline(
            QueueDiscipline::preemptive_sjf()
                .with_aging(5.0)
                .with_patience(0.1),
        )
        .with_queue_timeout(2.0);
    (cfg, heavy_trace(20.0, 80, 42))
}

/// Tracing off is free: `run()` equals `run_traced` into a sink, minus
/// the opt-in metrics section — and the untraced canonical text never
/// mentions metrics, so every pre-obs golden fixture is untouched.
#[test]
fn tracing_off_leaves_the_report_byte_identical() {
    let (cfg, trace) = preemptive_overload();
    let engine = ServeEngine::new(cfg);
    let untraced = engine.run(&trace);
    let mut sink = MemorySink::new();
    let mut traced = engine.run_traced(&trace, &mut sink);

    assert!(!sink.events().is_empty(), "the traced run must emit");
    assert!(
        !untraced.canonical_text().contains("\nmetrics "),
        "untraced reports must not grow a metrics section"
    );
    assert!(untraced.metrics.is_none());
    assert!(traced.metrics.is_some());
    // Identical in every field except the opt-in metrics section.
    traced.metrics = None;
    assert_eq!(untraced, traced, "tracing must not perturb the simulation");
    assert_eq!(
        untraced.canonical_text().into_bytes(),
        traced.canonical_text().into_bytes()
    );
}

/// Same seed ⇒ byte-identical JSONL, and every line re-parses (the
/// schema contract `trace_check` enforces in CI).
#[test]
fn same_seed_event_streams_are_byte_identical_and_parse() {
    let (cfg, trace) = preemptive_overload();
    let engine = ServeEngine::new(cfg);
    let run = || {
        let mut sink = MemorySink::new();
        engine.run_traced(&trace, &mut sink);
        sink.to_jsonl()
    };
    let a = run();
    let b = run();
    assert_eq!(a.as_bytes(), b.as_bytes(), "same seed must replay exactly");
    let mut n = 0;
    for line in a.lines() {
        let ev = Event::from_json(line).unwrap_or_else(|e| panic!("invalid event {line:?}: {e}"));
        assert_eq!(ev.to_json(), line, "JSON form must round-trip");
        n += 1;
    }
    assert!(
        n > 100,
        "an overloaded 80-request run traces richly, got {n}"
    );
}

/// The acceptance reconciliation: counters derived from the event
/// stream equal the report's totals. Admissions count re-admissions
/// after preemption, so `admitted events == report.admitted +
/// preemptions`; rejection and preemption totals match exactly; and
/// the report's embedded metrics section is byte-for-byte the registry
/// dump of the stream.
#[test]
fn decision_events_reconcile_with_the_report() {
    let (cfg, trace) = preemptive_overload();
    let mut sink = MemorySink::new();
    let report = ServeEngine::new(cfg).run_traced(&trace, &mut sink);
    let stats = report.discipline.as_ref().expect("non-FCFS run reports");
    assert!(stats.preemptions > 0, "this operating point must preempt");
    let preemptions = stats.preemptions as usize;
    assert!(report.rejected > 0, "and must reject");

    let reg = MetricsRegistry::from_events(sink.events());
    assert_eq!(reg.counter("arrived") as usize, report.arrived);
    assert_eq!(reg.counter("rejected") as usize, report.rejected);
    assert_eq!(
        reg.counter("admitted") as usize,
        report.admitted + preemptions,
        "each preemption causes exactly one re-admission"
    );
    assert_eq!(reg.counter("preemptions") as usize, preemptions);
    assert_eq!(reg.counter("finished") as usize, report.completed);
    assert_eq!(
        reg.counter("admitted") as usize - reg.counter("preemptions") as usize
            + reg.counter("rejected") as usize,
        report.arrived,
        "admitted + rejected == offered, once re-admissions are netted out"
    );
    assert_eq!(
        report.metrics.as_deref(),
        Some(reg.canonical_text().as_str()),
        "the report's metrics section is the registry dump of the stream"
    );

    // Every terminal rejection/preemption names its losing comparison.
    for ev in sink.events() {
        match &ev.kind {
            EventKind::Rejected { decision_trace, .. }
            | EventKind::Preempted { decision_trace, .. } => {
                assert!(
                    !decision_trace.is_empty(),
                    "decision events must carry a trace: {}",
                    ev.to_json()
                );
                assert!(ev.request.is_some(), "decisions are per-request");
            }
            _ => {}
        }
    }
}

/// Timeout rejections carry *which* discipline scan fired and the
/// queue wait at rejection, and the decision trace quotes the wait the
/// event records.
#[test]
fn timeout_rejections_name_the_scan_and_the_wait() {
    let (cfg, trace) = preemptive_overload();
    let timeout = cfg.queue_timeout_s;
    let mut sink = MemorySink::new();
    ServeEngine::new(cfg).run_traced(&trace, &mut sink);

    let mut timeouts = 0;
    for ev in sink.events() {
        if let EventKind::Rejected {
            reason,
            queue_wait_s,
            decision_trace,
        } = &ev.kind
        {
            if reason == "queue-timeout" {
                timeouts += 1;
                assert!(
                    *queue_wait_s >= timeout,
                    "a timeout rejection fired before the timeout: {queue_wait_s} < {timeout}"
                );
                assert!(
                    decision_trace.contains("preemptive-sjf scan"),
                    "the trace must name the discipline scan: {decision_trace:?}"
                );
                assert!(
                    decision_trace.contains(&format!("waited {queue_wait_s:.3}s")),
                    "the trace must quote the wait the reason records: {decision_trace:?}"
                );
            }
        }
    }
    assert!(timeouts > 0, "overload past the timeout must time out");
}

/// Changing any one field of a report changes its canonical text — with
/// and without each optional section (reuse, discipline, metrics).
#[test]
fn report_canonical_text_names_every_field() {
    let plain =
        ServeEngine::new(v100_config(AdmissionPolicy::alisa())).run(&heavy_trace(4.0, 40, 7));
    assert!(plain.reuse.is_none() && plain.discipline.is_none() && plain.metrics.is_none());

    let (cfg, trace) = preemptive_overload();
    let mut sink = MemorySink::new();
    let traced = ServeEngine::new(cfg).run_traced(&trace, &mut sink);
    assert!(traced.discipline.is_some() && traced.metrics.is_some());

    let session_cfg =
        v100_config(AdmissionPolicy::alisa()).with_session_reuse(RetentionCfg::half());
    let sessions = ServeEngine::new(session_cfg).run(&Trace::generate_sessions(
        &ArrivalProcess::Poisson { rate: 2.0 },
        &alisa_workloads::SessionModel::chat().with_max_turns(4),
        12,
        13,
    ));
    assert!(sessions.reuse.is_some(), "session runs report reuse stats");

    for (tag, report) in [("plain", plain), ("traced", traced), ("sessions", sessions)] {
        assert_text_names_every_field(tag, &report);
    }
}

/// Moves a float to its next representable value: the smallest change
/// the canonical text must still show.
fn bump(x: &mut f64) {
    *x = f64::from_bits(x.to_bits() + 1);
}

/// The contents of an optional report section the caller knows is present.
fn some<T>(section: &mut Option<T>) -> &mut T {
    section.as_mut().expect("section present")
}

/// The report's `i`-th latency population: TTFT, TBT, then E2E.
fn latency(r: &mut ServeReport, i: usize) -> &mut LatencyStats {
    match i {
        0 => &mut r.ttft,
        1 => &mut r.tbt,
        _ => &mut r.e2e,
    }
}

/// Edits each field of `report` in turn, asserting each edit changes
/// the canonical text.
fn assert_text_names_every_field(tag: &str, report: &ServeReport) {
    // Binding every field by name makes a new report field a compile
    // error here until it gets an edit below.
    let ServeReport {
        policy: _,
        model: _,
        hardware: _,
        arrived: _,
        admitted: _,
        rejected: _,
        completed: _,
        slo_met: _,
        makespan_s: _,
        offered_window_s: _,
        ttft: _,
        tbt: _,
        e2e: _,
        slo: _,
        goodput_rps: _,
        slo_attainment: _,
        throughput_tps: _,
        mean_batch: _,
        peak_queue_depth: _,
        peak_kv_bytes: _,
        timeline: _,
        reuse: _,
        discipline: _,
        metrics: _,
    } = report;
    let text = report.canonical_text();
    let check = |field: &str, edit: &dyn Fn(&mut ServeReport)| {
        let mut edited = report.clone();
        edit(&mut edited);
        assert_ne!(
            edited.canonical_text(),
            text,
            "{tag}: editing `{field}` left the canonical text unchanged"
        );
    };
    check("policy", &|r| r.policy.push('x'));
    check("model", &|r| r.model.push('x'));
    check("hardware", &|r| r.hardware.push('x'));
    check("arrived", &|r| r.arrived += 1);
    check("admitted", &|r| r.admitted += 1);
    check("rejected", &|r| r.rejected += 1);
    check("completed", &|r| r.completed += 1);
    check("slo_met", &|r| r.slo_met += 1);
    check("makespan_s", &|r| bump(&mut r.makespan_s));
    check("offered_window_s", &|r| bump(&mut r.offered_window_s));
    for (i, name) in ["ttft", "tbt", "e2e"].into_iter().enumerate() {
        check(&format!("{name}.count"), &|r| latency(r, i).count += 1);
        check(&format!("{name}.mean"), &|r| bump(&mut latency(r, i).mean));
        check(&format!("{name}.p50"), &|r| bump(&mut latency(r, i).p50));
        check(&format!("{name}.p90"), &|r| bump(&mut latency(r, i).p90));
        check(&format!("{name}.p99"), &|r| bump(&mut latency(r, i).p99));
        check(&format!("{name}.max"), &|r| bump(&mut latency(r, i).max));
    }
    check("slo.ttft_s", &|r| bump(&mut r.slo.ttft_s));
    check("slo.tbt_s", &|r| bump(&mut r.slo.tbt_s));
    check("goodput_rps", &|r| bump(&mut r.goodput_rps));
    check("slo_attainment", &|r| bump(&mut r.slo_attainment));
    check("throughput_tps", &|r| bump(&mut r.throughput_tps));
    check("mean_batch", &|r| bump(&mut r.mean_batch));
    check("peak_queue_depth", &|r| r.peak_queue_depth += 1);
    check("peak_kv_bytes", &|r| r.peak_kv_bytes += 1);
    assert!(!report.timeline.is_empty(), "{tag}: the run has a timeline");
    let last = report.timeline.len() - 1;
    check("timeline.t", &|r| bump(&mut r.timeline[last].t));
    check("timeline.queue_depth", &|r| {
        r.timeline[last].queue_depth += 1
    });
    check("timeline.running", &|r| r.timeline[last].running += 1);
    check("timeline.kv_bytes", &|r| r.timeline[last].kv_bytes += 1);
    if report.reuse.is_some() {
        check("reuse.hits", &|r| some(&mut r.reuse).hits += 1);
        check("reuse.misses", &|r| some(&mut r.reuse).misses += 1);
        check("reuse.reused_tokens", &|r| {
            some(&mut r.reuse).reused_tokens += 1
        });
        check("reuse.evictions", &|r| some(&mut r.reuse).evictions += 1);
        check("reuse.retained", &|r| some(&mut r.reuse).retained += 1);
        check("reuse.peak_retained_bytes", &|r| {
            some(&mut r.reuse).peak_retained_bytes += 1
        });
    }
    if report.discipline.is_some() {
        check("discipline.discipline", &|r| {
            some(&mut r.discipline).discipline.push('x')
        });
        check("discipline.preemptions", &|r| {
            some(&mut r.discipline).preemptions += 1
        });
        check("discipline.preempted_requests", &|r| {
            some(&mut r.discipline).preempted_requests += 1
        });
    }
    if report.metrics.is_some() {
        check("metrics", &|r| {
            some(&mut r.metrics).push_str("counter extra 1\n")
        });
    }
}

/// Every retention path is traced: one `retention-evict` event per
/// `ReuseStats::evictions` count and one `retention-store` per
/// `ReuseStats::retained` — including a preempted request's retain and
/// the LRU evictions a retain makes to fit. Runs the chat workload with
/// retention and preemptive SJF at 0.4 sessions/s per replica, just
/// past a replica's knee, on one engine and on a sticky 2-replica
/// fleet.
#[test]
fn retention_events_reconcile_with_reuse_stats() {
    let base = v100_config(AdmissionPolicy::alisa());
    let timeout = 5.0 * base.slo.ttft_s;
    let cfg = base
        .with_session_reuse(RetentionCfg::half())
        .with_discipline(QueueDiscipline::preemptive_sjf())
        .with_queue_timeout(timeout);
    let sessions = |rate: f64, n: usize| {
        Trace::generate_sessions(
            &ArrivalProcess::Poisson { rate },
            &SessionModel::chat(),
            n,
            7,
        )
    };
    let reconcile = |tag: &str, events: &[Event], report: &ServeReport| {
        let reuse = report.reuse.expect("retention on");
        let discipline = report.discipline.as_ref().expect("preemptive discipline");
        assert!(discipline.preemptions > 0, "{tag}: the run must preempt");
        assert!(reuse.evictions > 0, "{tag}: the run must evict");
        let count = |kind: &str| events.iter().filter(|e| e.kind.name() == kind).count();
        assert_eq!(
            count("retention-evict"),
            reuse.evictions,
            "{tag}: evictions"
        );
        assert_eq!(count("retention-store"), reuse.retained, "{tag}: retains");
    };

    let mut sink = MemorySink::new();
    let report = ServeEngine::new(cfg.clone()).run_traced(&sessions(0.4, 400), &mut sink);
    reconcile("engine", sink.events(), &report);

    let router =
        Router::new(RouterConfig::homogeneous(cfg, 2).with_lb(LoadBalancePolicy::sticky()));
    let mut sink = MemorySink::new();
    let r = router.run_traced(&sessions(0.8, 320), &mut sink);
    reconcile("fleet", sink.events(), &r.fleet);
}

/// The fleet traces too: a disaggregated router run emits dispatch and
/// handoff events whose counts reconcile with the router report, and
/// the fleet report carries the merged metrics section.
#[test]
fn fleet_events_reconcile_with_the_router_report() {
    let cfg = v100_config(AdmissionPolicy::alisa());
    let router = Router::new(RouterConfig::homogeneous(cfg, 3).with_disagg(1));
    let trace = heavy_trace(6.0, 40, 5);
    let mut sink = MemorySink::new();
    let r = router.run_traced(&trace, &mut sink);

    let reg = MetricsRegistry::from_events(sink.events());
    assert_eq!(reg.counter("arrived") as usize, r.fleet.arrived);
    assert_eq!(reg.counter("rejected") as usize, r.fleet.rejected);
    assert_eq!(reg.counter("finished") as usize, r.fleet.completed);
    assert_eq!(reg.counter("handoffs") as usize, r.handoffs);
    assert!(reg.counter("dispatches") > 0, "arrivals must be dispatched");
    assert_eq!(
        r.fleet.metrics.as_deref(),
        Some(reg.canonical_text().as_str()),
        "the fleet metrics section is the merged registry dump"
    );

    // Handoff events name distinct replicas and carry the transfer cost.
    let mut handoffs = 0;
    for ev in sink.events() {
        if let EventKind::Handoff {
            from,
            to,
            bytes,
            transfer_s,
        } = &ev.kind
        {
            handoffs += 1;
            assert_ne!(from, to, "a handoff crosses replicas");
            assert!(*bytes > 0 && *transfer_s > 0.0);
        }
    }
    assert_eq!(handoffs, r.handoffs, "one event per handoff");

    // The untraced fleet run is unchanged by tracing.
    let router2 = Router::new(
        RouterConfig::homogeneous(v100_config(AdmissionPolicy::alisa()), 3).with_disagg(1),
    );
    let untraced = router2.run(&trace);
    assert!(untraced.fleet.metrics.is_none());
    assert_eq!(untraced.fleet.arrived, r.fleet.arrived);
    assert_eq!(untraced.fleet.completed, r.fleet.completed);
    assert_eq!(untraced.handoffs, r.handoffs);
}

/// Fleet runs are as replayable as engine runs: a traced fleet with
/// timeout bounces re-queued across replicas produces a byte-identical
/// JSONL event stream and router report per seed — and the untraced
/// run matches them minus the opt-in metrics section.
#[test]
fn fleet_event_streams_are_byte_identical_per_seed() {
    let trace = heavy_trace(12.0, 50, 7);
    let router = Router::new(
        RouterConfig::homogeneous(
            v100_config(AdmissionPolicy::alisa()).with_queue_timeout(2.0),
            3,
        )
        .with_requeue(),
    );
    let run_traced = || {
        let mut sink = MemorySink::new();
        let report = router.run_traced(&trace, &mut sink);
        (report, sink.to_jsonl())
    };
    let (mut report_a, events_a) = run_traced();
    let (report_b, events_b) = run_traced();
    assert_eq!(events_a.as_bytes(), events_b.as_bytes());
    assert_eq!(
        report_a.canonical_text().into_bytes(),
        report_b.canonical_text().into_bytes()
    );

    let untraced = router.run(&trace);
    assert!(untraced.fleet.metrics.is_none());
    report_a.fleet.metrics = None;
    assert_eq!(untraced, report_a, "tracing must not perturb the fleet run");
}

/// A filtered per-request view reads as a coherent lifecycle: the
/// request's events are time-ordered and start with its arrival.
#[test]
fn per_request_timelines_are_ordered_lifecycles() {
    let (cfg, trace) = preemptive_overload();
    let mut sink = MemorySink::new();
    let report = ServeEngine::new(cfg).run_traced(&trace, &mut sink);

    let mut checked = 0;
    for id in 0..report.arrived {
        let evs = sink.for_request(id);
        if evs.is_empty() {
            continue;
        }
        checked += 1;
        assert_eq!(
            evs[0].kind.name(),
            "arrival",
            "request {id}'s first event must be its arrival"
        );
        for w in evs.windows(2) {
            assert!(
                w[0].t <= w[1].t + 1e-12,
                "request {id}: events out of order at t={} then t={}",
                w[0].t,
                w[1].t
            );
        }
        let terminal = evs
            .iter()
            .filter(|e| matches!(e.kind.name(), "finished" | "rejected"))
            .count();
        assert!(
            terminal >= 1,
            "request {id} must reach a terminal event in a drained run"
        );
    }
    assert_eq!(checked, report.arrived, "every request leaves a trace");
}
