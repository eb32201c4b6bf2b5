//! Reference-vs-optimized differential harness.
//!
//! The simulator's hot paths — incremental top-K selection, the gated
//! queue scan, fleet dispatch indexes, scratch-buffer reuse — hold one
//! contract: **not a single output byte may change**. The naive
//! implementations stay reachable (`ServeEngine::with_reference_paths(true)`
//! forces the ungated queue scan, `Router::with_reference_paths(true)`
//! also the linear dispatch scans; `GlobalSetModel::pick` is the full
//! re-sort the scheduler no longer calls), and this harness
//! property-tests the optimized paths against them over arbitrary
//! traces × queue disciplines × precision policies × retention on/off.
//! The scheduler's other fast paths have no reference twin: the plan
//! search's shared memo of global sets is checked against independent
//! runs in `crates/sched/tests/proptests.rs`, and its eviction walk by
//! the digests of every grid plan in `tests/alisa_grid.rs`, written
//! before the walk replaced the whole-store classification. Here:
//!
//! * canonical `ServeReport` text byte-identical, traced and untraced;
//! * the decision-trace JSONL event stream byte-identical;
//! * a 1-replica `Router` reproducing `ServeEngine`, since the engine
//!   runs as a 1-replica fleet through the router's loop;
//! * `GlobalSetModel::pick_into` (cached bases + packed-key partial
//!   sort) equal to `pick` (full comparator re-sort) across decode
//!   walks that grow the range, cross drift epochs, and reuse scratch.
//!
//! Failures reproduce exactly: the vendored proptest seeds its RNG from
//! the test path, so a red run here is a deterministic counterexample.

use alisa::PrecisionPolicy;
use alisa_sched::{GlobalSetModel, TopKScratch};
use alisa_serve::{
    AdmissionPolicy, FailurePlan, LoadBalancePolicy, MemorySink, QueueDiscipline, RetentionCfg,
    Router, RouterConfig, ServeConfig, ServeEngine, Trace, TraceEntry,
};
use proptest::prelude::*;

/// Builds a *valid* trace from raw per-entry tuples
/// `(gap_s, new_tokens, output_len, slot)`: arrivals accumulate the
/// gaps (monotone by construction), and a slot below 4 threads the
/// entry into that multi-turn session — its prompt is the session's
/// accumulated context plus `new_tokens`, so the turn/prefix invariants
/// `Trace::new` enforces hold for any input tuple.
fn build_trace(raw: Vec<(f64, usize, usize, usize)>) -> Trace {
    let mut t = 0.0;
    // Per session slot: (next turn index, accumulated context length).
    let mut sessions = [(0usize, 0usize); 4];
    let entries = raw
        .into_iter()
        .map(|(gap, body, out, slot)| {
            t += gap;
            if let Some(s) = sessions.get_mut(slot) {
                let (turn, ctx) = *s;
                let prompt = ctx + body;
                *s = (turn + 1, prompt + out);
                TraceEntry::turn(t, prompt, out, slot, turn)
            } else {
                TraceEntry::single_shot(t, body, out)
            }
        })
        .collect();
    Trace::new(entries).expect("constructed entries satisfy every trace invariant")
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    // Slots 0..4 are sessions, 4..7 single-shot — roughly half of each.
    collection::vec((0.0f64..0.8, 1usize..220, 1usize..64, 0usize..7), 8..48).prop_map(build_trace)
}

fn discipline(i: usize) -> QueueDiscipline {
    match i {
        0 => QueueDiscipline::fcfs(),
        1 => QueueDiscipline::sjf(),
        2 => QueueDiscipline::best_fit(),
        _ => QueueDiscipline::preemptive_sjf()
            .with_aging(5.0)
            .with_patience(0.1),
    }
}

fn policy(i: usize) -> AdmissionPolicy {
    match i {
        0 => AdmissionPolicy::alisa(),
        1 => AdmissionPolicy::alisa_with(PrecisionPolicy::mixed()),
        2 => AdmissionPolicy::alisa_with(PrecisionPolicy::int8()),
        3 => AdmissionPolicy::vllm(),
        _ => AdmissionPolicy::flexgen(),
    }
}

fn config(disc: usize, pol: usize, retention: bool, timeout: bool) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        alisa_model::ModelConfig::opt_6_7b(),
        alisa_memsim::HardwareSpec::v100_16gb(),
        policy(pol),
    )
    .with_discipline(discipline(disc));
    if retention {
        cfg = cfg.with_session_reuse(RetentionCfg::half());
    }
    if timeout {
        cfg = cfg.with_queue_timeout(1.5);
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core differential property: for an arbitrary valid trace and
    /// any (discipline × precision policy × retention × timeout)
    /// configuration, the engine with reference paths forced on and the
    /// optimized engine produce byte-identical canonical reports and
    /// byte-identical decision-trace streams — both the untraced
    /// (`run`) and traced (`run_traced`) monomorphizations.
    #[test]
    fn optimized_engine_matches_reference_byte_for_byte(
        trace in trace_strategy(),
        disc in 0usize..4,
        pol in 0usize..5,
        retention in 0usize..2,
        timeout in 0usize..2,
    ) {
        let cfg = config(disc, pol, retention == 1, timeout == 1);
        let optimized = ServeEngine::new(cfg.clone());
        let reference = ServeEngine::new(cfg).with_reference_paths(true);
        let ctx = format!(
            "disc={} policy={} retention={retention} timeout={timeout} n={}",
            discipline(disc).name(),
            policy(pol).name(),
            trace.len(),
        );

        let plain_ref = reference.run(&trace);
        let plain_opt = optimized.run(&trace);
        prop_assert_eq!(
            plain_ref.canonical_text().into_bytes(),
            plain_opt.canonical_text().into_bytes(),
            "untraced canonical report diverged: {}",
            &ctx
        );

        let mut sink_ref = MemorySink::new();
        let mut sink_opt = MemorySink::new();
        let traced_ref = reference.run_traced(&trace, &mut sink_ref);
        let traced_opt = optimized.run_traced(&trace, &mut sink_opt);
        prop_assert_eq!(
            sink_ref.to_jsonl().into_bytes(),
            sink_opt.to_jsonl().into_bytes(),
            "event stream diverged: {}",
            &ctx
        );
        prop_assert_eq!(
            traced_ref.canonical_text().into_bytes(),
            traced_opt.canonical_text().into_bytes(),
            "traced canonical report diverged: {}",
            &ctx
        );
        prop_assert_eq!(traced_ref, traced_opt, "report structs diverged: {}", &ctx);
    }
}

fn lb_policy(i: usize) -> LoadBalancePolicy {
    match i {
        0 => LoadBalancePolicy::RoundRobin,
        1 => LoadBalancePolicy::LeastOutstanding,
        2 => LoadBalancePolicy::LeastKvPressure,
        _ => LoadBalancePolicy::Sticky { sessions: 8 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fleet-dispatch analogue of the engine property above: the
    /// router with indexed replica selection (per-tier
    /// `DispatchIndex` orderings) and gated queue scans, and the router
    /// with `with_reference_paths(true)` — per-dispatch linear
    /// `min_by`/`min_by_key` scans and a scan every step — produce
    /// byte-identical canonical reports and byte-identical
    /// decision-trace streams, across arbitrary traces × all four
    /// load-balance policies × unified/disaggregated tiers × requeue
    /// on/off.
    #[test]
    fn indexed_router_matches_reference_byte_for_byte(
        trace in trace_strategy(),
        lb in 0usize..4,
        replicas in 2usize..5,
        disagg in 0usize..2,
        requeue in 0usize..2,
    ) {
        let base = config(1, 0, true, true);
        let mut cfg = RouterConfig::homogeneous(base, replicas).with_lb(lb_policy(lb));
        if requeue == 1 {
            cfg = cfg.with_requeue();
        }
        if disagg == 1 {
            cfg = cfg.with_disagg(1);
        }
        let optimized = Router::new(cfg.clone());
        let reference = Router::new(cfg).with_reference_paths(true);
        let ctx = format!(
            "lb={} replicas={replicas} disagg={disagg} requeue={requeue} n={}",
            lb_policy(lb).name(),
            trace.len(),
        );

        let plain_ref = reference.run(&trace);
        let plain_opt = optimized.run(&trace);
        prop_assert_eq!(
            plain_ref.canonical_text().into_bytes(),
            plain_opt.canonical_text().into_bytes(),
            "untraced canonical report diverged: {}",
            &ctx
        );

        let mut sink_ref = MemorySink::new();
        let mut sink_opt = MemorySink::new();
        let traced_ref = reference.run_traced(&trace, &mut sink_ref);
        let traced_opt = optimized.run_traced(&trace, &mut sink_opt);
        prop_assert_eq!(
            sink_ref.to_jsonl().into_bytes(),
            sink_opt.to_jsonl().into_bytes(),
            "event stream diverged: {}",
            &ctx
        );
        prop_assert_eq!(
            traced_ref.canonical_text().into_bytes(),
            traced_opt.canonical_text().into_bytes(),
            "traced canonical report diverged: {}",
            &ctx
        );
        prop_assert_eq!(traced_ref, traced_opt, "report structs diverged: {}", &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The dynamic-fleet extension of the router property: with an
    /// autoscaler breathing replicas up and down and a seeded
    /// `FailurePlan` killing replicas mid-run, the optimized router
    /// still matches `with_reference_paths(true)` byte for byte —
    /// canonical report and decision-trace JSONL — across arbitrary
    /// traces × failure plans × autoscaler on/off × all four
    /// load-balance policies. Request conservation (`admitted +
    /// rejected == offered`, every admission completes) holds under
    /// every kill schedule.
    #[test]
    fn dynamic_fleet_matches_reference_and_conserves(
        trace in trace_strategy(),
        lb in 0usize..4,
        replicas in 2usize..5,
        kills in 0usize..2,
        autoscale in 0usize..2,
        plan_seed in 0u64..1024,
    ) {
        let base = config(1, 0, true, true);
        let horizon = trace.duration().max(1.0);
        let mut cfg = RouterConfig::homogeneous(base, replicas).with_lb(lb_policy(lb));
        let kills = kills.min(replicas - 1);
        if kills > 0 {
            cfg = cfg.with_failures(FailurePlan::seeded(plan_seed, kills, replicas, horizon));
        }
        if autoscale == 1 {
            cfg = cfg.with_autoscaler();
        }
        let optimized = Router::new(cfg.clone());
        let reference = Router::new(cfg).with_reference_paths(true);
        let ctx = format!(
            "lb={} replicas={replicas} kills={kills} autoscale={autoscale} \
             plan_seed={plan_seed} n={}",
            lb_policy(lb).name(),
            trace.len(),
        );

        let plain_ref = reference.run(&trace);
        let plain_opt = optimized.run(&trace);
        prop_assert_eq!(
            plain_ref.canonical_text().into_bytes(),
            plain_opt.canonical_text().into_bytes(),
            "untraced canonical report diverged from reference: {}",
            &ctx
        );
        prop_assert_eq!(
            plain_opt.fleet.admitted + plain_opt.fleet.rejected,
            plain_opt.fleet.arrived,
            "conservation violated: {}",
            &ctx
        );
        prop_assert_eq!(plain_opt.fleet.arrived, trace.len(), "arrivals lost: {}", &ctx);
        prop_assert_eq!(
            plain_opt.fleet.completed,
            plain_opt.fleet.admitted,
            "an admitted request neither finished nor was re-rejected: {}",
            &ctx
        );

        let mut sink_ref = MemorySink::new();
        let mut sink_opt = MemorySink::new();
        let traced_ref = reference.run_traced(&trace, &mut sink_ref);
        let traced_opt = optimized.run_traced(&trace, &mut sink_opt);
        prop_assert_eq!(
            sink_ref.to_jsonl().into_bytes(),
            sink_opt.to_jsonl().into_bytes(),
            "event stream diverged: {}",
            &ctx
        );
        prop_assert_eq!(traced_ref, traced_opt, "report structs diverged: {}", &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine runs as a 1-replica fleet through the router's loop,
    /// so a 1-replica `Router` reproduces `ServeEngine::run` — its
    /// replica report and its traced event stream, byte for byte —
    /// across arbitrary traces × disciplines × precision policies ×
    /// retention × timeout. (The replica report covers the requests
    /// replica 0 accepted, the engine's every request; they agree
    /// because the generated prompts stay far below the smallest V100
    /// limit, vLLM's ~6k tokens, so dispatch rejects nothing.)
    #[test]
    fn one_replica_router_matches_the_engine(
        trace in trace_strategy(),
        disc in 0usize..4,
        pol in 0usize..5,
        retention in 0usize..2,
        timeout in 0usize..2,
    ) {
        let cfg = config(disc, pol, retention == 1, timeout == 1);
        let engine = ServeEngine::new(cfg.clone());
        let router = Router::new(RouterConfig::homogeneous(cfg, 1));
        let ctx = format!(
            "disc={} policy={} retention={retention} timeout={timeout} n={}",
            discipline(disc).name(),
            policy(pol).name(),
            trace.len(),
        );

        prop_assert_eq!(
            engine.run(&trace).canonical_text().into_bytes(),
            router.run(&trace).replicas[0].canonical_text().into_bytes(),
            "replica report diverged from the engine's: {}",
            &ctx
        );
        let mut engine_sink = MemorySink::new();
        let mut router_sink = MemorySink::new();
        engine.run_traced(&trace, &mut engine_sink);
        router.run_traced(&trace, &mut router_sink);
        prop_assert_eq!(
            engine_sink.to_jsonl().into_bytes(),
            router_sink.to_jsonl().into_bytes(),
            "event stream diverged from the engine's: {}",
            &ctx
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `pick_into`'s cached score bases and packed-key partial sort
    /// reproduce the reference comparator exactly — walked like the
    /// scheduler walks it: one persistent scratch across a growing
    /// decode range, stepping through drift-epoch boundaries (the
    /// epoch is 32 steps), with `k` free to exceed the range.
    #[test]
    fn pick_into_matches_pick_across_decode_walks(
        seed in 0u64..(1 << 60),
        start in 1usize..257,
        steps in 1usize..48,
        k in 0usize..129,
    ) {
        let model = GlobalSetModel::new(seed);
        let mut scratch = TopKScratch::default();
        let mut out = Vec::new();
        for j in 0..steps {
            let seq_len = start + j;
            let range_end = seq_len - 1;
            model.pick_into(k, range_end, j, seq_len, &mut scratch, &mut out);
            prop_assert_eq!(
                &out,
                &model.pick(k, range_end, j, seq_len),
                "seed={} j={} k={} range_end={}",
                seed,
                j,
                k,
                range_end
            );
        }
    }
}
