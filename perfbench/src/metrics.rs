//! Every metric the benchmark prints, with its unit and direction, and
//! the result line. `BENCHMARK.json` lists the same metrics in the same
//! order; a self-test keeps the two in step.

use std::fmt::Write as _;

#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the self-test that matches these tables to `BENCHMARK.json`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// Printed with `--trace 0`; every one applies to every workload (see
/// `README.md` for each workload's definition).
pub const END_TO_END: [MetricDef; 7] = [
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    lower("peak_rss_mb", "MB"),
    higher("sim_req_per_s", "1/s"),
    higher("replica_steps_per_s", "1/s"),
    higher("sched_tokens_per_s", "1/s"),
    higher("gen_tokens_per_s", "1/s"),
];

/// Printed with `--trace 1`. A metric of a layer a workload does not
/// touch reads 0 there.
pub const PER_LAYER: [MetricDef; 52] = [
    lower("workloads.trace_gen_s", "s"),
    higher("workloads.requests", "count"),
    higher("workloads.sessions", "count"),
    lower("router.build_s", "s"),
    lower("router.run_s", "s"),
    lower("router.dispatch_ns", "ns"),
    lower("router.dispatch_calls", "count"),
    lower("router.unattributed_frac", "ratio"),
    lower("engine.build_s", "s"),
    lower("engine.run_s", "s"),
    lower("engine.steps", "count"),
    lower("engine.ns_per_step", "ns"),
    lower("engine.event_scan_ns", "ns"),
    lower("engine.event_scan_calls", "count"),
    lower("engine.discipline_ns", "ns"),
    lower("engine.discipline_calls", "count"),
    lower("engine.pricing_ns", "ns"),
    lower("engine.pricing_calls", "count"),
    lower("engine.accounting_ns", "ns"),
    lower("engine.accounting_calls", "count"),
    lower("engine.report_ns", "ns"),
    lower("engine.report_calls", "count"),
    higher("serve.goodput_rps", "1/s"),
    lower("serve.rejected", "count"),
    lower("serve.preemptions", "count"),
    higher("serve.mean_batch", "count"),
    lower("serve.queue_wait_p99_s", "s"),
    lower("serve.timeline_samples", "count"),
    higher("kvcache.hits", "count"),
    lower("kvcache.misses", "count"),
    higher("kvcache.lookups", "count"),
    higher("kvcache.hit_rate", "ratio"),
    lower("kvcache.stores", "count"),
    lower("kvcache.evictions", "count"),
    higher("kvcache.reused_tokens", "count"),
    lower("sched.plan_search_s", "s"),
    lower("sched.runs", "count"),
    lower("sched.decode_steps", "count"),
    lower("sched.ns_per_decode_step", "ns"),
    lower("sched.topk_ns", "ns"),
    lower("sched.topk_calls", "count"),
    lower("sched.phase3_steps", "count"),
    lower("model.init_s", "s"),
    lower("model.teacher_gen_s", "s"),
    lower("model.swa_score_s", "s"),
    higher("model.decode_tokens", "count"),
    lower("attention.attended_tokens", "count"),
    lower("attention.kv_read_mb", "MB"),
    lower("bench.trace_overhead", "ratio"),
    higher("obs.profile_coverage", "ratio"),
    lower("host.oncpu_s", "s"),
    lower("host.runq_wait_s", "s"),
];

/// The result line: `correct`, `attempted`, `failed` and `metrics`, each
/// metric with its value (all its digits) and unit.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (def, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    s.push_str("}}");
    s
}
