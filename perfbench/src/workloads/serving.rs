//! The output check and the simulated-outcome metrics the two serving
//! workloads share.

use alisa_serve::{ReuseStats, ServeReport};

use crate::count::CountingSink;
use crate::harness::{Values, Work};

/// Conservation: every arrival is admitted or rejected, and every
/// admitted request completes.
pub fn conservation(report: &ServeReport, arrived: usize) -> Vec<String> {
    let mut violations = Vec::new();
    if report.arrived != arrived {
        violations.push(format!(
            "report counts {} arrivals, the trace has {arrived}",
            report.arrived
        ));
    }
    if report.admitted + report.rejected != report.arrived {
        violations.push(format!(
            "admitted {} + rejected {} != arrived {}",
            report.admitted, report.rejected, report.arrived
        ));
    }
    if report.completed != report.admitted {
        violations.push(format!(
            "completed {} != admitted {}",
            report.completed, report.admitted
        ));
    }
    violations
}

/// Records the outcomes of one counting pass over `reports` (one per
/// simulation run), whose events went to `sink`, and returns its work.
/// `timeline_samples` counts every sample the reports hold.
pub fn record(
    values: &mut Values,
    reports: &[&ServeReport],
    sink: &CountingSink,
    timeline_samples: usize,
) -> Work {
    let requests: usize = reports.iter().map(|r| r.arrived).sum();
    let sum = |f: fn(&ServeReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    values.insert("workloads.requests", requests as f64);
    values.insert("engine.steps", sink.steps as f64);
    values.insert("serve.goodput_rps", sum(|r| r.goodput_rps));
    values.insert("serve.rejected", sum(|r| r.rejected as f64));
    values.insert(
        "serve.preemptions",
        sum(|r| r.discipline.as_ref().map_or(0.0, |d| d.preemptions as f64)),
    );
    values.insert(
        "serve.mean_batch",
        sink.batch_tokens as f64 / sink.steps.max(1) as f64,
    );
    values.insert("serve.queue_wait_p99_s", sink.queue_wait_p99_s());
    values.insert("serve.timeline_samples", timeline_samples as f64);
    let reuse = reports
        .iter()
        .filter_map(|r| r.reuse)
        .fold(ReuseStats::default(), ReuseStats::merged);
    let lookups = reuse.hits + reuse.misses;
    values.insert("kvcache.hits", reuse.hits as f64);
    values.insert("kvcache.misses", reuse.misses as f64);
    values.insert("kvcache.lookups", lookups as f64);
    values.insert(
        "kvcache.hit_rate",
        reuse.hits as f64 / lookups.max(1) as f64,
    );
    values.insert("kvcache.stores", sink.stores as f64);
    values.insert("kvcache.evictions", reuse.evictions as f64);
    values.insert("kvcache.reused_tokens", reuse.reused_tokens as f64);
    Work {
        requests: requests as u64,
        steps: sink.steps,
        sched_tokens: sink.batch_tokens,
        gen_tokens: sink.generated,
    }
}
