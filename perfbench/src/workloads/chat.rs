//! `engine_chat`: one `ServeEngine`, no router, with ALISA admission,
//! multi-turn `SessionModel::chat` sessions, half the KV budget for
//! session retention, preemptive SJF, and a queue timeout of 5× the
//! TTFT SLO. The session rate is swept serially from below the
//! replica's knee to past it.
//!
//! Why: the engine's event scan, preemption search, pricing and
//! accounting run here with large batches and deep queues, with no
//! router work at all. Retention is read (hits consumed at admission)
//! and written (stores at finish and preemption, LRU evictions), so a
//! change that speeds the reads but slows the writes shows here.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, QueueDiscipline, RetentionCfg, ServeConfig, ServeEngine,
    ServeReport, Trace,
};
use alisa_workloads::SessionModel;

use super::serving;
use crate::count::CountingSink;
use crate::digest::Digest;
use crate::harness::{Checked, Parts, Size, Values, Work, Workload};
use crate::spans::Spans;

/// Session arrival rates (sessions/s), from below the knee (~0.3) to
/// past it.
const RATES: [f64; 4] = [0.2, 0.4, 0.8, 1.6];

/// Simulated seconds of session arrivals per rate. Every rate gets the
/// same span, so the runs past the knee, whose cost varies most from
/// seed to seed, average over as many sessions as their rate brings.
const HORIZON_S: f64 = 10_000.0;

pub struct EngineChat {
    traces: Vec<Trace>,
    engine: ServeEngine,
}

impl Workload for EngineChat {
    type Output = Vec<ServeReport>;
    const SETUPS: usize = 5;

    fn setup(seed: u64, size: Size, spans: &mut Spans) -> Self {
        let (rates, horizon_s) = match size {
            Size::Full => (&RATES[..], HORIZON_S),
            Size::Small => (&RATES[1..3], 40.0),
        };
        let model = SessionModel::chat();
        // Each rate gets its own stream of sessions, so the sweep's
        // cost does not hinge on one draw of conversation lengths.
        let traces = rates
            .iter()
            .enumerate()
            .map(|(k, &rate)| {
                let seed = seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let sessions = (rate * horizon_s) as usize;
                spans.time("workloads.trace_gen", |_| {
                    Trace::generate_sessions(
                        &ArrivalProcess::Poisson { rate },
                        &model,
                        sessions,
                        seed,
                    )
                })
            })
            .collect();
        let base = ServeConfig::new(
            ModelConfig::opt_6_7b(),
            HardwareSpec::v100_16gb(),
            AdmissionPolicy::alisa(),
        );
        let timeout = 5.0 * base.slo.ttft_s;
        let cfg = base
            .with_session_reuse(RetentionCfg::half())
            .with_discipline(QueueDiscipline::preemptive_sjf())
            .with_queue_timeout(timeout);
        let engine = spans.time("engine.build", |_| ServeEngine::new(cfg));
        EngineChat { traces, engine }
    }

    fn pass(&self, spans: &mut Spans) -> (Vec<ServeReport>, Option<Parts>) {
        let reports = self
            .traces
            .iter()
            .map(|trace| spans.time("engine.run", |_| self.engine.run(trace)))
            .collect();
        (reports, None)
    }

    fn check(&self, out: Vec<ServeReport>) -> Checked {
        let mut violations = Vec::new();
        let mut digest = Digest::new();
        for (report, trace) in out.into_iter().zip(&self.traces) {
            violations.extend(serving::conservation(&report, trace.len()));
            digest.serve_report(report);
        }
        Checked {
            digest: digest.finish(),
            violations,
        }
    }

    fn count(&self, values: &mut Values) -> Result<Work, String> {
        let mut sink = CountingSink::default();
        let mut reports = Vec::with_capacity(self.traces.len());
        for trace in &self.traces {
            let report = self.engine.run_traced(trace, &mut sink);
            let violations = serving::conservation(&report, trace.len());
            if !violations.is_empty() {
                return Err(violations.join("; "));
            }
            reports.push(report);
        }
        let sessions: usize = self.traces.iter().map(Trace::session_count).sum();
        let samples = reports.iter().map(|r| r.timeline.len()).sum();
        values.insert("workloads.sessions", sessions as f64);
        let reports: Vec<&ServeReport> = reports.iter().collect();
        Ok(serving::record(values, &reports, &sink, samples))
    }
}
