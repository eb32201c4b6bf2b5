//! `fleet_512`: a `Router` over 512 homogeneous OPT-6.7B/V100-16GB ALISA
//! replicas under least-KV-pressure dispatch, serving 20k single-shot
//! Alpaca requests that arrive as a Poisson stream just below the
//! fleet's saturation.
//!
//! Why: it is the ROADMAP's reference scenario. The dispatch index, the
//! lockstep `busy_min`/`lagging` sweeps and the merge of 512 replica
//! reports do most of their work here. Admission is FCFS without
//! sessions, so discipline, preemption and retention stay idle.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, LoadBalancePolicy, Router, RouterConfig, RouterReport,
    ServeConfig, Trace,
};
use alisa_workloads::LengthModel;

use super::serving;
use crate::count::CountingSink;
use crate::digest::Digest;
use crate::harness::{Checked, Parts, Size, Values, Work, Workload};
use crate::spans::Spans;

/// Arrivals per second per replica. One replica's SLO attainment stays
/// at ~98% here and falls off past ~3 req/s.
const RATE_PER_REPLICA: f64 = 2.5;

pub struct Fleet512 {
    trace: Trace,
    router: Router,
}

impl Workload for Fleet512 {
    type Output = RouterReport;
    const SETUPS: usize = 7;

    fn setup(seed: u64, size: Size, spans: &mut Spans) -> Self {
        let (replicas, requests) = match size {
            Size::Full => (512, 20_000),
            Size::Small => (8, 300),
        };
        let arrivals = ArrivalProcess::Poisson {
            rate: RATE_PER_REPLICA * replicas as f64,
        };
        let trace = spans.time("workloads.trace_gen", |_| {
            Trace::generate(&arrivals, &LengthModel::alpaca(), requests, seed)
        });
        let replica = ServeConfig::new(
            ModelConfig::opt_6_7b(),
            HardwareSpec::v100_16gb(),
            AdmissionPolicy::alisa(),
        );
        let cfg = RouterConfig::homogeneous(replica, replicas)
            .with_lb(LoadBalancePolicy::LeastKvPressure)
            .with_step_threads(1);
        let router = spans.time("router.build", |_| Router::new(cfg));
        Fleet512 { trace, router }
    }

    fn pass(&self, spans: &mut Spans) -> (RouterReport, Option<Parts>) {
        let report = spans.time("router.run", |_| self.router.run(&self.trace));
        (report, None)
    }

    fn check(&self, out: RouterReport) -> Checked {
        let violations = serving::conservation(&out.fleet, self.trace.len());
        let mut digest = Digest::new();
        digest.router_report(out);
        Checked {
            digest: digest.finish(),
            violations,
        }
    }

    fn count(&self, values: &mut Values) -> Result<Work, String> {
        let mut sink = CountingSink::default();
        let report = self.router.run_traced(&self.trace, &mut sink);
        let violations = serving::conservation(&report.fleet, self.trace.len());
        if !violations.is_empty() {
            return Err(violations.join("; "));
        }
        let samples = report.fleet.timeline.len()
            + report
                .replicas
                .iter()
                .map(|r| r.timeline.len())
                .sum::<usize>();
        values.insert("workloads.sessions", self.trace.session_count() as f64);
        Ok(serving::record(values, &[&report.fleet], &sink, samples))
    }
}
