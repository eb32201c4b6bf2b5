//! Integration tests of the dynamic-fleet layer (PR 9): golden
//! fixtures pinning the canonical report of a failure-injected run and
//! an autoscaled run byte-for-byte, plus the lifecycle properties the
//! event stream must uphold:
//!
//! * a drained or failed replica never admits new work after the
//!   drain/kill instant (until a later scale-up revives it);
//! * every session in flight on a replica at its failure time
//!   terminates exactly once — finished on a survivor or rejected with
//!   a reason — never silently lost;
//! * seeded failure plans and autoscaled runs are deterministic, so
//!   the fixtures hold regardless of host.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_obs::EventKind;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, FailurePlan, LoadBalancePolicy, MemorySink, Router,
    RouterConfig, ServeConfig, Trace,
};
use alisa_workloads::LengthModel;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

fn v100_config() -> ServeConfig {
    ServeConfig::new(
        ModelConfig::opt_6_7b(),
        HardwareSpec::v100_16gb(),
        AdmissionPolicy::alisa(),
    )
}

fn steady_trace(n: usize, seed: u64) -> Trace {
    Trace::generate(
        &ArrivalProcess::Poisson { rate: 40.0 },
        &LengthModel::alpaca().with_max_output(64),
        n,
        seed,
    )
}

fn diurnal_trace(n: usize, seed: u64) -> Trace {
    Trace::generate(
        &ArrivalProcess::Diurnal {
            rate: 40.0,
            swing: 0.9,
            period_s: 24.0,
        },
        &LengthModel::alpaca().with_max_output(64),
        n,
        seed,
    )
}

/// The failure fixture: 3 replicas, two kills at fixed times.
fn failure_router() -> Router {
    Router::new(
        RouterConfig::homogeneous(v100_config(), 3)
            .with_lb(LoadBalancePolicy::LeastOutstanding)
            .with_failures(FailurePlan::at(&[(1.5, 1), (3.0, 0)])),
    )
}

/// The autoscaler fixture: ceiling 4, floor 1.
fn autoscaled_router() -> Router {
    Router::new(
        RouterConfig::homogeneous(v100_config(), 4)
            .with_lb(LoadBalancePolicy::LeastOutstanding)
            .with_autoscaler(),
    )
}

#[test]
fn failure_run_matches_golden_fixture() {
    let report = failure_router().run(&steady_trace(160, 42));
    assert_eq!(
        report.canonical_text(),
        golden("fleet_failure_seed42.txt"),
        "failure-injected canonical report drifted from the committed fixture \
         (regenerate with `cargo test --test fleet -- --ignored` if intentional)"
    );
}

#[test]
fn autoscaled_run_matches_golden_fixture() {
    let report = autoscaled_router().run(&diurnal_trace(1100, 42));
    assert_eq!(
        report.canonical_text(),
        golden("fleet_autoscaled_seed42.txt"),
        "autoscaled canonical report drifted from the committed fixture \
         (regenerate with `cargo test --test fleet -- --ignored` if intentional)"
    );
}

/// Rewrites both fixtures from the current implementation. Ignored so
/// a normal test run can never bless its own regression; run
/// explicitly after an intentional output change:
/// `cargo test --test fleet -- --ignored`.
#[test]
#[ignore]
fn regenerate_golden_fixtures() {
    let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(
        format!("{dir}/fleet_failure_seed42.txt"),
        failure_router()
            .run(&steady_trace(160, 42))
            .canonical_text(),
    )
    .expect("write failure fixture");
    std::fs::write(
        format!("{dir}/fleet_autoscaled_seed42.txt"),
        autoscaled_router()
            .run(&diurnal_trace(1100, 42))
            .canonical_text(),
    )
    .expect("write autoscaler fixture");
}

#[test]
fn drained_or_failed_replica_never_admits_afterwards() {
    // One traced run with both dynamics active: an autoscaler that
    // drains in the trough and a kill near the peak.
    let trace = diurnal_trace(1100, 42);
    let router = Router::new(
        RouterConfig::homogeneous(v100_config(), 4)
            .with_lb(LoadBalancePolicy::LeastOutstanding)
            .with_autoscaler()
            .with_failures(FailurePlan::at(&[(12.0, 3)])),
    );
    let mut sink = MemorySink::new();
    let _ = router.run_traced(&trace, &mut sink);
    // Replica availability as the event stream tells it: admitting
    // until drained or failed, admitting again on replica-up.
    let mut admitting = [true; 4];
    let mut saw_lifecycle_events = 0;
    for e in sink.events() {
        match &e.kind {
            EventKind::ReplicaUp { .. } => {
                admitting[e.replica.expect("replica-up is replica-local")] = true;
                saw_lifecycle_events += 1;
            }
            EventKind::ReplicaDrained { .. } | EventKind::ReplicaFailed { .. } => {
                admitting[e.replica.expect("lifecycle events are replica-local")] = false;
                saw_lifecycle_events += 1;
            }
            EventKind::Dispatch { target, .. } => {
                assert!(
                    admitting[*target],
                    "request {:?} dispatched to non-admitting replica {target} at t={}",
                    e.request, e.t
                );
            }
            EventKind::SessionRecovered { to, .. } => {
                assert!(
                    admitting[*to],
                    "request {:?} recovered onto non-admitting replica {to} at t={}",
                    e.request, e.t
                );
            }
            _ => {}
        }
    }
    assert!(
        saw_lifecycle_events >= 3,
        "the run must actually exercise drain/fail/scale-up \
         (saw {saw_lifecycle_events} lifecycle events)"
    );
}

#[test]
fn every_in_flight_session_at_failure_time_terminates() {
    let trace = steady_trace(240, 42);
    let plan = FailurePlan::seeded(42, 2, 4, trace.duration());
    let router = Router::new(
        RouterConfig::homogeneous(v100_config(), 4)
            .with_lb(LoadBalancePolicy::LeastKvPressure)
            .with_failures(plan),
    );
    let mut sink = MemorySink::new();
    let report = router.run_traced(&trace, &mut sink);
    // Replay ownership from the event stream: dispatch/recovery moves
    // a request, finished/rejected terminates it.
    let n = trace.len();
    let mut owner: Vec<Option<usize>> = vec![None; n];
    let mut terminated = vec![0usize; n];
    let mut caught: Vec<usize> = Vec::new();
    for e in sink.events() {
        match &e.kind {
            EventKind::Dispatch { target, .. } => {
                owner[e.request.expect("dispatch names its request")] = Some(*target);
            }
            EventKind::SessionRecovered { to, .. } => {
                owner[e.request.expect("recovery names its request")] = Some(*to);
            }
            EventKind::Finished { .. } | EventKind::Rejected { .. } => {
                terminated[e.request.expect("terminal events name their request")] += 1;
            }
            EventKind::ReplicaFailed { in_flight, .. } => {
                let r = e.replica.expect("replica-failed is replica-local");
                let live: Vec<usize> = (0..n)
                    .filter(|&id| owner[id] == Some(r) && terminated[id] == 0)
                    .collect();
                assert_eq!(
                    live.len(),
                    *in_flight,
                    "replica {r}'s advertised in-flight count disagrees with \
                     the replayed ownership at t={}",
                    e.t
                );
                caught.extend(live);
            }
            _ => {}
        }
    }
    assert!(
        !caught.is_empty(),
        "seeded kills must catch at least one in-flight session"
    );
    for id in caught {
        assert_eq!(
            terminated[id], 1,
            "request {id} was in flight on a killed replica and must terminate \
             exactly once (finished on a survivor or rejected with a reason)"
        );
    }
    // And the report agrees: nothing leaks at the fleet level either.
    assert_eq!(report.fleet.admitted + report.fleet.rejected, n);
    assert_eq!(report.fleet.completed, report.fleet.admitted);
}
