//! Online request-level serving simulator for the ALISA reproduction.
//!
//! The offline path (`alisa-sched`) answers "how fast does a fixed
//! `(b, s, n)` batch run?". Production serving asks a different
//! question: under a live arrival process, how much traffic can each
//! KV-management policy sustain *within a latency SLO*? This crate
//! answers it with a discrete-event, request-level simulation priced
//! by the same formulas the offline simulators call: `SimBase` for
//! compute and `CostModel` for bytes ([`ServeEngine::step_time`]). The
//! two paths still differ on ALISA's per-step overhead: serving
//! charges a fixed churn of the resident set, while the offline
//! scheduler simulates offload, reload and recompute
//! (`tests/pricing_grid.rs` pins the difference per cell):
//!
//! * `request` (crate-private) — the request lifecycle (Queued →
//!   Prefilling → Decoding → Finished/Rejected, with preemption back to
//!   the queue) and the fleet loop's one record per request,
//! * [`arrivals`] — seeded Poisson, bursty on/off, and closed-loop
//!   arrival processes,
//! * [`trace`] — validated, replayable traces (text round-trippable)
//!   with lengths drawn from `alisa_workloads::LengthModel`, carrying
//!   real session ids for multi-turn conversations
//!   (`alisa_workloads::SessionModel` + [`Trace::generate_sessions`]),
//! * [`admission`] — the KV-budget *pricing* rules: dense paged
//!   (vLLM), static split (FlexGen), and ALISA's sparsity-aware
//!   `(1 − sparsity) ×` reservation that admits a several-fold larger
//!   concurrent batch from the same HBM,
//! * [`discipline`] — the queue *ordering* rules the priced budget is
//!   spent under: FCFS (default), shortest-job-first with aging,
//!   best-fit packing, and preemptive SJF with victim re-queue,
//! * [`engine`] — the continuous-batching loop with discipline-ordered
//!   admission, queue timeouts, closed-loop gating, and session-KV
//!   retention: a
//!   turn whose session prefix KV is still resident skips prefilling
//!   the shared prefix and only pays attention over the retained
//!   sparse KV ([`RetentionCfg`]),
//! * [`router`] — the multi-replica layer: a shared [`Router`] over N
//!   replica engines with pluggable load balancing, replica-local
//!   admission, optional cross-replica re-queue, and prefill/decode
//!   disaggregation with cost-modelled KV handoffs,
//! * [`metrics`] — TTFT/TBT/E2E percentiles, goodput under an SLO, and
//!   queue/KV timelines in a [`ServeReport`] (the online counterpart of
//!   `alisa_sched::RunReport`).
//!
//! Every simulation is also observable: [`ServeEngine::run_traced`] and
//! [`Router::run_traced`] emit structured [`alisa_obs`] events (one per
//! lifecycle decision, with admission pricing breakdowns and rejection/
//! preemption decision traces) into any [`TraceSink`] — a JSONL file, an
//! in-memory buffer, or the Chrome-trace exporter — and attach a
//! [`MetricsRegistry`] dump to the report. The default [`NullSink`]
//! path constructs no events and leaves reports byte-identical, so
//! tracing is strictly opt-in. See `docs/OBSERVABILITY.md`.
//!
//! # Example
//!
//! ```
//! use alisa_memsim::HardwareSpec;
//! use alisa_model::ModelConfig;
//! use alisa_serve::{AdmissionPolicy, ArrivalProcess, ServeConfig, ServeEngine, Trace};
//! use alisa_workloads::LengthModel;
//!
//! let trace = Trace::generate(
//!     &ArrivalProcess::Poisson { rate: 2.0 },
//!     &LengthModel::alpaca().with_max_output(32),
//!     16,
//!     42,
//! );
//! let engine = ServeEngine::new(ServeConfig::new(
//!     ModelConfig::opt_6_7b(),
//!     HardwareSpec::v100_16gb(),
//!     AdmissionPolicy::alisa(),
//! ));
//! let report = engine.run(&trace);
//! assert_eq!(report.arrived, 16);
//! assert!(report.throughput_tps > 0.0);
//! ```

#![deny(missing_docs)]

pub mod admission;
pub mod arrivals;
pub mod discipline;
pub mod engine;
pub mod metrics;
mod replica;
mod request;
pub mod router;
pub mod trace;

pub use admission::AdmissionPolicy;
pub use alisa_kvcache::{ReuseStats, SessionKvCache};
pub use alisa_obs::{
    Event, EventKind, JsonlSink, MemorySink, MetricsRegistry, NullSink, TraceSink,
};
pub use arrivals::ArrivalProcess;
pub use discipline::{DisciplineStats, QueueDiscipline};
pub use engine::{derived_slo, ClosedLoopCfg, PrefillJob, RetentionCfg, ServeConfig, ServeEngine};
pub use metrics::{LatencyStats, ServeReport, ServeSample, SloSpec};
pub use router::{
    DisaggCfg, FailureEvent, FailurePlan, FleetDynamicsStats, LoadBalancePolicy, Router,
    RouterConfig, RouterReport,
};
pub use trace::{SessionRef, Trace, TraceEntry, TraceError};
