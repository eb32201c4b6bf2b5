//! Observability for the ALISA serving stack.
//!
//! The simulators report terminal aggregates (`ServeReport`,
//! `RunReport`); this crate makes the *decisions behind them*
//! observable. It is a leaf crate — the serving stack depends on it,
//! never the other way around — with six modules:
//!
//! * [`event`] — the structured [`Event`] model: one record per
//!   lifecycle decision (arrival, admission with the full KV-pricing
//!   breakdown, rejection/preemption with an ADR-0004-style
//!   `decision_trace` naming the losing comparison, session-retention
//!   hit/miss/store/evict, replica dispatch and KV handoff, engine
//!   step boundaries). Timestamps are
//!   **simulation clock only** — never wall clock — so traces are
//!   byte-stable per seed.
//! * [`sink`] — the [`TraceSink`] trait the engines emit into.
//!   [`NullSink`] (the default) reports `enabled() == false`, so the
//!   hot path skips event construction entirely: tracing off is
//!   zero-cost and leaves every golden fixture byte-identical.
//!   [`MemorySink`] collects events for in-process queries;
//!   [`JsonlSink`] streams deterministic JSON lines to a writer.
//! * [`metrics`] — a [`MetricsRegistry`] of counters and log-bucketed
//!   histograms with a canonical, byte-stable text dump; derivable
//!   from a collected event stream via
//!   [`MetricsRegistry::from_events`].
//! * [`profile`] — self-profiling of the *simulator itself*: real
//!   wall time bucketed into simulator phases (top-K selection,
//!   event-queue scan, discipline ordering, step pricing, …) behind a
//!   single atomic flag, which perfbench's `--trace 1` turns on. This
//!   is the one module that touches wall clocks — and it never feeds
//!   event timestamps.
//! * [`perfetto`] — renders a collected event stream as Chrome
//!   trace-event / Perfetto JSON: one lane per replica, one span per
//!   request, instants for rejections and preemptions.
//! * [`json`] — the minimal deterministic JSON writer/parser the
//!   sinks and exporters share (the workspace vendors a no-op `serde`
//!   stub, so codecs are hand-written, like `Trace::to_text`).
//!
//! # Example
//!
//! ```
//! use alisa_obs::{Event, EventKind, MemorySink, MetricsRegistry, TraceSink};
//!
//! let mut sink = MemorySink::new();
//! sink.emit(&Event {
//!     t: 0.5,
//!     replica: None,
//!     request: Some(3),
//!     kind: EventKind::Arrival {
//!         prompt_len: 128,
//!         output_len: 32,
//!     },
//! });
//! assert_eq!(sink.events().len(), 1);
//! let reg = MetricsRegistry::from_events(sink.events());
//! assert_eq!(reg.counter("arrived"), 1);
//! // Every event round-trips through its JSON line form.
//! let line = sink.events()[0].to_json();
//! assert_eq!(Event::from_json(&line).unwrap(), sink.events()[0]);
//! ```

#![deny(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod sink;

pub use event::{Event, EventKind};
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{Phase, PhaseTimer, ProfileReport};
pub use sink::{JsonlSink, MemorySink, NullSink, TraceSink};
