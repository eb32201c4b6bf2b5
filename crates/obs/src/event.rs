//! The structured event model: one record per lifecycle decision.
//!
//! Every event carries the **simulation clock** (`t`, seconds) — never
//! wall time — so a trace is a pure function of the workload seed and
//! two same-seed runs serialize byte-identically. The optional
//! `replica` / `request` coordinates let exporters group events into
//! per-replica lanes and per-request spans.
//!
//! The JSON line form ([`Event::to_json`] / [`Event::from_json`]) is
//! the interchange format for the JSONL sink, the CI schema validator,
//! and the Perfetto exporter's input.

use crate::json::{self, escape, Json};
use std::fmt::Write as _;

/// One observable decision in the serving stack.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation-clock timestamp in seconds (never wall time).
    pub t: f64,
    /// Replica index, when the event is replica-local (router runs).
    pub replica: Option<usize>,
    /// Request id, when the event concerns a single request.
    pub request: Option<usize>,
    /// What happened.
    pub kind: EventKind,
}

/// The decision taxonomy: what a single [`Event`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A request entered the queue.
    Arrival {
        /// Prompt length in tokens.
        prompt_len: usize,
        /// Requested output length in tokens.
        output_len: usize,
    },
    /// A request was admitted, with the full KV-pricing breakdown.
    Admitted {
        /// Total bytes reserved for this request (KV + activations).
        reservation_bytes: u64,
        /// KV-cache component of the reservation.
        kv_bytes: u64,
        /// Activation component of the reservation.
        activation_bytes: u64,
        /// Total reserved bytes across all running requests after
        /// this admission.
        reserved_after: u64,
        /// The admission budget the reservation was priced against.
        budget: u64,
        /// Prefix tokens reused from session retention (0 = cold).
        reused_prefix: usize,
        /// Seconds the request waited in queue before admission.
        queue_wait_s: f64,
    },
    /// A request was rejected; `decision_trace` names the losing
    /// comparison (ADR-0004 style).
    Rejected {
        /// Stable reason label (`infeasible` or `queue-timeout`).
        reason: String,
        /// Seconds waited in queue at the moment of rejection.
        queue_wait_s: f64,
        /// Human-readable trace of the comparison that failed.
        decision_trace: String,
    },
    /// A running request was preempted in favour of another.
    Preempted {
        /// The request id that won the slot.
        victim_of: usize,
        /// Seconds of prefill work that must be redone on re-admission.
        restart_cost_s: f64,
        /// Human-readable trace of the comparison that evicted it.
        decision_trace: String,
    },
    /// Session retention served a warm prefix.
    RetentionHit {
        /// Session id.
        session: u64,
        /// Prefix tokens reused.
        reused_tokens: usize,
    },
    /// A session's prefix was looked up but not retained.
    RetentionMiss {
        /// Session id.
        session: u64,
    },
    /// A finished turn's KV prefix was stored for the next turn.
    RetentionStore {
        /// Session id.
        session: u64,
        /// Stored prefix length in tokens.
        seq_len: usize,
        /// Stored bytes.
        bytes: u64,
    },
    /// A retained prefix was evicted to free budget.
    RetentionEvict {
        /// Session id.
        session: u64,
        /// Evicted prefix length in tokens.
        seq_len: usize,
        /// Freed bytes.
        bytes: u64,
    },
    /// One engine step completed.
    Step {
        /// Step duration in seconds (simulated).
        dur_s: f64,
        /// Requests prefilled this step.
        prefills: usize,
        /// Requests decoded this step.
        decodes: usize,
        /// KV bytes reserved at the end of the step.
        kv_reserved: u64,
        /// Queue depth at the end of the step.
        queue_depth: usize,
    },
    /// A request finished generation.
    Finished {
        /// Tokens generated.
        generated: usize,
        /// End-to-end latency in seconds.
        e2e_s: f64,
    },
    /// The router dispatched an arrival to a replica.
    Dispatch {
        /// Target replica index.
        target: usize,
        /// Load-balance policy label.
        lb: String,
    },
    /// The router bounced a request back to the global queue.
    Requeue {
        /// Replica the request bounced off.
        from: usize,
    },
    /// KV state handed off between replicas (disaggregated serving).
    Handoff {
        /// Source (prefill) replica.
        from: usize,
        /// Destination (decode) replica.
        to: usize,
        /// KV bytes transferred.
        bytes: u64,
        /// Transfer latency in seconds.
        transfer_s: f64,
    },
    /// The autoscaler brought a standby replica up.
    ReplicaUp {
        /// Replicas admitting traffic after this scale-up.
        replicas_up: usize,
        /// Human-readable trace of the signals that triggered it.
        decision_trace: String,
    },
    /// The autoscaler started draining a replica (stop admitting,
    /// finish what is running, then go standby).
    ReplicaDrained {
        /// Replicas still admitting traffic after this drain.
        replicas_up: usize,
        /// Human-readable trace of the signals that triggered it.
        decision_trace: String,
    },
    /// A replica was killed by failure injection; its KV state —
    /// reservations and retained sessions — is gone.
    ReplicaFailed {
        /// Queued + running requests on the replica at kill time.
        in_flight: usize,
        /// Human-readable trace of what was lost.
        decision_trace: String,
    },
    /// An in-flight session lost to a replica failure was re-homed on
    /// a survivor; its KV must be rebuilt by re-prefilling.
    SessionRecovered {
        /// The failed replica it was lost from.
        from: usize,
        /// The survivor it was re-homed on.
        to: usize,
        /// Tokens of KV state the survivor must rebuild.
        rebuilt_tokens: usize,
        /// Human-readable trace of the placement decision.
        decision_trace: String,
    },
}

impl EventKind {
    /// The stable kind label used in the JSON form.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Arrival { .. } => "arrival",
            EventKind::Admitted { .. } => "admitted",
            EventKind::Rejected { .. } => "rejected",
            EventKind::Preempted { .. } => "preempted",
            EventKind::RetentionHit { .. } => "retention-hit",
            EventKind::RetentionMiss { .. } => "retention-miss",
            EventKind::RetentionStore { .. } => "retention-store",
            EventKind::RetentionEvict { .. } => "retention-evict",
            EventKind::Step { .. } => "step",
            EventKind::Finished { .. } => "finished",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::Requeue { .. } => "requeue",
            EventKind::Handoff { .. } => "handoff",
            EventKind::ReplicaUp { .. } => "replica-up",
            EventKind::ReplicaDrained { .. } => "replica-drained",
            EventKind::ReplicaFailed { .. } => "replica-failed",
            EventKind::SessionRecovered { .. } => "session-recovered",
        }
    }
}

impl Event {
    /// Serializes the event as one deterministic JSON line (no trailing
    /// newline). Field order is fixed; floats use Rust's shortest
    /// round-trip form, so equal events always produce identical bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"t\":{}", self.t);
        if let Some(r) = self.replica {
            let _ = write!(s, ",\"replica\":{r}");
        }
        if let Some(r) = self.request {
            let _ = write!(s, ",\"request\":{r}");
        }
        let _ = write!(s, ",\"kind\":\"{}\"", self.kind.name());
        match &self.kind {
            EventKind::Arrival {
                prompt_len,
                output_len,
            } => {
                let _ = write!(
                    s,
                    ",\"prompt_len\":{prompt_len},\"output_len\":{output_len}"
                );
            }
            EventKind::Admitted {
                reservation_bytes,
                kv_bytes,
                activation_bytes,
                reserved_after,
                budget,
                reused_prefix,
                queue_wait_s,
            } => {
                let _ = write!(
                    s,
                    ",\"reservation_bytes\":{reservation_bytes},\"kv_bytes\":{kv_bytes},\
                     \"activation_bytes\":{activation_bytes},\"reserved_after\":{reserved_after},\
                     \"budget\":{budget},\"reused_prefix\":{reused_prefix},\
                     \"queue_wait_s\":{queue_wait_s}"
                );
            }
            EventKind::Rejected {
                reason,
                queue_wait_s,
                decision_trace,
            } => {
                let _ = write!(
                    s,
                    ",\"reason\":{},\"queue_wait_s\":{queue_wait_s},\"decision_trace\":{}",
                    escape(reason),
                    escape(decision_trace)
                );
            }
            EventKind::Preempted {
                victim_of,
                restart_cost_s,
                decision_trace,
            } => {
                let _ = write!(
                    s,
                    ",\"victim_of\":{victim_of},\"restart_cost_s\":{restart_cost_s},\
                     \"decision_trace\":{}",
                    escape(decision_trace)
                );
            }
            EventKind::RetentionHit {
                session,
                reused_tokens,
            } => {
                let _ = write!(
                    s,
                    ",\"session\":{session},\"reused_tokens\":{reused_tokens}"
                );
            }
            EventKind::RetentionMiss { session } => {
                let _ = write!(s, ",\"session\":{session}");
            }
            EventKind::RetentionStore {
                session,
                seq_len,
                bytes,
            }
            | EventKind::RetentionEvict {
                session,
                seq_len,
                bytes,
            } => {
                let _ = write!(
                    s,
                    ",\"session\":{session},\"seq_len\":{seq_len},\"bytes\":{bytes}"
                );
            }
            EventKind::Step {
                dur_s,
                prefills,
                decodes,
                kv_reserved,
                queue_depth,
            } => {
                let _ = write!(
                    s,
                    ",\"dur_s\":{dur_s},\"prefills\":{prefills},\"decodes\":{decodes},\
                     \"kv_reserved\":{kv_reserved},\"queue_depth\":{queue_depth}"
                );
            }
            EventKind::Finished { generated, e2e_s } => {
                let _ = write!(s, ",\"generated\":{generated},\"e2e_s\":{e2e_s}");
            }
            EventKind::Dispatch { target, lb } => {
                let _ = write!(s, ",\"target\":{target},\"lb\":{}", escape(lb));
            }
            EventKind::Requeue { from } => {
                let _ = write!(s, ",\"from\":{from}");
            }
            EventKind::Handoff {
                from,
                to,
                bytes,
                transfer_s,
            } => {
                let _ = write!(
                    s,
                    ",\"from\":{from},\"to\":{to},\"bytes\":{bytes},\"transfer_s\":{transfer_s}"
                );
            }
            EventKind::ReplicaUp {
                replicas_up,
                decision_trace,
            }
            | EventKind::ReplicaDrained {
                replicas_up,
                decision_trace,
            } => {
                let _ = write!(
                    s,
                    ",\"replicas_up\":{replicas_up},\"decision_trace\":{}",
                    escape(decision_trace)
                );
            }
            EventKind::ReplicaFailed {
                in_flight,
                decision_trace,
            } => {
                let _ = write!(
                    s,
                    ",\"in_flight\":{in_flight},\"decision_trace\":{}",
                    escape(decision_trace)
                );
            }
            EventKind::SessionRecovered {
                from,
                to,
                rebuilt_tokens,
                decision_trace,
            } => {
                let _ = write!(
                    s,
                    ",\"from\":{from},\"to\":{to},\"rebuilt_tokens\":{rebuilt_tokens},\
                     \"decision_trace\":{}",
                    escape(decision_trace)
                );
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSON line back into an [`Event`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed field on any
    /// line that does not conform to the event schema.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let v = json::parse(line)?;
        let t = num(&v, "t")?;
        let replica = opt_usize(&v, "replica")?;
        let request = opt_usize(&v, "request")?;
        let kind_name = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing `kind`")?;
        let kind = match kind_name {
            "arrival" => EventKind::Arrival {
                prompt_len: uint(&v, "prompt_len")? as usize,
                output_len: uint(&v, "output_len")? as usize,
            },
            "admitted" => EventKind::Admitted {
                reservation_bytes: uint(&v, "reservation_bytes")?,
                kv_bytes: uint(&v, "kv_bytes")?,
                activation_bytes: uint(&v, "activation_bytes")?,
                reserved_after: uint(&v, "reserved_after")?,
                budget: uint(&v, "budget")?,
                reused_prefix: uint(&v, "reused_prefix")? as usize,
                queue_wait_s: num(&v, "queue_wait_s")?,
            },
            "rejected" => EventKind::Rejected {
                reason: text(&v, "reason")?,
                queue_wait_s: num(&v, "queue_wait_s")?,
                decision_trace: text(&v, "decision_trace")?,
            },
            "preempted" => EventKind::Preempted {
                victim_of: uint(&v, "victim_of")? as usize,
                restart_cost_s: num(&v, "restart_cost_s")?,
                decision_trace: text(&v, "decision_trace")?,
            },
            "retention-hit" => EventKind::RetentionHit {
                session: uint(&v, "session")?,
                reused_tokens: uint(&v, "reused_tokens")? as usize,
            },
            "retention-miss" => EventKind::RetentionMiss {
                session: uint(&v, "session")?,
            },
            "retention-store" => EventKind::RetentionStore {
                session: uint(&v, "session")?,
                seq_len: uint(&v, "seq_len")? as usize,
                bytes: uint(&v, "bytes")?,
            },
            "retention-evict" => EventKind::RetentionEvict {
                session: uint(&v, "session")?,
                seq_len: uint(&v, "seq_len")? as usize,
                bytes: uint(&v, "bytes")?,
            },
            "step" => EventKind::Step {
                dur_s: num(&v, "dur_s")?,
                prefills: uint(&v, "prefills")? as usize,
                decodes: uint(&v, "decodes")? as usize,
                kv_reserved: uint(&v, "kv_reserved")?,
                queue_depth: uint(&v, "queue_depth")? as usize,
            },
            "finished" => EventKind::Finished {
                generated: uint(&v, "generated")? as usize,
                e2e_s: num(&v, "e2e_s")?,
            },
            "dispatch" => EventKind::Dispatch {
                target: uint(&v, "target")? as usize,
                lb: text(&v, "lb")?,
            },
            "requeue" => EventKind::Requeue {
                from: uint(&v, "from")? as usize,
            },
            "handoff" => EventKind::Handoff {
                from: uint(&v, "from")? as usize,
                to: uint(&v, "to")? as usize,
                bytes: uint(&v, "bytes")?,
                transfer_s: num(&v, "transfer_s")?,
            },
            "replica-up" => EventKind::ReplicaUp {
                replicas_up: uint(&v, "replicas_up")? as usize,
                decision_trace: text(&v, "decision_trace")?,
            },
            "replica-drained" => EventKind::ReplicaDrained {
                replicas_up: uint(&v, "replicas_up")? as usize,
                decision_trace: text(&v, "decision_trace")?,
            },
            "replica-failed" => EventKind::ReplicaFailed {
                in_flight: uint(&v, "in_flight")? as usize,
                decision_trace: text(&v, "decision_trace")?,
            },
            "session-recovered" => EventKind::SessionRecovered {
                from: uint(&v, "from")? as usize,
                to: uint(&v, "to")? as usize,
                rebuilt_tokens: uint(&v, "rebuilt_tokens")? as usize,
                decision_trace: text(&v, "decision_trace")?,
            },
            other => return Err(format!("unknown event kind `{other}`")),
        };
        Ok(Event {
            t,
            replica,
            request,
            kind,
        })
    }
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric `{key}`"))
}

fn uint(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("non-integer `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::Arrival {
                prompt_len: 128,
                output_len: 32,
            },
            EventKind::Admitted {
                reservation_bytes: 4096,
                kv_bytes: 3072,
                activation_bytes: 1024,
                reserved_after: 8192,
                budget: 1 << 20,
                reused_prefix: 64,
                queue_wait_s: 0.125,
            },
            EventKind::Rejected {
                reason: "queue-timeout".into(),
                queue_wait_s: 30.5,
                decision_trace: "waited 30.5s > timeout 30s under sjf".into(),
            },
            EventKind::Preempted {
                victim_of: 9,
                restart_cost_s: 0.75,
                decision_trace: "res 2048 < victim res 4096".into(),
            },
            EventKind::RetentionHit {
                session: 3,
                reused_tokens: 96,
            },
            EventKind::RetentionMiss { session: 4 },
            EventKind::RetentionStore {
                session: 3,
                seq_len: 160,
                bytes: 5120,
            },
            EventKind::RetentionEvict {
                session: 2,
                seq_len: 80,
                bytes: 2560,
            },
            EventKind::Step {
                dur_s: 0.0625,
                prefills: 1,
                decodes: 7,
                kv_reserved: 65536,
                queue_depth: 3,
            },
            EventKind::Finished {
                generated: 32,
                e2e_s: 2.5,
            },
            EventKind::Dispatch {
                target: 1,
                lb: "least-loaded".into(),
            },
            EventKind::Requeue { from: 1 },
            EventKind::Handoff {
                from: 0,
                to: 1,
                bytes: 65536,
                transfer_s: 0.001,
            },
            EventKind::ReplicaUp {
                replicas_up: 3,
                decision_trace: "attainment 0.82 < target 0.9".into(),
            },
            EventKind::ReplicaDrained {
                replicas_up: 2,
                decision_trace: "pressure 0.12 < low 0.35".into(),
            },
            EventKind::ReplicaFailed {
                in_flight: 5,
                decision_trace: "replica 2 killed at t=14.250".into(),
            },
            EventKind::SessionRecovered {
                from: 2,
                to: 0,
                rebuilt_tokens: 640,
                decision_trace: "re-homed on least-outstanding survivor".into(),
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_through_json() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let ev = Event {
                t: 1.5 + i as f64,
                replica: (i % 2 == 0).then_some(i),
                request: Some(100 + i),
                kind,
            };
            let line = ev.to_json();
            let back = Event::from_json(&line)
                .unwrap_or_else(|e| panic!("round trip failed for {line}: {e}"));
            assert_eq!(back, ev, "line {line}");
            // Serialization is stable: re-serializing the parse
            // reproduces the original bytes.
            assert_eq!(back.to_json(), line);
        }
    }

    #[test]
    fn missing_fields_error_with_the_field_name() {
        let err = Event::from_json(r#"{"t":1,"kind":"arrival","prompt_len":4}"#).unwrap_err();
        assert!(err.contains("output_len"), "{err}");
        let err = Event::from_json(r#"{"t":1,"kind":"warp"}"#).unwrap_err();
        assert!(err.contains("warp"), "{err}");
        // No KV changes width on its way into the FP16 hot window, so
        // `transcode` is not a kind.
        let line = r#"{"t":1,"kind":"transcode","region":"gpu","fp16_bytes":4,"stored_bytes":2}"#;
        let err = Event::from_json(line).unwrap_err();
        assert_eq!(err, "unknown event kind `transcode`");
        assert!(Event::from_json("not json").is_err());
    }
}
