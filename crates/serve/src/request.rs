//! Request lifecycle model.
//!
//! A serving request is born when its arrival timestamp passes
//! (`Queued`), gets admitted by the continuous-batching engine
//! (`Prefilling`, for the step that builds its prompt KV and emits the
//! first token), decodes one token per engine step (`Decoding`), and
//! leaves as `Finished` — or `Rejected` if admission control bounced it
//! (infeasible footprint or queue-timeout). Under a preemptive
//! [`crate::QueueDiscipline`] a decoding request may additionally be
//! evicted back to the queue (`Preempted`): its KV is released, its
//! generated tokens are kept as progress, and re-admission re-prefills
//! the whole context built so far (prompt + generated) before decoding
//! resumes — preempted requests are re-queued, never dropped.

use alisa_sched::{InvalidWorkload, Workload};
use serde::{Deserialize, Serialize};

use crate::trace::{SessionRef, TraceEntry};

/// Where a request currently sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestState {
    /// Arrived, waiting for admission.
    Queued,
    /// Admitted this step; prompt KV being built.
    Prefilling,
    /// Generating one token per engine step.
    Decoding,
    /// Evicted mid-decode by a preemptive queue discipline; back in the
    /// admission queue with its progress kept, awaiting re-admission
    /// (which re-prefills the context built so far).
    Preempted,
    /// All output tokens generated.
    Finished,
    /// Bounced by admission control.
    Rejected,
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// Its KV footprint can never fit the device budget under the
    /// active admission policy.
    Infeasible,
    /// It waited in the queue longer than the configured timeout. The
    /// payload records *which* discipline scan rejected it and how
    /// long it had waited, so the terminal state agrees exactly with
    /// the decision-trace event emitted at rejection time.
    QueueTimeout {
        /// Seconds spent in queue when the timeout scan fired.
        waited_s: f64,
        /// Name of the queue discipline whose scan rejected it.
        discipline: &'static str,
    },
}

impl RejectReason {
    /// Stable label for traces and metrics (`infeasible` /
    /// `queue-timeout`).
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::Infeasible => "infeasible",
            RejectReason::QueueTimeout { .. } => "queue-timeout",
        }
    }

    /// Human-readable detail, suitable for a decision trace.
    pub fn detail(&self) -> String {
        match self {
            RejectReason::Infeasible => "footprint exceeds device budget".to_string(),
            RejectReason::QueueTimeout {
                waited_s,
                discipline,
            } => format!("waited {waited_s:.3}s; rejected by {discipline} scan"),
        }
    }
}

/// One in-flight (or completed) serving request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Position in the source trace (stable id).
    pub id: usize,
    /// Arrival time in seconds since simulation start.
    pub arrival: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Output budget in tokens.
    pub output_len: usize,
    /// Lifecycle state.
    pub state: RequestState,
    /// When admission control let it in.
    pub admitted_at: Option<f64>,
    /// When its first output token materialized (end of prefill step).
    pub first_token_at: Option<f64>,
    /// When its last output token materialized.
    pub finished_at: Option<f64>,
    /// Why it was rejected, if it was.
    pub reject_reason: Option<RejectReason>,
    /// Output tokens generated so far.
    pub generated: usize,
    /// Session identity carried over from the trace entry (`None` for
    /// legacy single-shot requests).
    pub session: Option<SessionRef>,
    /// Prompt tokens whose prefill was skipped because the session's
    /// prefix KV was still resident at admission (0 when admission
    /// found nothing to reuse).
    pub reused_prefix: usize,
    /// Times this request was preempted (evicted mid-decode and
    /// re-queued by a preemptive [`crate::QueueDiscipline`]).
    pub preemptions: usize,
}

impl Request {
    /// Builds a request from a trace entry, validating the lengths
    /// through [`Workload::try_new`] so malformed entries surface as
    /// errors at the serve boundary instead of panicking mid-simulation.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWorkload`] when either length is zero.
    pub fn from_entry(id: usize, entry: &TraceEntry) -> Result<Self, InvalidWorkload> {
        let wl = Workload::try_new(1, entry.prompt_len, entry.output_len)?;
        Ok(Request {
            id,
            arrival: entry.arrival_s,
            prompt_len: wl.input_len,
            output_len: wl.output_len,
            state: RequestState::Queued,
            admitted_at: None,
            first_token_at: None,
            finished_at: None,
            reject_reason: None,
            generated: 0,
            session: entry.session,
            reused_prefix: 0,
            preemptions: 0,
        })
    }

    /// Current sequence length: prompt plus generated tokens — for a
    /// *preempted* request, the context it must rebuild on re-admission.
    pub fn seq_len(&self) -> usize {
        self.prompt_len + self.generated
    }

    /// Output tokens a preempted request still owes after its kept
    /// progress (at least 1 — a request one token short of done would
    /// have finished, not been preempted).
    pub fn remaining_output_len(&self) -> usize {
        self.output_len.saturating_sub(self.generated).max(1)
    }

    /// Final sequence length once fully decoded.
    pub fn final_seq_len(&self) -> usize {
        self.prompt_len + self.output_len
    }

    /// Time to first token, once known.
    pub fn ttft(&self) -> Option<f64> {
        self.first_token_at.map(|t| t - self.arrival)
    }

    /// End-to-end latency, once finished.
    pub fn e2e(&self) -> Option<f64> {
        self.finished_at.map(|t| t - self.arrival)
    }

    /// Mean time between output tokens (decode cadence). Zero for
    /// single-token outputs.
    pub fn mean_tbt(&self) -> Option<f64> {
        match (self.first_token_at, self.finished_at) {
            (Some(first), Some(last)) if self.generated > 1 => {
                Some((last - first) / (self.generated - 1) as f64)
            }
            (Some(_), Some(_)) => Some(0.0),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(arrival_s: f64, prompt_len: usize, output_len: usize) -> TraceEntry {
        TraceEntry::single_shot(arrival_s, prompt_len, output_len)
    }

    #[test]
    fn session_identity_rides_along() {
        let r = Request::from_entry(0, &TraceEntry::turn(0.0, 32, 8, 4, 1)).unwrap();
        assert_eq!(
            r.session,
            Some(SessionRef {
                session_id: 4,
                turn: 1
            })
        );
        assert_eq!(r.reused_prefix, 0, "reuse is decided at admission");
        let single = Request::from_entry(1, &entry(0.0, 8, 8)).unwrap();
        assert_eq!(single.session, None);
    }

    #[test]
    fn lifecycle_accessors() {
        let mut r = Request::from_entry(0, &entry(1.0, 64, 8)).unwrap();
        assert_eq!(r.state, RequestState::Queued);
        assert_eq!(r.seq_len(), 64);
        assert_eq!(r.final_seq_len(), 72);
        assert_eq!(r.ttft(), None);
        r.first_token_at = Some(3.0);
        r.finished_at = Some(10.0);
        r.generated = 8;
        assert_eq!(r.ttft(), Some(2.0));
        assert_eq!(r.e2e(), Some(9.0));
        assert!((r.mean_tbt().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(r.seq_len(), 72);
    }

    #[test]
    fn malformed_entry_is_reported_not_panicked() {
        let err = Request::from_entry(3, &entry(0.0, 0, 8)).unwrap_err();
        assert_eq!(err.input_len, 0);
        assert!(Request::from_entry(3, &entry(0.0, 8, 0)).is_err());
    }

    #[test]
    fn restart_lengths_track_progress() {
        let mut r = Request::from_entry(0, &entry(0.0, 100, 40)).unwrap();
        assert_eq!(r.seq_len(), 100);
        assert_eq!(r.remaining_output_len(), 40);
        r.generated = 25;
        r.state = RequestState::Preempted;
        assert_eq!(r.seq_len(), 125);
        assert_eq!(r.remaining_output_len(), 15);
    }

    #[test]
    fn single_token_output_has_zero_tbt() {
        let mut r = Request::from_entry(0, &entry(0.0, 4, 1)).unwrap();
        r.first_token_at = Some(1.0);
        r.finished_at = Some(1.0);
        r.generated = 1;
        assert_eq!(r.mean_tbt(), Some(0.0));
    }
}
