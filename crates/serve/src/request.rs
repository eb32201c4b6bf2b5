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
//!
//! A [`Request`] is also the fleet loop's one record of the request's
//! simulation state: the bytes it books, its queue epoch, its one
//! retry, its reusable session prefix, and the replica that owns it.

use crate::trace::{SessionRef, Trace, TraceEntry};

/// Where a request currently sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequestState {
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

/// One serving request of a run: its lifecycle, and the state the fleet
/// loop keeps for it.
pub(crate) struct Request {
    /// Arrival time in seconds since simulation start.
    pub(crate) arrival: f64,
    /// Prompt length in tokens.
    pub(crate) prompt_len: usize,
    /// Output budget in tokens.
    pub(crate) output_len: usize,
    /// Lifecycle state.
    pub(crate) state: RequestState,
    /// When admission control let it in.
    pub(crate) admitted_at: Option<f64>,
    /// When its first output token materialized (end of prefill step).
    pub(crate) first_token_at: Option<f64>,
    /// When its last output token materialized.
    pub(crate) finished_at: Option<f64>,
    /// Output tokens generated so far.
    pub(crate) generated: usize,
    /// Session identity carried over from the trace entry (`None` for
    /// legacy single-shot requests).
    pub(crate) session: Option<SessionRef>,
    /// Times this request was preempted (evicted mid-decode and
    /// re-queued by a preemptive [`crate::QueueDiscipline`]).
    pub(crate) preemptions: usize,
    /// Session prefix this turn may reuse.
    pub(crate) prefix_len: usize,
    /// Whether a later turn of the request's session exists.
    pub(crate) next_turn: bool,
    /// Bytes the request books on its replica: the no-reuse reservation
    /// of what it [`owes`](Request::owed) while it waits, the booked
    /// (possibly reuse-shrunk) one once admitted.
    pub(crate) booked: u64,
    /// Queue-entry epoch: arrival or dispatch, or the eviction time
    /// after a preemption. Timeouts, aging and patience measure waiting
    /// from here.
    pub(crate) queued_since: f64,
    /// Whether the request already spent its one cross-replica retry.
    pub(crate) was_requeued: bool,
    /// The replica that last accepted it, and so its terminal home;
    /// `None` while no replica has.
    pub(crate) owner: Option<usize>,
}

impl Request {
    /// A fresh request from a validated trace entry (every [`Trace`]
    /// constructor checks the lengths), with no reusable prefix and no
    /// later turn.
    pub(crate) fn from_entry(entry: &TraceEntry) -> Self {
        Request {
            arrival: entry.arrival_s,
            prompt_len: entry.prompt_len,
            output_len: entry.output_len,
            state: RequestState::Queued,
            admitted_at: None,
            first_token_at: None,
            finished_at: None,
            generated: 0,
            session: entry.session,
            preemptions: 0,
            prefix_len: 0,
            next_turn: false,
            booked: 0,
            queued_since: 0.0,
            was_requeued: false,
            owner: None,
        }
    }

    /// One request per trace entry, in trace order, each carrying its
    /// session's reusable prefix and whether a later turn follows.
    pub(crate) fn from_trace(trace: &Trace) -> Vec<Self> {
        let prefix_lens = trace.prefix_lens();
        let next_turn = trace.next_turn_exists();
        (trace.entries().iter().enumerate())
            .map(|(id, e)| Request {
                prefix_len: prefix_lens[id],
                next_turn: next_turn[id],
                ..Request::from_entry(e)
            })
            .collect()
    }

    /// Current sequence length: prompt plus generated tokens.
    pub(crate) fn seq_len(&self) -> usize {
        self.prompt_len + self.generated
    }

    /// What the request owes its next admission, as `(context, output)`:
    /// the context built so far, which a preempted request re-prefills,
    /// and the output still to generate — at least 1, since a request
    /// one token short of done would have finished, not been preempted.
    /// A fresh request owes its trace lengths; a running one owes what
    /// it would if preempted now.
    pub(crate) fn owed(&self) -> (usize, usize) {
        let output = self.output_len.saturating_sub(self.generated).max(1);
        (self.seq_len(), output)
    }

    /// Final sequence length once fully decoded.
    pub(crate) fn final_seq_len(&self) -> usize {
        self.prompt_len + self.output_len
    }

    /// Time to first token, once known.
    pub(crate) fn ttft(&self) -> Option<f64> {
        self.first_token_at.map(|t| t - self.arrival)
    }

    /// End-to-end latency, once finished.
    pub(crate) fn e2e(&self) -> Option<f64> {
        self.finished_at.map(|t| t - self.arrival)
    }

    /// Mean time between output tokens (decode cadence). Zero for
    /// single-token outputs.
    pub(crate) fn mean_tbt(&self) -> Option<f64> {
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
        let r = Request::from_entry(&TraceEntry::turn(0.0, 32, 8, 4, 1));
        assert_eq!(
            r.session,
            Some(SessionRef {
                session_id: 4,
                turn: 1
            })
        );
        let single = Request::from_entry(&entry(0.0, 8, 8));
        assert_eq!(single.session, None);
        // A run's requests carry their session's reusable prefix and
        // whether a later turn follows.
        let trace = Trace::new(vec![
            TraceEntry::turn(0.0, 32, 8, 4, 0),
            TraceEntry::turn(1.0, 48, 8, 4, 1),
        ])
        .unwrap();
        let reqs = Request::from_trace(&trace);
        assert_eq!((reqs[0].prefix_len, reqs[0].next_turn), (0, true));
        assert_eq!((reqs[1].prefix_len, reqs[1].next_turn), (40, false));
    }

    #[test]
    fn lifecycle_accessors() {
        let mut r = Request::from_entry(&entry(1.0, 64, 8));
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
    fn restart_lengths_track_progress() {
        let mut r = Request::from_entry(&entry(0.0, 100, 40));
        assert_eq!(r.owed(), (100, 40));
        r.generated = 25;
        r.state = RequestState::Preempted;
        assert_eq!(r.owed(), (125, 15));
    }

    #[test]
    fn single_token_output_has_zero_tbt() {
        let mut r = Request::from_entry(&entry(0.0, 4, 1));
        r.first_token_at = Some(1.0);
        r.finished_at = Some(1.0);
        r.generated = 1;
        assert_eq!(r.mean_tbt(), Some(0.0));
    }
}
