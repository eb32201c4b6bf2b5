//! Queue disciplines: *in what order* admission spends the KV budget.
//!
//! [`crate::AdmissionPolicy`] answers one question — how many GPU bytes
//! a request costs (`gpu_kv_bytes`, `attended_tokens`,
//! `step_overhead`). It deliberately says nothing about *which* queued
//! request gets the next slice of freed HBM; that ordering decision is
//! this module's [`QueueDiscipline`]. Splitting the two keeps pricing
//! back-compat pinned (FCFS under any policy reproduces the pre-split
//! reports byte-for-byte) while making the scheduler a first-class,
//! swappable lever, the way continuous-batching servers treat it:
//!
//! * [`QueueDiscipline::Fcfs`] — strict arrival order; the head of the
//!   queue blocks everything behind it (the default, and the legacy
//!   behaviour).
//! * [`QueueDiscipline::ShortestJobFirst`] — order by the admission
//!   policy's *priced* reservation, cheapest first, with an aging knob
//!   that decays a waiter's effective size to zero so no request
//!   starves.
//! * [`QueueDiscipline::BestFit`] — each admission slot goes to the
//!   largest reservation that still fits the current headroom, packing
//!   the HBM instead of draining the queue in order.
//! * [`QueueDiscipline::PreemptiveSjf`] — SJF ordering plus victim
//!   selection: once a blocked candidate has waited past a patience
//!   threshold, the cheapest-to-restart running request is evicted and
//!   re-queued (its re-prefill priced through
//!   [`crate::ServeEngine::step_time`] when it is re-admitted).
//!
//! Disciplines are pure ordering rules over `(reservation bytes, wait
//! time, headroom)`; they never touch the pricing model, so every
//! discipline is comparable under every [`crate::AdmissionPolicy`].

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Default aging horizon (seconds): a queued request's effective size
/// decays to zero over this span, after which size-ordered disciplines
/// treat it as infinitely urgent and fall back to FIFO among the aged.
const DEFAULT_AGING_S: f64 = 60.0;

/// Default preemption patience (seconds) a blocked candidate must have
/// waited before [`QueueDiscipline::PreemptiveSjf`] evicts a victim.
const DEFAULT_PATIENCE_S: f64 = 2.0;

/// How admission orders the queue and (for the preemptive variant)
/// picks victims. Constructed via the builder-style constructors, like
/// [`alisa_tensor::quant::PrecisionPolicy`]:
///
/// ```
/// use alisa_serve::QueueDiscipline;
///
/// let fcfs = QueueDiscipline::fcfs();
/// assert_eq!(fcfs, QueueDiscipline::default());
/// assert!(fcfs.is_fcfs());
///
/// let sjf = QueueDiscipline::sjf().with_aging(30.0);
/// assert_eq!(sjf.name(), "sjf");
/// assert_eq!(sjf.preemption_patience(), None, "SJF never evicts");
///
/// let pre = QueueDiscipline::preemptive_sjf().with_patience(1.0);
/// assert_eq!(pre.preemption_patience(), Some(1.0));
/// assert_eq!(QueueDiscipline::best_fit().name(), "best-fit");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// First-come-first-served: strict arrival order, head-of-line
    /// blocking and all. The default; reproduces every pre-split
    /// report byte-for-byte.
    #[default]
    Fcfs,
    /// Shortest-job-first over the policy-priced reservation.
    ShortestJobFirst {
        /// Seconds over which a waiter's effective size decays to
        /// zero (bounds starvation). `f64::INFINITY` disables aging —
        /// pure SJF, which can starve giants under sustained load.
        aging_s: f64,
    },
    /// Largest reservation that fits the current headroom — a bin-
    /// packing admission that keeps the HBM full instead of honoring
    /// queue order.
    BestFit,
    /// [`QueueDiscipline::ShortestJobFirst`] ordering plus preemption:
    /// a candidate blocked past `patience_s` evicts the cheapest-to-
    /// restart running victim, which re-enters the queue and re-prefills
    /// on re-admission.
    PreemptiveSjf {
        /// Starvation-bounding aging horizon, as in
        /// [`QueueDiscipline::ShortestJobFirst`].
        aging_s: f64,
        /// Seconds a blocked candidate must have waited before a
        /// running victim may be evicted for it.
        patience_s: f64,
    },
}

impl QueueDiscipline {
    /// Strict arrival order (the default discipline).
    ///
    /// ```
    /// use alisa_serve::QueueDiscipline;
    /// assert!(QueueDiscipline::fcfs().is_fcfs());
    /// ```
    pub fn fcfs() -> Self {
        QueueDiscipline::Fcfs
    }

    /// Shortest-job-first with the default 60 s aging horizon.
    ///
    /// ```
    /// use alisa_serve::QueueDiscipline;
    /// let d = QueueDiscipline::sjf();
    /// assert_eq!(d.name(), "sjf");
    /// assert!(!d.is_fcfs());
    /// ```
    pub fn sjf() -> Self {
        QueueDiscipline::ShortestJobFirst {
            aging_s: DEFAULT_AGING_S,
        }
    }

    /// Best-fit packing admission.
    ///
    /// ```
    /// use alisa_serve::QueueDiscipline;
    /// assert_eq!(QueueDiscipline::best_fit().name(), "best-fit");
    /// ```
    pub fn best_fit() -> Self {
        QueueDiscipline::BestFit
    }

    /// Preemptive SJF with the default 60 s aging horizon and 2 s
    /// patience.
    ///
    /// ```
    /// use alisa_serve::QueueDiscipline;
    /// let d = QueueDiscipline::preemptive_sjf();
    /// assert_eq!(d.name(), "preemptive-sjf");
    /// assert!(d.preemption_patience().is_some());
    /// ```
    pub fn preemptive_sjf() -> Self {
        QueueDiscipline::PreemptiveSjf {
            aging_s: DEFAULT_AGING_S,
            patience_s: DEFAULT_PATIENCE_S,
        }
    }

    /// Overrides the aging horizon of a size-ordered discipline.
    ///
    /// ```
    /// use alisa_serve::QueueDiscipline;
    /// let d = QueueDiscipline::preemptive_sjf().with_aging(f64::INFINITY);
    /// assert_eq!(d.name(), "preemptive-sjf");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on [`QueueDiscipline::Fcfs`] / [`QueueDiscipline::BestFit`]
    /// (neither orders by aged size) or a non-positive horizon.
    pub fn with_aging(mut self, aging_s: f64) -> Self {
        assert!(aging_s > 0.0, "aging horizon must be positive");
        match &mut self {
            QueueDiscipline::ShortestJobFirst { aging_s: a }
            | QueueDiscipline::PreemptiveSjf { aging_s: a, .. } => *a = aging_s,
            _ => panic!("{} has no aging knob", self.name()),
        }
        self
    }

    /// Overrides the preemption patience.
    ///
    /// ```
    /// use alisa_serve::QueueDiscipline;
    /// let d = QueueDiscipline::preemptive_sjf().with_patience(0.5);
    /// assert_eq!(d.preemption_patience(), Some(0.5));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless the discipline is
    /// [`QueueDiscipline::PreemptiveSjf`], or on a negative patience.
    pub fn with_patience(mut self, patience_s: f64) -> Self {
        assert!(patience_s >= 0.0, "patience must be non-negative");
        match &mut self {
            QueueDiscipline::PreemptiveSjf { patience_s: p, .. } => *p = patience_s,
            _ => panic!("{} never preempts", self.name()),
        }
        self
    }

    /// Display name, as used in figures and reports.
    pub fn name(&self) -> &'static str {
        match self {
            QueueDiscipline::Fcfs => "fcfs",
            QueueDiscipline::ShortestJobFirst { .. } => "sjf",
            QueueDiscipline::BestFit => "best-fit",
            QueueDiscipline::PreemptiveSjf { .. } => "preemptive-sjf",
        }
    }

    /// Whether this is the legacy FCFS discipline (reports omit
    /// discipline stats for it, keeping pre-split fixtures
    /// byte-identical).
    pub fn is_fcfs(&self) -> bool {
        matches!(self, QueueDiscipline::Fcfs)
    }

    /// The patience threshold after which a blocked candidate may evict
    /// a running victim — `Some` only for the preemptive variant.
    pub fn preemption_patience(&self) -> Option<f64> {
        match *self {
            QueueDiscipline::PreemptiveSjf { patience_s, .. } => Some(patience_s),
            _ => None,
        }
    }

    /// The admission-order key of a request whose priced reservation is
    /// `res` bytes after waiting `wait` seconds: smaller admits first.
    /// FCFS keys everything equally (queue position breaks the tie);
    /// size-ordered disciplines decay the key linearly to zero over the
    /// aging horizon, so every waiter eventually outranks every fresh
    /// arrival and admission degenerates to FIFO among the fully aged —
    /// the no-starvation bound.
    pub fn order_key(&self, res: u64, wait: f64) -> f64 {
        match *self {
            QueueDiscipline::Fcfs | QueueDiscipline::BestFit => 0.0,
            QueueDiscipline::ShortestJobFirst { aging_s }
            | QueueDiscipline::PreemptiveSjf { aging_s, .. } => {
                let decay = if aging_s.is_finite() {
                    (1.0 - wait / aging_s).max(0.0)
                } else {
                    1.0
                };
                res as f64 * decay
            }
        }
    }

    /// Picks the next admission candidate: the *position* in `queue` of
    /// the request to try next, or `None` when the discipline has no
    /// admissible candidate (empty queue; for best-fit, nothing fits
    /// `headroom`). `res` prices a request's reservation, `wait` its
    /// time in the queue. Ties break to the earliest queue position, so
    /// selection is deterministic.
    ///
    /// The caller still re-checks the actual (possibly reuse-shrunk)
    /// reservation against the budget: FCFS/SJF candidates may not fit,
    /// which is exactly the head-of-line block the caller reacts to
    /// (stop admitting, or preempt).
    pub fn select<R, W>(
        &self,
        queue: &VecDeque<usize>,
        headroom: u64,
        res: R,
        wait: W,
    ) -> Option<usize>
    where
        R: Fn(usize) -> u64,
        W: Fn(usize) -> f64,
    {
        if queue.is_empty() {
            return None;
        }
        match self {
            QueueDiscipline::Fcfs => Some(0),
            QueueDiscipline::ShortestJobFirst { .. } | QueueDiscipline::PreemptiveSjf { .. } => {
                let mut best = 0usize;
                let mut best_key = f64::INFINITY;
                for (pos, &id) in queue.iter().enumerate() {
                    let key = self.order_key(res(id), wait(id));
                    if key < best_key {
                        best_key = key;
                        best = pos;
                    }
                }
                Some(best)
            }
            QueueDiscipline::BestFit => {
                let mut best: Option<usize> = None;
                let mut best_res = 0u64;
                for (pos, &id) in queue.iter().enumerate() {
                    let r = res(id);
                    if r <= headroom && (best.is_none() || r > best_res) {
                        best = Some(pos);
                        best_res = r;
                    }
                }
                best
            }
        }
    }
}

/// Preemption/re-queue counters a non-FCFS discipline adds to the
/// [`crate::ServeReport`]. Present only when such a discipline actually
/// ran, so pre-split canonical reports stay byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisciplineStats {
    /// Discipline name ([`QueueDiscipline::name`]); fleets join the
    /// deduplicated per-replica names with `+`.
    pub discipline: String,
    /// Preemption events: a running request evicted for a blocked
    /// candidate (each eviction counts, even of the same request).
    pub preemptions: u64,
    /// Distinct requests preempted at least once. Every one re-entered
    /// the queue and was eventually re-admitted — preemption never
    /// drops a request.
    pub preempted_requests: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(ids: &[usize]) -> VecDeque<usize> {
        ids.iter().copied().collect()
    }

    #[test]
    fn fcfs_always_picks_the_head() {
        let d = QueueDiscipline::fcfs();
        let q = queue(&[7, 3, 9]);
        assert_eq!(d.select(&q, 0, |_| 1, |_| 0.0), Some(0));
        assert_eq!(d.select(&queue(&[]), u64::MAX, |_| 1, |_| 0.0), None);
    }

    #[test]
    fn sjf_picks_the_cheapest_reservation() {
        let d = QueueDiscipline::sjf();
        let q = queue(&[10, 11, 12]);
        let res = |id: usize| match id {
            10 => 500u64,
            11 => 100,
            _ => 300,
        };
        assert_eq!(d.select(&q, 0, res, |_| 0.0), Some(1));
        // Ties break to the earliest position.
        assert_eq!(d.select(&q, 0, |_| 7u64, |_| 0.0), Some(0));
    }

    #[test]
    fn aging_decays_keys_to_zero_then_fifo() {
        let d = QueueDiscipline::sjf().with_aging(10.0);
        assert_eq!(d.order_key(1000, 0.0), 1000.0);
        assert_eq!(d.order_key(1000, 5.0), 500.0);
        assert_eq!(d.order_key(1000, 10.0), 0.0);
        assert_eq!(d.order_key(1000, 99.0), 0.0, "decay clamps at zero");
        // A fully aged giant outranks a fresh small job…
        let q = queue(&[0, 1]);
        let res = |id: usize| if id == 0 { 1_000_000u64 } else { 10 };
        let wait = |id: usize| if id == 0 { 10.0 } else { 0.0 };
        assert_eq!(d.select(&q, 0, res, wait), Some(0));
        // …and two aged jobs tie back to FIFO order.
        assert_eq!(d.select(&q, 0, res, |_| 30.0), Some(0));
    }

    #[test]
    fn infinite_aging_is_pure_sjf() {
        let d = QueueDiscipline::sjf().with_aging(f64::INFINITY);
        assert_eq!(d.order_key(1000, 1e12), 1000.0);
    }

    #[test]
    fn best_fit_takes_the_largest_that_fits() {
        let d = QueueDiscipline::best_fit();
        let q = queue(&[0, 1, 2, 3]);
        let res = |id: usize| [400u64, 900, 700, 700][id];
        assert_eq!(
            d.select(&q, 800, res, |_| 0.0),
            Some(2),
            "700 fits, 900 not"
        );
        assert_eq!(d.select(&q, 1000, res, |_| 0.0), Some(1));
        assert_eq!(d.select(&q, 300, res, |_| 0.0), None, "nothing fits");
        // Equal sizes: earliest position wins.
        assert_eq!(d.select(&q, 750, res, |_| 0.0), Some(2));
    }

    #[test]
    fn preemption_patience_is_variant_gated() {
        assert_eq!(QueueDiscipline::fcfs().preemption_patience(), None);
        assert_eq!(QueueDiscipline::sjf().preemption_patience(), None);
        assert_eq!(QueueDiscipline::best_fit().preemption_patience(), None);
        assert_eq!(
            QueueDiscipline::preemptive_sjf()
                .with_patience(3.5)
                .preemption_patience(),
            Some(3.5)
        );
    }

    #[test]
    #[should_panic(expected = "no aging knob")]
    fn fcfs_rejects_aging() {
        let _ = QueueDiscipline::fcfs().with_aging(1.0);
    }

    #[test]
    #[should_panic(expected = "never preempts")]
    fn sjf_rejects_patience() {
        let _ = QueueDiscipline::sjf().with_patience(1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_aging_rejected() {
        let _ = QueueDiscipline::sjf().with_aging(0.0);
    }
}
