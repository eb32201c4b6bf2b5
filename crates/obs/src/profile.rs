//! Self-profiling of the simulator itself: real wall time bucketed
//! into simulator phases.
//!
//! This is the one module in the crate that touches wall clocks, and
//! it never feeds event timestamps — traces stay byte-stable while
//! the profiler measures where the *host* time goes. perfbench's
//! `--trace 1` is its front-end: it reports each phase's totals as
//! per-layer metrics and [`ProfileReport::coverage`] as
//! `obs.profile_coverage` (see `docs/OBSERVABILITY.md`).
//!
//! Design: a process-global `AtomicBool` gate plus one relaxed
//! `AtomicU64` pair (nanoseconds, calls) per [`Phase`]. Disabled cost
//! at an instrumented site is a single relaxed load returning `None`;
//! enabled cost is two `Instant` reads and two relaxed adds. Phases
//! are **disjoint leaves** — no phase encloses another — so the
//! bucket sum never double-counts and coverage is meaningful.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The disjoint simulator phases wall time is bucketed into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The sparsity top-K selection: `GlobalSetModel::pick_into`, once per
    /// step of a scheduler memo of global sets, and the reference `pick`.
    TopK,
    /// The replica step's queue scan (timeouts and re-queue bounces).
    EventScan,
    /// Queue-discipline ordering, admission, and preemption search.
    Discipline,
    /// Per-step KV pricing (`ServeEngine::step_time`).
    Pricing,
    /// Token accounting, completions, and retention upkeep.
    Accounting,
    /// The fleet loop's due events: arrivals, handoffs, re-queues,
    /// autoscaler ticks and kills, with their replica dispatch.
    Dispatch,
    /// Workload generation (`Trace::generate*`).
    TraceGen,
    /// Report assembly: `ServeReport::from_requests`, and the router's
    /// merge of its replicas' timelines into the fleet timeline.
    Report,
}

/// All phases, in the order [`ProfileReport::phases`] lists them.
pub const PHASES: [Phase; 8] = [
    Phase::TopK,
    Phase::EventScan,
    Phase::Discipline,
    Phase::Pricing,
    Phase::Accounting,
    Phase::Dispatch,
    Phase::TraceGen,
    Phase::Report,
];

impl Phase {
    fn index(self) -> usize {
        match self {
            Phase::TopK => 0,
            Phase::EventScan => 1,
            Phase::Discipline => 2,
            Phase::Pricing => 3,
            Phase::Accounting => 4,
            Phase::Dispatch => 5,
            Phase::TraceGen => 6,
            Phase::Report => 7,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NANOS: [AtomicU64; 8] = [const { AtomicU64::new(0) }; 8];
static CALLS: [AtomicU64; 8] = [const { AtomicU64::new(0) }; 8];

/// Turns the profiler on or off (process-global).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the profiler is currently collecting.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all accumulated phase totals.
pub fn reset() {
    for a in &NANOS {
        a.store(0, Ordering::Relaxed);
    }
    for a in &CALLS {
        a.store(0, Ordering::Relaxed);
    }
}

/// Starts timing `phase`, or returns `None` (for ~free) when the
/// profiler is disabled. Bind the result to keep the timer alive for
/// the span being measured:
///
/// ```
/// # use alisa_obs::profile::{timer, Phase};
/// let _p = timer(Phase::TopK);
/// // ... hot code ...
/// ```
#[inline(always)]
pub fn timer(phase: Phase) -> Option<PhaseTimer> {
    if is_enabled() {
        Some(PhaseTimer {
            phase,
            start: Instant::now(),
        })
    } else {
        None
    }
}

/// RAII guard crediting its phase with the elapsed wall time on drop.
#[derive(Debug)]
pub struct PhaseTimer {
    phase: Phase,
    start: Instant,
}

impl Drop for PhaseTimer {
    #[inline]
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        let i = self.phase.index();
        NANOS[i].fetch_add(ns, Ordering::Relaxed);
        CALLS[i].fetch_add(1, Ordering::Relaxed);
    }
}

/// A snapshot of the accumulated phase totals against a measured
/// wall-time denominator.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Total measured wall time of the profiled run, in nanoseconds.
    pub wall_ns: u64,
    /// Per-phase `(phase, nanoseconds, calls)` totals, in [`PHASES`]
    /// order.
    pub phases: Vec<(Phase, u64, u64)>,
}

impl ProfileReport {
    /// Snapshots the global totals against `wall_ns` of measured run
    /// time.
    pub fn capture(wall_ns: u64) -> Self {
        let phases = PHASES
            .iter()
            .map(|p| {
                let i = p.index();
                (
                    *p,
                    NANOS[i].load(Ordering::Relaxed),
                    CALLS[i].load(Ordering::Relaxed),
                )
            })
            .collect();
        Self { wall_ns, phases }
    }

    /// Sum of all phase buckets, in nanoseconds.
    pub fn bucket_ns(&self) -> u64 {
        self.phases.iter().map(|(_, ns, _)| ns).sum()
    }

    /// Fraction of wall time the buckets explain (0 when `wall_ns`
    /// is 0).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.bucket_ns() as f64 / self.wall_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler state is process-global, so the whole lifecycle
    // lives in one test to avoid cross-test interference.
    #[test]
    fn profiler_lifecycle() {
        // Disabled: timer hands out nothing and records nothing.
        reset();
        set_enabled(false);
        assert!(timer(Phase::TopK).is_none());
        let rep = ProfileReport::capture(1_000);
        assert_eq!(rep.bucket_ns(), 0);
        assert_eq!(rep.coverage(), 0.0);

        // Enabled: a held timer credits its phase on drop.
        set_enabled(true);
        {
            let _p = timer(Phase::Discipline);
            std::hint::black_box(vec![0u8; 4096]);
        }
        set_enabled(false);
        let rep = ProfileReport::capture(1_000_000_000);
        let disc = rep
            .phases
            .iter()
            .find(|(p, _, _)| *p == Phase::Discipline)
            .unwrap();
        assert!(disc.1 > 0, "elapsed nanos recorded");
        assert_eq!(disc.2, 1, "one call recorded");
        assert_eq!(rep.bucket_ns(), disc.1, "only the timed phase is credited");

        // Reset clears totals.
        reset();
        assert_eq!(ProfileReport::capture(1).bucket_ns(), 0);
    }
}
