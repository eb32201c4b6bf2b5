//! Multi-replica serving: a shared [`Router`] over N replica engines.
//!
//! One GPU running ALISA's sparsity-aware admission already sustains a
//! several-fold larger batch than dense paged caching — but production
//! traffic is served by *fleets*. This module scales the request-level
//! simulation to N [`ServeEngine`] replicas behind one router, each
//! replica keeping its own admission policy, KV budget, and clock:
//!
//! * [`LoadBalancePolicy`] — how the router picks a replica per
//!   request: round-robin, least-outstanding-requests,
//!   least-KV-pressure, or sticky session affinity,
//! * replica-local admission — each replica runs the same
//!   discipline-ordered KV-budget admission loop as the single-replica
//!   engine (FCFS by default; see [`crate::QueueDiscipline`]), priced
//!   through the same [`ServeEngine::step_time`] cost path,
//! * cross-replica re-queue — optionally, a request that a replica
//!   bounces (queue timeout) or cannot ever fit gets one more chance on
//!   a different replica before it is finally rejected,
//! * prefill/decode disaggregation ([`DisaggCfg`]) — designated
//!   prefill replicas build prompt KV and hand finished prompts to
//!   decode replicas, with the KV transfer charged through the memsim
//!   cost model (`CostModel::replica_transfer_time_at`, via
//!   [`ServeEngine::kv_handoff_time`]),
//! * fleet dynamics — an autoscaler control loop
//!   ([`RouterConfig::with_autoscaler`]) that brings standby replicas
//!   up and drains them back down from observed SLO attainment and KV
//!   pressure over a sliding window,
//!   and seeded [`FailurePlan`] replica kills whose in-flight sessions
//!   re-prefill on survivors (the lost-KV rebuild priced through
//!   [`ServeEngine::step_time`], retention state discarded),
//! * heterogeneous fleets — replicas may differ in hardware and
//!   precision policy; the least-* balancers normalize their load
//!   signals by each replica's [`ServeEngine::throughput_weight`] so
//!   a fast replica is expected to carry proportionally more.
//!
//! The simulation is a deterministic discrete-event loop — the one loop
//! in the crate: [`ServeEngine::run`] drives itself through it as a
//! 1-replica fleet. Arrivals come from a source (the trace in order, or
//! closed-loop clients), a global event heap ordered by `(time, seq)`
//! holds handoffs, re-queues, scale ticks and kills, and one flat array
//! of the replicas' clocks (`+∞` for an idle replica) says which
//! replicas a sweep steps through the one shared replica step: only
//! those whose clock lags the next pending time, in index order. A
//! 1-replica router run therefore reproduces the engine run byte for
//! byte — asserted by `tests/multi_replica.rs` and
//! `tests/differential.rs`. Under the least-* policies a second flat
//! array holds each replica's load signal (`+∞` for a replica that does
//! not admit), and a dispatch picks the least slot of its tier.
//!
//! # Example
//!
//! ```
//! use alisa_memsim::HardwareSpec;
//! use alisa_model::ModelConfig;
//! use alisa_serve::{
//!     AdmissionPolicy, ArrivalProcess, LoadBalancePolicy, Router, RouterConfig, ServeConfig,
//!     Trace,
//! };
//! use alisa_workloads::LengthModel;
//!
//! let replica = ServeConfig::new(
//!     ModelConfig::opt_6_7b(),
//!     HardwareSpec::v100_16gb(),
//!     AdmissionPolicy::alisa(),
//! );
//! let router = Router::new(
//!     RouterConfig::homogeneous(replica, 2).with_lb(LoadBalancePolicy::LeastOutstanding),
//! );
//! let trace = Trace::generate(
//!     &ArrivalProcess::Poisson { rate: 4.0 },
//!     &LengthModel::alpaca().with_max_output(32),
//!     24,
//!     7,
//! );
//! let report = router.run(&trace);
//! assert_eq!(report.fleet.arrived, 24);
//! assert_eq!(report.fleet.admitted + report.fleet.rejected, 24);
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

use alisa_kvcache::ReuseStats;
use alisa_obs::profile::{self, Phase};
use alisa_obs::{Event, EventKind, NullSink, TraceSink};
use alisa_sched::common::{hash_unit, mix64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::engine::{ClosedLoopCfg, ServeConfig, ServeEngine};
use crate::metrics::{ServeReport, ServeSample};
use crate::replica::{evict_event, Lifecycle, ObsCtx, Replica, Role, StepScratch};
use crate::request::{Request, RequestState};
use crate::trace::Trace;

/// How the router distributes incoming requests across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadBalancePolicy {
    /// Cycle through replicas in index order, one request each.
    RoundRobin,
    /// Send to the replica with the fewest outstanding requests
    /// (queued + running); ties break to the lowest index.
    LeastOutstanding,
    /// Send to the replica with the lowest KV-budget occupancy
    /// (reserved bytes / budget); ties break to the lowest index.
    LeastKvPressure,
    /// Session affinity: requests of the same session always land on
    /// the same replica, so a retained session prefix is where the next
    /// turn arrives. The affinity key is the entry's *real*
    /// [`crate::SessionRef::session_id`]; legacy single-shot entries
    /// (no session id) key on their trace index, folded into `sessions`
    /// buckets — exactly the pre-session `i % sessions` behaviour.
    Sticky {
        /// Hash-bucket count the affinity key is folded into. Use
        /// [`LoadBalancePolicy::sticky`] to key on session ids
        /// unfolded.
        sessions: usize,
    },
}

impl LoadBalancePolicy {
    /// Sticky session affinity keyed on unfolded session ids — the
    /// variant multi-turn traces want (every session hashes to its own
    /// replica choice).
    pub fn sticky() -> Self {
        LoadBalancePolicy::Sticky {
            sessions: usize::MAX,
        }
    }

    /// Display name, as used in figures and reports.
    pub fn name(&self) -> &'static str {
        match self {
            LoadBalancePolicy::RoundRobin => "round-robin",
            LoadBalancePolicy::LeastOutstanding => "least-outstanding",
            LoadBalancePolicy::LeastKvPressure => "least-kv",
            LoadBalancePolicy::Sticky { .. } => "sticky",
        }
    }
}

/// Prefill/decode disaggregation: the first `prefill_replicas` replicas
/// only run prompt prefills and ship the resulting KV state to the
/// remaining decode replicas, paying the staged host transfer from the
/// memsim cost model for every handoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisaggCfg {
    /// How many replicas (taken from the front of the replica list) are
    /// dedicated to prefill. Must be at least 1 and strictly fewer than
    /// the total replica count.
    pub prefill_replicas: usize,
}

/// The autoscaler scales up while windowed SLO attainment is below
/// this.
const TARGET_ATTAINMENT: f64 = 0.9;
/// The autoscaler scales up while mean KV pressure is above this.
const PRESSURE_HIGH: f64 = 0.7;
/// The autoscaler drains only while mean KV pressure is below this.
const PRESSURE_LOW: f64 = 0.3;
/// Replicas that always admit: the autoscaler's initial fleet, which it
/// never drains below.
const MIN_REPLICAS: usize = 1;
/// Simulation seconds between autoscaler evaluations.
const SCALE_INTERVAL_S: f64 = 1.0;
/// Sliding window (seconds) the SLO-attainment signal is computed over.
const SCALE_WINDOW_S: f64 = 4.0;

/// One injected replica kill.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// Simulation time of the kill (seconds).
    pub t: f64,
    /// Replica to kill. Killing an already-failed replica is a no-op.
    pub replica: usize,
}

/// A deterministic schedule of replica kills. At each kill time the
/// replica's reservations and retained sessions are discarded; its
/// queued and running requests are re-homed on admitting survivors
/// (running requests re-enter preempted, so the survivor re-prefills
/// their lost KV through the normal admission pricing path) or
/// rejected if no survivor can ever hold them.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FailurePlan {
    /// The kills, in any order (the event heap sorts them).
    pub kills: Vec<FailureEvent>,
}

impl FailurePlan {
    /// A plan from explicit `(time, replica)` kills.
    pub fn at(kills: &[(f64, usize)]) -> Self {
        FailurePlan {
            kills: kills
                .iter()
                .map(|&(t, replica)| FailureEvent { t, replica })
                .collect(),
        }
    }

    /// A seeded plan: `kills` distinct replicas out of `replicas`,
    /// killed at uniform times in the middle `(20%, 80%)` of
    /// `horizon_s`. Deterministic per seed.
    ///
    /// # Panics
    ///
    /// Panics unless `kills < replicas` (someone must survive) and
    /// `horizon_s` is positive.
    pub fn seeded(seed: u64, kills: usize, replicas: usize, horizon_s: f64) -> Self {
        assert!(kills < replicas, "a failure plan must leave a survivor");
        assert!(horizon_s > 0.0, "horizon must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA11_ED42);
        let mut plan = FailurePlan::default();
        let mut used = vec![false; replicas];
        for _ in 0..kills {
            let replica = loop {
                let r = rng.gen_range(0..replicas);
                if !used[r] {
                    used[r] = true;
                    break r;
                }
            };
            let t = rng.gen_range(0.2..0.8) * horizon_s;
            plan.kills.push(FailureEvent { t, replica });
        }
        plan.kills
            .sort_by(|a, b| a.t.total_cmp(&b.t).then_with(|| a.replica.cmp(&b.replica)));
        plan
    }
}

/// Fleet-dynamics counters, present on [`RouterReport`] iff the run
/// had an autoscaler or a failure plan — static fleets' canonical
/// reports stay byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetDynamicsStats {
    /// Standby replicas brought up by the autoscaler.
    pub scale_ups: usize,
    /// Drains started by the autoscaler.
    pub drains: usize,
    /// Replica kills executed from the failure plan.
    pub failures: usize,
    /// Admitted in-flight sessions successfully re-homed on a survivor
    /// after a kill (each re-prefills its lost KV there).
    pub recovered: usize,
    /// Still-queued requests moved off a killed or draining replica.
    pub relocated: usize,
    /// Total replica-seconds of admitting-or-draining capacity the
    /// fleet spent — the denominator of goodput-per-replica-hour.
    pub replica_seconds: f64,
}

/// Configuration of a multi-replica serving fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Per-replica engine configurations. Policies may differ between
    /// replicas; closed-loop gating must agree across them, and its
    /// clients then submit to the whole fleet.
    pub replicas: Vec<ServeConfig>,
    /// Load-balancing policy.
    pub lb: LoadBalancePolicy,
    /// Give a bounced request (queue timeout, or a footprint the chosen
    /// replica can never fit) one retry on a different replica before
    /// finally rejecting it.
    pub requeue_on_reject: bool,
    /// Prefill/decode disaggregation, if enabled.
    pub disagg: Option<DisaggCfg>,
    /// Whether the autoscaler control loop runs (see
    /// [`RouterConfig::with_autoscaler`]); incompatible with
    /// disaggregation.
    #[serde(default)]
    pub autoscaler: bool,
    /// Injected replica kills (none by default); incompatible with
    /// disaggregation.
    #[serde(default)]
    pub failures: FailurePlan,
}

impl RouterConfig {
    /// A fleet of `n` identical replicas under round-robin dispatch,
    /// no re-queue, no disaggregation.
    pub fn homogeneous(replica: ServeConfig, n: usize) -> Self {
        RouterConfig {
            replicas: vec![replica; n],
            lb: LoadBalancePolicy::RoundRobin,
            requeue_on_reject: false,
            disagg: None,
            autoscaler: false,
            failures: FailurePlan::default(),
        }
    }

    /// A fleet of explicitly per-replica configurations (hardware and
    /// precision may differ) under round-robin dispatch. Pair with
    /// [`LoadBalancePolicy::LeastOutstanding`] /
    /// [`LoadBalancePolicy::LeastKvPressure`] to get capability-aware
    /// balancing: their load signals are normalized by each replica's
    /// [`ServeEngine::throughput_weight`].
    ///
    /// Each replica keeps its own hardware-derived `slo` and grades its
    /// own report against it; an H100's TTFT bar is about 6× tighter
    /// than a V100's. The fleet report and the autoscaler grade every
    /// request against replica 0's SLO, so per-replica `slo_met` counts
    /// need not sum to the fleet's.
    pub fn heterogeneous(replicas: Vec<ServeConfig>) -> Self {
        RouterConfig {
            replicas,
            lb: LoadBalancePolicy::RoundRobin,
            requeue_on_reject: false,
            disagg: None,
            autoscaler: false,
            failures: FailurePlan::default(),
        }
    }

    /// Accepted for source compatibility and ignored: replicas step
    /// serially, in index order.
    pub fn with_step_threads(self, _n: usize) -> Self {
        self
    }

    /// Overrides the load-balancing policy.
    pub fn with_lb(mut self, lb: LoadBalancePolicy) -> Self {
        self.lb = lb;
        self
    }

    /// Enables cross-replica re-queue on rejection.
    pub fn with_requeue(mut self) -> Self {
        self.requeue_on_reject = true;
        self
    }

    /// Enables prefill/decode disaggregation with the first
    /// `prefill_replicas` replicas dedicated to prefill.
    pub fn with_disagg(mut self, prefill_replicas: usize) -> Self {
        self.disagg = Some(DisaggCfg { prefill_replicas });
        self
    }

    /// Enables the autoscaler control loop: every `SCALE_INTERVAL_S`
    /// (1 s) of simulation time the router reads three signals — SLO
    /// attainment over the requests finished in the trailing
    /// `SCALE_WINDOW_S` (4 s), mean KV pressure across the admitting
    /// replicas, and the worst current queue wait of a request still
    /// awaiting first service — and either brings one standby replica
    /// up (overload: attainment below 90%, pressure above 70%, or a
    /// wait past the TTFT budget) or starts draining the emptiest
    /// admitting replica (sustained headroom: attainment at least 90%,
    /// pressure below 30%, and every wait under half the TTFT budget).
    /// A draining replica stops admitting, hands its queued requests to
    /// survivors, finishes what is running, and goes standby. Replica 0
    /// always admits (the floor); the others start standby, and
    /// `replicas.len()` is the fleet ceiling.
    pub fn with_autoscaler(mut self) -> Self {
        self.autoscaler = true;
        self
    }

    /// Injects the given replica-failure plan.
    pub fn with_failures(mut self, failures: FailurePlan) -> Self {
        self.failures = failures;
        self
    }
}

/// Outcome of one fleet simulation: the merged fleet-level
/// [`ServeReport`] plus one report per replica.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterReport {
    /// Load-balancing policy name.
    pub lb: String,
    /// Whether cross-replica re-queue was enabled.
    pub requeue_on_reject: bool,
    /// Number of prefill replicas (0 when disaggregation is off).
    pub prefill_replicas: usize,
    /// Fleet-level report over *all* requests, graded against replica
    /// 0's SLO (the one the autoscaler reads too). `mean_batch` is the
    /// step-weighted mean across replicas; the timeline interleaves
    /// the per-replica timelines in `(time, replica)` order, so samples
    /// at the same instant list the lower replica first (each sample's
    /// depths are replica-local); the `peak_*` fields are the worst
    /// single replica's peaks.
    pub fleet: ServeReport,
    /// Per-replica reports, each over the requests whose terminal home
    /// was that replica and graded against that replica's own SLO.
    /// Requests the router rejected before any replica accepted them
    /// appear only in the fleet report, so per-replica `arrived` counts
    /// can sum below the fleet's; on a heterogeneous fleet the
    /// per-replica `slo_met` counts need not sum to the fleet's either.
    pub replicas: Vec<ServeReport>,
    /// Requests that were bounced once and re-queued onto another
    /// replica.
    pub requeued: usize,
    /// Completed prompts shipped from a prefill to a decode replica.
    pub handoffs: usize,
    /// Fleet-dynamics counters — `Some` iff the run had an autoscaler
    /// or a failure plan, so static fleets' reports are unchanged.
    pub dynamics: Option<FleetDynamicsStats>,
}

impl RouterReport {
    /// One-line fleet summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<18} {} replicas | {}",
            self.lb,
            self.replicas.len(),
            self.fleet.summary()
        )
    }

    /// Canonical, deterministic text dump of the fleet report and every
    /// per-replica report — two runs are byte-identical iff equal.
    pub fn canonical_text(&self) -> String {
        let mut s = format!(
            "router-report v1\nlb {}\nrequeue {}\nprefill_replicas {}\nrequeued {}\nhandoffs {}\n",
            self.lb, self.requeue_on_reject, self.prefill_replicas, self.requeued, self.handoffs
        );
        if let Some(d) = &self.dynamics {
            s.push_str(&format!(
                "dynamics scale_ups {} drains {} failures {} recovered {} relocated {} \
                 replica_seconds {}\n",
                d.scale_ups, d.drains, d.failures, d.recovered, d.relocated, d.replica_seconds
            ));
        }
        s.push_str("== fleet ==\n");
        s.push_str(&self.fleet.canonical_text());
        for (i, r) in self.replicas.iter().enumerate() {
            s.push_str(&format!("== replica {i} ==\n"));
            s.push_str(&r.canonical_text());
        }
        s
    }

    /// SLO-met completions per replica-hour of capacity actually spent
    /// — the autoscaler's figure of merit. Dynamic fleets divide by the
    /// measured admitting-or-draining replica-seconds; static fleets by
    /// `replicas × makespan` (every replica billed for the whole run).
    pub fn goodput_per_replica_hour(&self) -> f64 {
        let secs = self
            .dynamics
            .map(|d| d.replica_seconds)
            .unwrap_or(self.replicas.len() as f64 * self.fleet.makespan_s);
        if secs <= 0.0 {
            0.0
        } else {
            self.fleet.slo_met as f64 / (secs / 3600.0)
        }
    }
}

/// A heap event. Arrivals are not heap events: the loop reads them from
/// its [`Arrivals`] source.
#[derive(Debug, Clone, Copy)]
enum EvKind {
    /// A prefilled request's KV transfer to the decode tier completes.
    Handoff(usize),
    /// A bounced request re-enters dispatch, excluding the replica that
    /// bounced it.
    Requeue {
        /// Request id.
        id: usize,
        /// Replica that bounced it.
        from: usize,
    },
    /// The autoscaler evaluates its signals (re-armed every
    /// `SCALE_INTERVAL_S` while real work remains).
    Scale,
    /// The failure plan kills the given replica.
    Fail(usize),
}

/// Heap entry: min-ordered by `(t, seq)` so equal-time events pop in
/// insertion order — the whole loop is deterministic.
struct Ev {
    t: f64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.t.total_cmp(&other.t) == Ordering::Equal && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The load signal a least-* policy minimizes, and what a replica's load
/// slot holds while it admits: throughput-normalized KV pressure for
/// [`LoadBalancePolicy::LeastKvPressure`], the normalized outstanding
/// count otherwise. On a homogeneous fleet every weight is equal, and
/// dividing by the same positive weight keeps every order and every tie.
fn load_signal(lb: LoadBalancePolicy, s: &Replica) -> f64 {
    match lb {
        LoadBalancePolicy::LeastKvPressure => s.pressure_norm(),
        _ => s.load_norm(),
    }
}

/// The least of `slots` (+∞ when there are none): eight lanes of `<`
/// selects, which vectorize to `minpd` (`f64::min` adds NaN fixups),
/// reduced pairwise: a 3-deep tree, not a 7-long chain.
fn min_slot(slots: &[f64]) -> f64 {
    let min = |a: f64, b: f64| if b < a { b } else { a };
    let (chunks, rest) = slots.as_chunks::<8>();
    let mut lanes = [f64::INFINITY; 8];
    for chunk in chunks {
        for (lane, &t) in lanes.iter_mut().zip(chunk) {
            *lane = min(*lane, t);
        }
    }
    let [a, b, c, d, e, f, g, h] = lanes;
    let m = min(min(min(a, b), min(c, d)), min(min(e, f), min(g, h)));
    rest.iter().fold(m, |m, &t| min(m, t))
}

/// The replica in `range` with the least finite load slot among those
/// `ok` accepts, ties to the lowest index; `None` if there is none. The
/// candidate is the first slot holding the vectorized min, looked for
/// in the first eight-slot chunk that holds it (found by branch-free `|`
/// compares). Only if `ok` refuses the candidate does one filtered pass
/// with strict `<` take over, so ties still go to the lowest index.
fn least(loads: &[f64], range: Range<usize>, ok: impl Fn(usize) -> bool) -> Option<usize> {
    let slots = &loads[range.clone()];
    let m = min_slot(slots);
    if m == f64::INFINITY {
        return None;
    }
    let (chunks, _) = slots.as_chunks::<8>();
    let holds_min = |c: &[f64; 8]| c.iter().fold(false, |hit, &x| hit | (x == m));
    let from = chunks
        .iter()
        .position(holds_min)
        .map_or(8 * chunks.len(), |k| 8 * k);
    let first = range.start
        + from
        + (slots[from..].iter().position(|&x| x == m)).expect("the min is a slot");
    if ok(first) {
        return Some(first);
    }
    let mut best = (None, f64::INFINITY);
    for i in range {
        if loads[i] < best.1 && ok(i) {
            best = (Some(i), loads[i]);
        }
    }
    best.0
}

/// Closed-loop clients: trace entry `i` belongs to client
/// `i % clients`, and each client keeps one request in flight,
/// submitting its next a seeded think time after the last one reached
/// a terminal state.
struct Clients {
    cfg: ClosedLoopCfg,
    /// Per client: its next trace entry (`>= n` once exhausted).
    next: Vec<usize>,
    /// Per client: the earliest time it may submit again.
    ready: Vec<f64>,
    /// Per client: whether its last request is still in flight.
    waiting: Vec<bool>,
}

impl Clients {
    /// Each free client's next request and its submit time, in client
    /// order.
    fn pending<'r>(&'r self, reqs: &'r [Request]) -> impl Iterator<Item = (usize, f64)> + 'r {
        (0..self.next.len())
            .filter(|&c| !self.waiting[c])
            .filter_map(move |c| {
                let id = self.next[c];
                reqs.get(id).map(|r| (id, r.arrival.max(self.ready[c])))
            })
    }
}

/// Where the fleet loop's arrivals come from: an open-loop trace in
/// order at its timestamps, or closed-loop clients.
enum Arrivals {
    /// The next trace entry to arrive.
    Open(usize),
    /// Closed-loop clients gate every arrival on a completion.
    Closed(Clients),
}

impl Arrivals {
    fn new(closed_loop: Option<ClosedLoopCfg>) -> Self {
        match closed_loop {
            None => Arrivals::Open(0),
            Some(cfg) => {
                let clients = cfg.clients.max(1);
                Arrivals::Closed(Clients {
                    cfg,
                    next: (0..clients).collect(),
                    ready: vec![0.0; clients],
                    waiting: vec![false; clients],
                })
            }
        }
    }

    /// The next arrival due by `horizon`, as `(id, submit time)`: the
    /// trace's next entry, or the lowest-index due client's.
    fn due(&self, horizon: f64, reqs: &[Request]) -> Option<(usize, f64)> {
        match self {
            Arrivals::Open(next) => reqs
                .get(*next)
                .map(|r| (*next, r.arrival))
                .filter(|&(_, at)| at <= horizon),
            Arrivals::Closed(c) => c.pending(reqs).find(|&(_, at)| at <= horizon),
        }
    }

    /// The earliest pending submit time (+∞ when none is pending).
    fn next_time(&self, reqs: &[Request]) -> f64 {
        match self {
            Arrivals::Open(next) => reqs.get(*next).map_or(f64::INFINITY, |r| r.arrival),
            Arrivals::Closed(c) => (c.pending(reqs))
                .map(|(_, at)| at)
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Whether every trace entry has been submitted.
    fn exhausted(&self, n: usize) -> bool {
        match self {
            Arrivals::Open(next) => *next >= n,
            Arrivals::Closed(c) => c.next.iter().all(|&id| id >= n),
        }
    }

    /// Takes the due arrival `(id, at)` off the source; a closed-loop
    /// request's arrival becomes its actual submit time.
    fn take(&mut self, id: usize, at: f64, reqs: &mut [Request]) {
        match self {
            Arrivals::Open(next) => *next += 1,
            Arrivals::Closed(c) => {
                let k = id % c.next.len();
                c.next[k] += c.next.len();
                c.waiting[k] = true;
                reqs[id].arrival = at;
            }
        }
    }

    /// Frees request `id`'s client, if any: the request reached a
    /// terminal state at `now`.
    fn release(&mut self, id: usize, now: f64) {
        if let Arrivals::Closed(c) = self {
            let k = id % c.next.len();
            let u = hash_unit(c.cfg.seed, id as u64).max(1e-12);
            c.ready[k] = now + c.cfg.think_s * -u.ln();
            c.waiting[k] = false;
        }
    }
}

/// The shared router: owns N replica engines and dispatches a trace
/// across them. Construct once, replay any number of traces; like the
/// single engine, runs are pure functions of `(config, trace)`.
#[derive(Debug, Clone)]
pub struct Router {
    cfg: RouterConfig,
    engines: Vec<ServeEngine>,
    reference_paths: bool,
}

impl Router {
    /// Builds the fleet: one [`ServeEngine`] per replica config.
    /// Replicas with an equal model, hardware and admission policy
    /// share one step price table, built by the first of them.
    ///
    /// # Panics
    ///
    /// Panics if the replica list is empty, the replicas disagree on
    /// closed-loop gating, a sticky policy has zero sessions, a
    /// disaggregation split does not leave at least one prefill and
    /// one decode replica, a failure plan kills a replica outside the
    /// fleet or at a negative or non-finite time, or an autoscaler or
    /// a non-empty failure plan is combined with disaggregation.
    pub fn new(cfg: RouterConfig) -> Self {
        assert!(!cfg.replicas.is_empty(), "router needs at least 1 replica");
        let closed_loop = cfg.replicas[0].closed_loop;
        assert!(
            cfg.replicas.iter().all(|r| r.closed_loop == closed_loop),
            "all replicas must agree on closed_loop"
        );
        if let LoadBalancePolicy::Sticky { sessions } = cfg.lb {
            assert!(sessions > 0, "sticky affinity needs at least 1 session");
        }
        if let Some(d) = cfg.disagg {
            assert!(
                d.prefill_replicas >= 1 && d.prefill_replicas < cfg.replicas.len(),
                "disaggregation needs >= 1 prefill and >= 1 decode replica"
            );
        }
        assert!(
            !cfg.autoscaler || cfg.disagg.is_none(),
            "fleet dynamics require a unified fleet (no disaggregation)"
        );
        for k in &cfg.failures.kills {
            assert!(
                k.replica < cfg.replicas.len(),
                "failure plan kills replica {} outside the fleet",
                k.replica
            );
            assert!(
                k.t.is_finite() && k.t >= 0.0,
                "failure times must be finite and non-negative"
            );
        }
        assert!(
            cfg.failures.kills.is_empty() || cfg.disagg.is_none(),
            "fleet dynamics require a unified fleet (no disaggregation)"
        );
        let mut engines = Vec::with_capacity(cfg.replicas.len());
        for replica in &cfg.replicas {
            engines.push(ServeEngine::sharing_prices(replica.clone(), &engines));
        }
        Router {
            cfg,
            engines,
            reference_paths: false,
        }
    }

    /// Forces the naive reference path on every replica: a rejection
    /// scan on every step instead of the gated one. Reports and event
    /// streams must be byte-identical either way — this switch exists
    /// so `tests/differential.rs` and `benches/router.rs` can prove and
    /// price exactly that.
    #[doc(hidden)]
    pub fn with_reference_paths(mut self, on: bool) -> Self {
        self.reference_paths = on;
        self
    }

    /// Replays `trace` across the fleet and returns the merged report.
    /// Deterministic: the same config and trace produce a
    /// byte-identical [`RouterReport`].
    pub fn run(&self, trace: &Trace) -> RouterReport {
        self.run_traced(trace, &mut NullSink)
    }

    /// [`Router::run`] with structured event tracing: everything the
    /// single engine emits (per replica, with the replica coordinate
    /// set), plus the router's own decisions — load-balance dispatch,
    /// cross-replica re-queue, and prefill→decode KV handoffs. The
    /// fleet report gains the opt-in metrics section, accumulated
    /// router-wide. With a disabled sink ([`NullSink`]) no event is
    /// constructed and the report is byte-identical to [`Router::run`].
    pub fn run_traced(&self, trace: &Trace, sink: &mut dyn TraceSink) -> RouterReport {
        let mut run = FleetRun::new(&self.engines, &self.cfg, self.reference_paths, trace, sink);
        run.run();
        run.router_report()
    }
}

/// One run through the fleet loop — the one event loop behind both
/// [`Router::run`] and [`ServeEngine::run`], which runs as a 1-replica
/// fleet.
///
/// Each iteration handles one due event or sweeps the replicas. An
/// event is due once no busy replica's clock is still behind it; with
/// every replica idle, the earliest pending time is the horizon.
/// Arrivals come from the [`Arrivals`] source and go before a heap
/// event at the same time. When nothing is due, a sweep advances every
/// busy replica whose clock lags the next pending time by one step, in
/// index order, so nobody races past a dispatch it should have seen.
///
/// The busy replicas' clocks sit in one flat array, `+∞` for an idle
/// replica: the horizon is its vectorized min, and a sweep gathers the
/// indices below the next pending time in one branch-free pass, in index
/// order. Under the least-* policies the admitting replicas' load
/// signals sit in a second one, `+∞` for a replica that does not admit,
/// and a dispatch picks the least slot of its tier. Below about a
/// thousand replicas the clock scans beat a heap's upkeep, and up to
/// 8,192 the load scan runs as fast as a tree's upkeep
/// (`docs/ARCHITECTURE.md`). `sync` renews both of a replica's slots
/// wherever its clock, load or lifecycle can change.
pub(crate) struct FleetRun<'a> {
    cfg: &'a RouterConfig,
    /// One record per trace entry, indexed by request id.
    reqs: Vec<Request>,
    states: Vec<Replica<'a>>,
    arrivals: Arrivals,
    heap: BinaryHeap<Ev>,
    seq: u64,
    /// Per replica: its clock while busy, `+∞` while idle.
    clocks: Vec<f64>,
    /// Under the least-* policies, per replica: its [`load_signal`] while
    /// it admits, `+∞` otherwise. Empty under the other policies, so
    /// they compute no signal.
    loads: Vec<f64>,
    /// Reusable buffer, one slot per replica, whose prefix lists the
    /// replicas one sweep steps.
    due: Vec<usize>,
    /// Latest arrival or real event time: the makespan's floor.
    last_event_t: f64,
    /// Round-robin cursors of the arrival tier (0) and decode tier (1).
    rr: [usize; 2],
    step_scratch: StepScratch,
    dynamics: Option<FleetDynamicsStats>,
    requeued: usize,
    handoffs: usize,
    obs: ObsCtx<'a>,
}

impl<'a> FleetRun<'a> {
    /// Sets up a run of `trace` over one replica per engine, under the
    /// fleet policies of `cfg` (its replica list is not read: the
    /// engines carry their configs).
    pub(crate) fn new(
        engines: &'a [ServeEngine],
        cfg: &'a RouterConfig,
        reference_paths: bool,
        trace: &Trace,
        sink: &'a mut dyn TraceSink,
    ) -> Self {
        let requeue = cfg.requeue_on_reject && engines.len() > 1;
        let mut states: Vec<Replica> = (engines.iter().enumerate())
            .map(|(i, eng)| {
                let role = match cfg.disagg {
                    Some(d) if i < d.prefill_replicas => Role::Prefill,
                    Some(_) => Role::Decode,
                    None => Role::Unified,
                };
                Replica::new(eng, i, role, requeue, reference_paths)
            })
            .collect();
        if cfg.autoscaler {
            for s in states.iter_mut().skip(MIN_REPLICAS) {
                s.life = Lifecycle::Standby;
            }
        }
        let dynamic = cfg.autoscaler || !cfg.failures.kills.is_empty();
        let n = states.len();
        let load_slots = match cfg.lb {
            LoadBalancePolicy::LeastOutstanding | LoadBalancePolicy::LeastKvPressure => n,
            _ => 0,
        };
        let mut run = FleetRun {
            cfg,
            reqs: Request::from_trace(trace),
            states,
            arrivals: Arrivals::new(engines[0].config().closed_loop),
            heap: BinaryHeap::new(),
            seq: 0,
            clocks: vec![f64::INFINITY; n],
            loads: vec![f64::INFINITY; load_slots],
            due: vec![0; n],
            last_event_t: 0.0,
            rr: [0; 2],
            step_scratch: StepScratch::default(),
            dynamics: dynamic.then(FleetDynamicsStats::default),
            requeued: 0,
            handoffs: 0,
            obs: ObsCtx::new(sink),
        };
        for i in 0..n {
            run.sync(i);
        }
        for kill in &cfg.failures.kills {
            run.push(kill.t, EvKind::Fail(kill.replica));
        }
        if cfg.autoscaler {
            run.push(SCALE_INTERVAL_S, EvKind::Scale);
        }
        run
    }

    /// Runs the loop to completion, monomorphized on the tracing
    /// decision: the untraced instance compiles every emission block
    /// out of the dispatch and step hot paths.
    pub(crate) fn run(&mut self) {
        if self.obs.enabled() {
            self.drive::<true>();
        } else {
            self.drive::<false>();
        }
    }

    fn drive<const TRACED: bool>(&mut self) {
        loop {
            if self.dynamics.is_some() {
                self.settle_drains::<TRACED>();
            }
            debug_assert_eq!(
                self.out_of_sync(),
                None,
                "a replica's slot is not its busy clock or its admitting load"
            );
            let busy_min = self.busy_min();
            let heap_t = self.heap.peek().map_or(f64::INFINITY, |e| e.t);
            let next_t = self.arrivals.next_time(&self.reqs).min(heap_t);
            let horizon = if busy_min.is_finite() {
                busy_min
            } else {
                next_t
            };
            if horizon.is_infinite() {
                break; // nothing busy, nothing pending
            }
            if next_t > horizon {
                self.sweep::<TRACED>(next_t);
                continue;
            }
            let _route = profile::timer(Phase::Dispatch);
            match self.arrivals.due(horizon, &self.reqs) {
                Some((id, at)) if at <= heap_t => self.arrive::<TRACED>(id, at),
                _ => {
                    let ev = self.heap.pop().expect("the due event is on the heap");
                    self.handle::<TRACED>(ev);
                }
            }
        }

        // Settle the open up-time stretch of every replica still
        // admitting or draining: the fleet's capacity bill runs to the
        // makespan.
        let final_t = self.makespan();
        if let Some(d) = self.dynamics.as_mut() {
            for s in self.states.iter_mut() {
                if matches!(s.life, Lifecycle::Up | Lifecycle::Draining) {
                    s.up_seconds += final_t.max(s.up_since) - s.up_since;
                }
                d.replica_seconds += s.up_seconds;
            }
        }
    }

    /// Pushes a heap event.
    fn push(&mut self, t: f64, kind: EvKind) {
        self.heap.push(Ev {
            t,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Takes arrival `id`, due at `at`, off the source and dispatches it.
    fn arrive<const TRACED: bool>(&mut self, id: usize, at: f64) {
        self.arrivals.take(id, at, &mut self.reqs);
        self.last_event_t = self.last_event_t.max(at);
        if TRACED {
            self.obs.emit(Event {
                t: at,
                replica: None,
                request: Some(id),
                kind: EventKind::Arrival {
                    prompt_len: self.reqs[id].prompt_len,
                    output_len: self.reqs[id].output_len,
                },
            });
        }
        self.dispatch::<TRACED>(id, at, None);
    }

    /// Handles one heap event.
    fn handle<const TRACED: bool>(&mut self, ev: Ev) {
        // Scale ticks are bookkeeping, not workload: they do not extend
        // the makespan (the last tick fires after the fleet has gone
        // quiet).
        if !matches!(ev.kind, EvKind::Scale) {
            self.last_event_t = self.last_event_t.max(ev.t);
        }
        match ev.kind {
            EvKind::Requeue { id, from } => self.dispatch::<TRACED>(id, ev.t, Some(from)),
            EvKind::Handoff(id) => self.handoff::<TRACED>(id, ev.t),
            EvKind::Scale => {
                self.scale_tick::<TRACED>(ev.t);
                // The tick was just popped and is the only one, so the
                // heap holds workload events alone. Re-arming only while
                // some remain, arrivals remain, or a replica is busy
                // guarantees termination.
                if !self.heap.is_empty()
                    || !self.arrivals.exhausted(self.reqs.len())
                    || self.busy_min().is_finite()
                {
                    self.push(ev.t + SCALE_INTERVAL_S, EvKind::Scale);
                }
            }
            EvKind::Fail(r) => self.fail_replica::<TRACED>(r, ev.t),
        }
    }

    /// The earliest clock of a busy replica (+∞ when all are idle).
    fn busy_min(&self) -> f64 {
        min_slot(&self.clocks)
    }

    /// Renews replica `i`'s slots after its clock, load or lifecycle may
    /// have changed: its clock if busy, `+∞` if idle; and, if loads are
    /// kept, its load signal if it admits, `+∞` if not. Clocks and loads
    /// are finite and non-negative, where `<` on the values orders them
    /// as their bits do.
    fn sync(&mut self, i: usize) {
        let s = &self.states[i];
        debug_assert!(!s.busy() || (s.t.is_finite() && s.t.is_sign_positive()));
        self.clocks[i] = if s.busy() { s.t } else { f64::INFINITY };
        if let Some(slot) = self.loads.get_mut(i) {
            let load = load_signal(self.cfg.lb, s);
            debug_assert!(load.is_finite() && load.is_sign_positive());
            *slot = if s.is_admitting() {
                load
            } else {
                f64::INFINITY
            };
        }
    }

    /// The first replica whose clock slot is not its busy clock, or
    /// whose kept load slot is not its admitting load, by bits, if any.
    /// Debug builds check before every loop iteration, so after every
    /// sweep and every event, that there is none.
    fn out_of_sync(&self) -> Option<usize> {
        (self.states.iter()).position(|s| {
            let clock = if s.busy() { s.t } else { f64::INFINITY };
            let load = if s.is_admitting() {
                load_signal(self.cfg.lb, s)
            } else {
                f64::INFINITY
            };
            self.clocks[s.idx].to_bits() != clock.to_bits()
                || (self.loads.get(s.idx)).is_some_and(|l| l.to_bits() != load.to_bits())
        })
    }

    /// Advances every busy replica lagging behind `limit`, the next
    /// pending time, by one step, in index order: gathers their indices,
    /// steps them, and renews their slots. Each step's bounces and
    /// handoffs go on the heap right after it.
    fn sweep<const TRACED: bool>(&mut self, limit: f64) {
        let mut due = std::mem::take(&mut self.due);
        let mut n = 0;
        for (i, &t) in self.clocks.iter().enumerate() {
            due[n] = i;
            n += usize::from(t < limit);
        }
        for &i in &due[..n] {
            let arrivals = &mut self.arrivals;
            self.states[i].step::<TRACED>(
                &mut self.reqs,
                &mut self.step_scratch,
                &mut self.obs,
                |id, now| arrivals.release(id, now),
            );
            for k in 0..self.step_scratch.requeues.len() {
                let (t, id) = self.step_scratch.requeues[k];
                self.push(t, EvKind::Requeue { id, from: i });
            }
            for k in 0..self.step_scratch.handoffs.len() {
                let (t, id) = self.step_scratch.handoffs[k];
                self.push(t, EvKind::Handoff(id));
            }
            self.requeued += self.step_scratch.requeues.len();
            self.handoffs += self.step_scratch.handoffs.len();
            self.sync(i);
        }
        self.due = due;
    }

    /// Dynamic fleets: a draining replica whose running batch has
    /// emptied completes its drain and goes standby, settling its
    /// up-time and discarding retained sessions (the next scale-up
    /// starts cold).
    fn settle_drains<const TRACED: bool>(&mut self) {
        for s in self.states.iter_mut() {
            if s.life != Lifecycle::Draining || s.busy() {
                continue;
            }
            s.life = Lifecycle::Standby;
            s.up_seconds += s.t.max(s.up_since) - s.up_since;
            if let Some(kv) = s.session_kv.as_mut() {
                let evicted = kv.evict_until(0, None);
                if TRACED {
                    for evd in &evicted {
                        self.obs.emit(evict_event(s.t, s.idx, evd));
                    }
                }
            }
        }
    }

    /// Dispatch tier `tier`'s replicas: under disaggregation the first
    /// `prefill_replicas` are tier 0 and the rest tier 1; a unified fleet
    /// is all tier 0.
    fn tier(&self, tier: usize) -> Range<usize> {
        let n = self.states.len();
        let split = self.cfg.disagg.map_or(n, |d| d.prefill_replicas);
        if tier == 0 {
            0..split
        } else {
            split..n
        }
    }

    /// The policy's preferred admitting replica of `tier` among those
    /// `ok` accepts: the least load slot for the least-* policies,
    /// otherwise the `k`-th of the `n` eligible in index order, with
    /// `k = rr % n` (the tier's cursor then moves on) under round-robin
    /// and `mix64(key % sessions) % n` under sticky, where `key` is the
    /// request's session id, or its trace index for legacy single-shot
    /// entries. Shared by dispatch, handoff and recovery.
    fn choose(&mut self, tier: usize, key: usize, ok: impl Fn(&Replica) -> bool) -> Option<usize> {
        let range = self.tier(tier);
        let states = &self.states;
        if !self.loads.is_empty() {
            return least(&self.loads, range, |i| ok(&states[i]));
        }
        let mut eligible = range.filter(|&i| states[i].is_admitting() && ok(&states[i]));
        let n = eligible.clone().count();
        if n == 0 {
            return None;
        }
        let k = if let LoadBalancePolicy::Sticky { sessions } = self.cfg.lb {
            (mix64((key % sessions) as u64) % n as u64) as usize
        } else {
            let k = self.rr[tier] % n;
            self.rr[tier] += 1;
            k
        };
        eligible.nth(k)
    }

    /// Makes replica `to` request `id`'s home: enqueues it there at
    /// `at`, booking `res`, and renews the replica's slots.
    fn place(&mut self, id: usize, to: usize, at: f64, res: u64) {
        self.states[to].enqueue(id, at, res, &mut self.reqs);
        self.sync(to);
    }

    /// Rejects request `id` at `at` as infeasible before any replica
    /// accepted it, and frees its closed-loop client.
    fn reject<const TRACED: bool>(&mut self, id: usize, at: f64, why: impl FnOnce() -> String) {
        let req = &mut self.reqs[id];
        req.state = RequestState::Rejected;
        if TRACED {
            self.obs.emit(Event {
                t: at,
                replica: None,
                request: Some(id),
                kind: EventKind::Rejected {
                    reason: "infeasible".to_string(),
                    queue_wait_s: at - req.arrival,
                    decision_trace: why(),
                },
            });
        }
        self.arrivals.release(id, at);
    }

    /// Routes one fresh arrival (or a re-queued bounce, with the
    /// bouncing replica excluded) to a replica, or rejects it as
    /// infeasible if no eligible replica can ever hold it.
    fn dispatch<const TRACED: bool>(&mut self, id: usize, at: f64, exclude: Option<usize>) {
        let lb = self.cfg.lb;
        let req = &self.reqs[id];
        let (prompt, output) = (req.prompt_len, req.output_len);
        let key = req.session.map_or(id, |s| s.session_id);

        // Under disaggregation a prompt must also have a decode home:
        // if no decode replica can ever hold its decode-time working
        // set, admitting it to prefill would strand it mid-flight, so
        // it is rejected up front.
        if self.cfg.disagg.is_some()
            && !(self.states[self.tier(1)].iter())
                .any(|s| s.engine.reservation_bytes(prompt, output, 1) <= s.budget)
        {
            self.reject::<TRACED>(id, at, || {
                format!(
                    "no decode replica can ever hold the decode working set of \
                     prompt {prompt} + output {output}: would strand mid-flight"
                )
            });
            return;
        }

        let Some(first) = self.choose(0, key, |s| Some(s.idx) != exclude) else {
            self.reject::<TRACED>(id, at, || {
                format!("no eligible replica left (bouncer {exclude:?} excluded)")
            });
            return;
        };
        let first_res = (self.states[first].engine).reservation_bytes(prompt, output, prompt);
        let budget = self.states[first].budget;
        let target = if first_res <= budget {
            Some((first, first_res))
        } else if self.cfg.requeue_on_reject {
            // The picked replica can never hold it; fall back to the
            // first other eligible replica that can, in index order.
            (self.states[self.tier(0)].iter())
                .filter(|s| Some(s.idx) != exclude && s.idx != first && s.is_admitting())
                .find_map(|s| {
                    let res = s.engine.reservation_bytes(prompt, output, prompt);
                    (res <= s.budget).then_some((s.idx, res))
                })
        } else {
            None
        };
        let Some((to, res)) = target else {
            self.reject::<TRACED>(id, at, || {
                format!(
                    "reservation {first_res} B > replica {first}'s budget {budget} B under {} \
                     dispatch: can never fit there",
                    lb.name()
                )
            });
            return;
        };
        self.place(id, to, at, res);
        if TRACED {
            self.obs.emit(Event {
                t: at,
                replica: Some(to),
                request: Some(id),
                kind: EventKind::Dispatch {
                    target: to,
                    lb: lb.name().to_string(),
                },
            });
        }
    }

    /// Lands a prefilled request's KV on the decode tier. Only decode
    /// replicas that can ever hold its decode working set are eligible
    /// — an infeasible head would wedge the replica's FCFS admission
    /// forever. The set is non-empty: dispatch rejected the request up
    /// front unless some decode replica could hold it, and budgets are
    /// static.
    fn handoff<const TRACED: bool>(&mut self, id: usize, at: f64) {
        let req = &self.reqs[id];
        let (prompt, output) = (req.prompt_len, req.output_len);
        let key = req.session.map_or(id, |s| s.session_id);
        let to = self
            .choose(1, key, |s| {
                s.engine.reservation_bytes(prompt, output, 1) <= s.budget
            })
            .expect("dispatch admitted only decodable requests");
        if TRACED {
            // The transfer was priced on the prefill side when the
            // handoff was scheduled; the sequence length has not moved
            // in transit, so recomputing here yields the exact same
            // bytes and latency.
            let req = &self.reqs[id];
            let from = req.owner.expect("handoff implies a prefill owner");
            let sender = self.states[from].engine;
            self.obs.emit(Event {
                t: at,
                replica: Some(to),
                request: Some(id),
                kind: EventKind::Handoff {
                    from,
                    to,
                    bytes: sender.kv_handoff_bytes(req.seq_len()),
                    transfer_s: sender.kv_handoff_time(req.seq_len()),
                },
            });
        }
        let res = self.states[to].engine.reservation_bytes(prompt, output, 1);
        self.place(id, to, at, res);
    }

    /// Re-homes one request off replica `from` (draining or failed) at
    /// time `at`, booking what it owes there. `was_running` marks a
    /// session that was mid-decode at a kill: its KV is gone, the
    /// caller has set it `Preempted`, and the survivor's admission path
    /// re-prefills its whole sequence (priced through
    /// [`ServeEngine::step_time`] like any preempted re-admission). The
    /// target is the policy's preferred admitting survivor among those
    /// that can *ever* hold the request — the same never-fits guard as
    /// dispatch, so a moved request cannot wedge a survivor's FCFS head.
    /// With no such survivor the request is finally rejected.
    fn recover<const TRACED: bool>(
        &mut self,
        id: usize,
        from: usize,
        at: f64,
        cause: &str,
        was_running: bool,
    ) {
        let req = &self.reqs[id];
        let key = req.session.map_or(id, |s| s.session_id);
        let owed = req.owed();
        let needed = |s: &Replica| s.engine.owed_reservation(owed);
        let Some(to) = self.choose(0, key, |s| s.idx != from && needed(s) <= s.budget) else {
            self.reject::<TRACED>(id, at, || {
                format!("replica {from} {cause}: no admitting survivor can ever hold request {id}")
            });
            return;
        };
        self.place(id, to, at, needed(&self.states[to]));
        let dynamics = self.dynamics.as_mut().expect("dynamic fleet");
        if was_running {
            dynamics.recovered += 1;
        } else {
            dynamics.relocated += 1;
        }
        if TRACED {
            let kind = if was_running {
                let rebuilt_tokens = owed.0;
                EventKind::SessionRecovered {
                    from,
                    to,
                    rebuilt_tokens,
                    decision_trace: format!(
                        "replica {from} {cause}: lost KV, re-prefilling {rebuilt_tokens} \
                         tokens on replica {to}"
                    ),
                }
            } else {
                EventKind::Dispatch {
                    target: to,
                    lb: self.cfg.lb.name().to_string(),
                }
            };
            self.obs.emit(Event {
                t: at,
                replica: Some(to),
                request: Some(id),
                kind,
            });
        }
    }

    /// Executes one failure-plan kill: replica `r` permanently stops,
    /// its reservations and retained sessions are discarded, and its
    /// queued then running requests re-home on admitting survivors in
    /// deterministic (queue order, then batch order). Idempotent: a
    /// second kill of the same replica is a no-op.
    fn fail_replica<const TRACED: bool>(&mut self, r: usize, at: f64) {
        let s = &mut self.states[r];
        if s.life == Lifecycle::Failed {
            return;
        }
        s.t = s.t.max(at);
        if s.life != Lifecycle::Standby {
            s.up_seconds += s.t.max(s.up_since) - s.up_since;
        }
        s.life = Lifecycle::Failed;
        let in_flight = s.outstanding();
        let queued: Vec<usize> = s.queue.drain(..).collect();
        let running: Vec<usize> = std::mem::take(&mut s.running);
        s.reserved = 0;
        let evicted = (s.session_kv.as_mut()).map_or(Vec::new(), |kv| kv.evict_until(0, None));
        self.dynamics.as_mut().expect("dynamic fleet").failures += 1;
        if TRACED {
            self.obs.emit(Event {
                t: at,
                replica: Some(r),
                request: None,
                kind: EventKind::ReplicaFailed {
                    in_flight,
                    decision_trace: format!(
                        "injected kill at t={at:.3}s with {in_flight} in-flight requests: \
                         reservations and retained sessions lost, survivors re-prefill"
                    ),
                },
            });
            for evd in &evicted {
                self.obs.emit(evict_event(at, r, evd));
            }
        }
        self.sync(r);
        for id in queued {
            self.recover::<TRACED>(id, r, at, "failed", false);
        }
        for id in running {
            // A mid-decode session: steps are atomic, so it was
            // decoding with its KV resident — now lost. Mark it
            // preempted (the re-admission path re-prefills the whole
            // sequence) without touching the preemption counters:
            // nothing was evicted by policy.
            self.reqs[id].state = RequestState::Preempted;
            self.recover::<TRACED>(id, r, at, "failed", true);
        }
    }

    /// One autoscaler evaluation at time `at`: reads windowed SLO
    /// attainment (against replica 0's SLO, as the fleet report
    /// grades), mean KV pressure over admitting replicas, and the
    /// worst current queue wait of a request still awaiting first
    /// service, then brings one standby replica up (overload) or
    /// starts draining the emptiest admitting replica (sustained
    /// headroom, above the floor). Every signal is pure simulation
    /// state, so the control loop is deterministic per seed.
    fn scale_tick<const TRACED: bool>(&mut self, at: f64) {
        let slo = self.states[0].engine.config().slo;
        let lo = at - SCALE_WINDOW_S;
        let (mut fin, mut met) = (0usize, 0usize);
        for req in &self.reqs {
            if let Some(f) = req.finished_at {
                if f > lo && f <= at {
                    fin += 1;
                    if slo.met_by(req) {
                        met += 1;
                    }
                }
            }
        }
        let attainment = if fin == 0 {
            1.0
        } else {
            met as f64 / fin as f64
        };
        let up = |s: &&Replica| s.life == Lifecycle::Up;
        let ups = self.states.iter().filter(up).count();
        let pressure = if ups == 0 {
            0.0
        } else {
            self.states
                .iter()
                .filter(up)
                .map(|s| s.kv_pressure())
                .sum::<f64>()
                / ups as f64
        };
        let mut worst_wait = 0.0f64;
        for s in &self.states {
            for &id in &s.queue {
                let req = &self.reqs[id];
                if req.first_token_at.is_none() {
                    worst_wait = worst_wait.max(at - req.queued_since);
                }
            }
        }

        let overload =
            attainment < TARGET_ATTAINMENT || pressure > PRESSURE_HIGH || worst_wait > slo.ttft_s;
        let calm = attainment >= TARGET_ATTAINMENT
            && pressure < PRESSURE_LOW
            && worst_wait < 0.5 * slo.ttft_s;
        let dynamics = self.dynamics.as_mut().expect("dynamic fleet");
        if overload {
            let Some(s) = (self.states.iter_mut()).find(|s| s.life == Lifecycle::Standby) else {
                return; // fleet ceiling reached
            };
            s.life = Lifecycle::Up;
            s.t = s.t.max(at);
            s.up_since = at;
            let r = s.idx;
            dynamics.scale_ups += 1;
            self.sync(r);
            if TRACED {
                self.obs.emit(Event {
                    t: at,
                    replica: Some(r),
                    request: None,
                    kind: EventKind::ReplicaUp {
                        replicas_up: ups + 1,
                        decision_trace: format!(
                            "attainment {attainment:.3} (target {TARGET_ATTAINMENT}), pressure \
                             {pressure:.3} (high {PRESSURE_HIGH}), worst wait {worst_wait:.3}s \
                             (ttft {}s)",
                            slo.ttft_s
                        ),
                    },
                });
            }
        } else if calm && ups > MIN_REPLICAS {
            // Drain the emptiest admitting replica; ties prefer the
            // highest index so the low indices (the permanent floor)
            // stay up.
            let s = (self.states.iter_mut())
                .filter(|s| s.life == Lifecycle::Up)
                .min_by_key(|s| (s.outstanding(), std::cmp::Reverse(s.idx)))
                .expect("ups > MIN_REPLICAS >= 1");
            s.life = Lifecycle::Draining;
            s.t = s.t.max(at);
            let r = s.idx;
            // Hand still-queued work to the survivors now; the running
            // batch finishes locally and the drain completes once it
            // empties (`settle_drains`).
            let moved: Vec<usize> = s.queue.drain(..).collect();
            dynamics.drains += 1;
            self.sync(r);
            if TRACED {
                let replicas_up = ups - 1;
                self.obs.emit(Event {
                    t: at,
                    replica: Some(r),
                    request: None,
                    kind: EventKind::ReplicaDrained {
                        replicas_up,
                        decision_trace: format!(
                            "attainment {attainment:.3} >= target {TARGET_ATTAINMENT}, pressure \
                             {pressure:.3} < low {PRESSURE_LOW}, worst wait {worst_wait:.3}s: \
                             draining to {replicas_up} admitting replicas"
                        ),
                    },
                });
            }
            for id in moved {
                self.recover::<TRACED>(id, r, at, "draining", false);
            }
        }
    }

    /// The run's makespan: the latest replica clock or event time.
    fn makespan(&self) -> f64 {
        (self.states.iter())
            .map(|s| s.t)
            .fold(self.last_event_t, f64::max)
    }

    /// The single engine's report: replica 0 over every request in the
    /// trace, with the fleet's makespan rule. Consumes the run, whose
    /// timeline moves into the report.
    pub(crate) fn engine_report(self) -> ServeReport {
        let makespan = self.makespan();
        let all: Vec<&Request> = self.reqs.iter().collect();
        let replica = (self.states.into_iter().next()).expect("a fleet has a replica");
        let mut report = replica.report(&all, makespan);
        report.metrics = self.obs.metrics();
        report
    }

    /// Assembles per-replica and fleet reports. Consumes the run: each
    /// replica's timeline moves into its report, and the fleet timeline
    /// is merged from those.
    fn router_report(self) -> RouterReport {
        let makespan = self.makespan();
        let states = self.states;

        // Fleet aggregates: step-weighted batch, worst-replica peaks,
        // and the makespan. Every request is graded against replica 0's
        // SLO, as the autoscaler grades it; each replica's report below
        // uses its own (see `RouterReport::replicas`).
        let total_steps: u64 = states.iter().map(|s| s.step_count).sum();
        let total_batch: u64 = states.iter().map(|s| s.batch_sum).sum();
        let mean_batch = if total_steps == 0 {
            0.0
        } else {
            total_batch as f64 / total_steps as f64
        };
        let cfg0 = states[0].engine.config();
        let cfgs = || states.iter().map(|s| s.engine.config());
        // Fleet reuse stats: the merged per-replica counters, present
        // iff any replica ran with retention.
        let fleet_reuse: Option<ReuseStats> = (states.iter())
            .filter_map(|s| s.session_kv.as_ref().map(|kv| kv.stats()))
            .reduce(|a, b| a.merged(b));
        // The discipline tag is present iff any replica ran a non-FCFS
        // discipline (matching the per-replica emission rule).
        let fleet_discipline = (!cfgs().all(|c| c.discipline.is_fcfs()))
            .then(|| fleet_tag(cfgs().map(|c| c.discipline.name())));
        let n = states.len();
        let policy = format!("{n}x{}", fleet_tag(cfgs().map(|c| c.policy.name())));
        let hardware = format!("{n}x {}", fleet_tag(cfgs().map(|c| c.hardware.to_string())));
        let peak_queue_depth = states.iter().map(|s| s.peak_queue_depth).max().unwrap_or(0);
        let peak_kv_bytes = states.iter().map(|s| s.peak_kv_bytes).max().unwrap_or(0);

        // Each replica's requests, in trace order, split in one pass.
        let mut owned: Vec<Vec<&Request>> = vec![Vec::new(); n];
        for req in &self.reqs {
            if let Some(o) = req.owner {
                owned[o].push(req);
            }
        }
        let replicas: Vec<ServeReport> = (states.into_iter().zip(&owned))
            .map(|(s, local)| {
                let t = s.t;
                s.report(local, t)
            })
            .collect();

        let all: Vec<&Request> = self.reqs.iter().collect();
        let mut fleet = ServeReport::from_requests(
            policy,
            cfg0.model.name.clone(),
            hardware,
            &all,
            cfg0.slo,
            makespan,
            mean_batch,
            merge_timelines(&replicas),
            peak_queue_depth,
            peak_kv_bytes,
            fleet_reuse,
            fleet_discipline,
        );
        fleet.metrics = self.obs.metrics();

        RouterReport {
            lb: self.cfg.lb.name().to_string(),
            requeue_on_reject: self.cfg.requeue_on_reject,
            prefill_replicas: self.cfg.disagg.map_or(0, |d| d.prefill_replicas),
            fleet,
            replicas,
            requeued: self.requeued,
            handoffs: self.handoffs,
            dynamics: self.dynamics,
        }
    }
}

/// The fleet timeline: every replica report's timeline, in `(time,
/// replica)` order — what a stable sort of their concatenation by time
/// lists. A stable counting sort spreads the samples over about n/4
/// equal-width time buckets, and a stable sort finishes each bucket.
/// Bucketing is monotone in time, so the buckets are in order; the
/// scatter fills each bucket from its end, visiting replicas and samples
/// backwards, so ties keep replica order. One `u32` per bucket holds its
/// end, and after the scatter its start. Timed as report assembly, and
/// done before [`ServeReport::from_requests`] starts its own timer.
fn merge_timelines(replicas: &[ServeReport]) -> Vec<ServeSample> {
    let _merge = profile::timer(Phase::Report);
    let timelines = || replicas.iter().map(|r| &r.timeline[..]);
    let total: usize = timelines().map(<[_]>::len).sum();
    assert!(u32::try_from(total).is_ok(), "bucket offsets are u32");
    let Some(&first) = timelines().find_map(<[_]>::first) else {
        return Vec::new();
    };
    let (mut lo, mut hi) = (first.t, first.t);
    for t in timelines().filter(|t| !t.is_empty()) {
        (lo, hi) = (lo.min(t[0].t), hi.max(t[t.len() - 1].t));
    }
    let buckets = (total / 4).max(1);
    // With every sample at one instant, the NaN of 0 × ∞ casts to 0.
    let scale = buckets as f64 / (hi - lo);
    let bucket = |t: f64| (((t - lo) * scale) as usize).min(buckets - 1);
    let mut offsets = vec![0u32; buckets];
    for p in timelines().flatten() {
        offsets[bucket(p.t)] += 1;
    }
    let mut end = 0;
    for o in &mut offsets {
        end += *o;
        *o = end;
    }
    let mut merged = vec![first; total];
    for p in timelines().rev().flat_map(|t| t.iter().rev()) {
        let o = &mut offsets[bucket(p.t)];
        *o -= 1;
        merged[*o as usize] = *p;
    }
    for (b, &start) in offsets.iter().enumerate() {
        let end = offsets.get(b + 1).map_or(total, |&e| e as usize);
        merged[start as usize..end].sort_by(|x, y| x.t.total_cmp(&y.t));
    }
    merged
}

/// A fleet tag: the distinct per-replica `names` in first-appearance
/// order, joined with `+` — one name for a homogeneous fleet. (Adjacent
/// dedup would mislabel an `[a, b, a]` fleet as `a+b+a`.)
fn fleet_tag<S: AsRef<str> + PartialEq>(names: impl Iterator<Item = S>) -> String {
    let mut distinct: Vec<S> = Vec::new();
    for name in names {
        if !distinct.contains(&name) {
            distinct.push(name);
        }
    }
    let distinct: Vec<&str> = distinct.iter().map(AsRef::as_ref).collect();
    distinct.join("+")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::arrivals::ArrivalProcess;
    use crate::discipline::QueueDiscipline;
    use alisa_memsim::HardwareSpec;
    use alisa_model::ModelConfig;
    use alisa_workloads::LengthModel;

    fn replica_cfg(policy: AdmissionPolicy) -> ServeConfig {
        ServeConfig::new(ModelConfig::opt_6_7b(), HardwareSpec::v100_16gb(), policy)
    }

    fn small_trace(rate: f64, n: usize, seed: u64) -> Trace {
        Trace::generate(
            &ArrivalProcess::Poisson { rate },
            &LengthModel::alpaca().with_max_output(48),
            n,
            seed,
        )
    }

    /// SplitMix64 finalizer: a cheap, seedless way to tag samples and
    /// pick refusals deterministically.
    fn mix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn all_lbs() -> [LoadBalancePolicy; 4] {
        [
            LoadBalancePolicy::RoundRobin,
            LoadBalancePolicy::LeastOutstanding,
            LoadBalancePolicy::LeastKvPressure,
            LoadBalancePolicy::Sticky { sessions: 6 },
        ]
    }

    #[test]
    fn fleet_conserves_requests_under_every_policy() {
        let trace = small_trace(6.0, 50, 17);
        for lb in all_lbs() {
            let router = Router::new(
                RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 3).with_lb(lb),
            );
            let r = router.run(&trace);
            assert_eq!(r.fleet.arrived, 50, "{}", lb.name());
            assert_eq!(
                r.fleet.admitted + r.fleet.rejected,
                r.fleet.arrived,
                "{}",
                lb.name()
            );
            assert_eq!(r.fleet.completed, r.fleet.admitted, "{}", lb.name());
            // Per-replica request counts add up to the fleet's.
            let sum: usize = r.replicas.iter().map(|x| x.arrived).sum();
            assert_eq!(sum, r.fleet.arrived, "{}", lb.name());
        }
    }

    #[test]
    fn round_robin_spreads_requests_evenly() {
        let trace = small_trace(4.0, 40, 3);
        let router = Router::new(RouterConfig::homogeneous(
            replica_cfg(AdmissionPolicy::alisa()),
            4,
        ));
        let r = router.run(&trace);
        for rep in &r.replicas {
            assert_eq!(rep.arrived, 10, "round-robin must deal 40 across 4");
        }
    }

    #[test]
    fn sticky_sessions_pin_to_replicas() {
        let trace = small_trace(4.0, 36, 5);
        let router = Router::new(
            RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 4)
                .with_lb(LoadBalancePolicy::Sticky { sessions: 1 }),
        );
        let r = router.run(&trace);
        // One session: every request lands on the same replica.
        let non_empty = r.replicas.iter().filter(|x| x.arrived > 0).count();
        assert_eq!(non_empty, 1);
        assert_eq!(r.fleet.completed, 36);
    }

    #[test]
    fn least_outstanding_beats_sticky_hotspot_on_tail_latency() {
        // All load pinned to one replica (sticky, 1 session) must queue
        // deeper than spreading by outstanding count.
        let trace = small_trace(10.0, 60, 21);
        let base = RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 3);
        let sticky = Router::new(
            base.clone()
                .with_lb(LoadBalancePolicy::Sticky { sessions: 1 }),
        )
        .run(&trace);
        let spread = Router::new(base.with_lb(LoadBalancePolicy::LeastOutstanding)).run(&trace);
        assert!(spread.fleet.ttft.p99 <= sticky.fleet.ttft.p99);
        assert!(spread.fleet.makespan_s <= sticky.fleet.makespan_s);
    }

    #[test]
    fn more_replicas_never_hurt_goodput() {
        let trace = small_trace(8.0, 60, 42);
        let mut last = 0.0;
        for n in [1usize, 2, 4] {
            let router = Router::new(RouterConfig::homogeneous(
                replica_cfg(AdmissionPolicy::alisa()),
                n,
            ));
            let r = router.run(&trace);
            assert!(
                r.fleet.goodput_rps + 1e-12 >= last,
                "goodput dropped going to {n} replicas: {} < {last}",
                r.fleet.goodput_rps
            );
            last = r.fleet.goodput_rps;
        }
    }

    #[test]
    fn requeue_rescues_timeouts() {
        // A hotspot (all sessions pinned to one replica) under dense
        // vLLM reservations and a tight timeout: without requeue the
        // hot replica rejects; with it, bounced requests finish on the
        // idle replicas. Full Alpaca lengths so the dense reservations
        // actually saturate the V100.
        let cfg = replica_cfg(AdmissionPolicy::vllm()).with_queue_timeout(2.0);
        let base =
            RouterConfig::homogeneous(cfg, 3).with_lb(LoadBalancePolicy::Sticky { sessions: 1 });
        let trace = Trace::generate(
            &ArrivalProcess::Poisson { rate: 12.0 },
            &LengthModel::alpaca(),
            50,
            9,
        );
        let without = Router::new(base.clone()).run(&trace);
        let with = Router::new(base.with_requeue()).run(&trace);
        assert!(without.fleet.rejected > 0, "hotspot must time out requests");
        assert!(with.requeued > 0, "requeue must engage");
        assert!(
            with.fleet.completed > without.fleet.completed,
            "requeue must rescue requests: {} vs {}",
            with.fleet.completed,
            without.fleet.completed
        );
        assert_eq!(with.fleet.admitted + with.fleet.rejected, 50);
    }

    #[test]
    fn disaggregation_hands_off_and_conserves() {
        let router = Router::new(
            RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 3)
                .with_disagg(1)
                .with_lb(LoadBalancePolicy::LeastOutstanding),
        );
        let trace = small_trace(4.0, 30, 11);
        let r = router.run(&trace);
        assert_eq!(r.prefill_replicas, 1);
        assert!(r.handoffs > 0, "prompts must be handed to the decode tier");
        assert_eq!(r.fleet.admitted + r.fleet.rejected, 30);
        assert_eq!(r.fleet.completed, r.fleet.admitted);
        // The prefill replica never decodes: every completed request's
        // terminal home is a decode replica.
        assert_eq!(r.replicas[0].completed, 0);
        assert!(r.replicas[1].completed + r.replicas[2].completed > 0);
    }

    #[test]
    fn disaggregation_pays_the_transfer() {
        // Strictly serial trace (one request fully drains before the
        // next arrives): the only difference between unified and
        // disaggregated serving is the host-staged KV handoff, so the
        // disaggregated fleet's end-to-end latency must be strictly
        // worse by exactly that transfer. (At overlapping rates
        // disaggregation may legitimately *win*, by keeping prefill
        // stalls out of the decode batch.)
        let entries: Vec<crate::trace::TraceEntry> = (0..3)
            .map(|i| crate::trace::TraceEntry::single_shot(60.0 * i as f64, 256, 16))
            .collect();
        let trace = Trace::new(entries).unwrap();
        let unified = Router::new(RouterConfig::homogeneous(
            replica_cfg(AdmissionPolicy::alisa()),
            2,
        ))
        .run(&trace);
        let disagg = Router::new(
            RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 2).with_disagg(1),
        )
        .run(&trace);
        let engine = ServeEngine::new(replica_cfg(AdmissionPolicy::alisa()));
        let transfer = engine.kv_handoff_time(257);
        assert!(transfer > 0.0);
        assert!(
            (disagg.fleet.e2e.mean - unified.fleet.e2e.mean - transfer).abs() < 1e-9,
            "serial disagg e2e must exceed unified by exactly the handoff: {} vs {} + {}",
            disagg.fleet.e2e.mean,
            unified.fleet.e2e.mean,
            transfer
        );
    }

    #[test]
    fn handoff_skips_decode_replicas_that_can_never_fit() {
        // Heterogeneous decode tier: replica 1 books dense vLLM KV and
        // cannot ever hold a long request's decode working set, replica
        // 2 books ALISA's sparse set and can. Handoff placement must
        // route around the infeasible replica instead of wedging its
        // FCFS queue (which would hang the simulation).
        let cfg = RouterConfig {
            replicas: vec![
                replica_cfg(AdmissionPolicy::alisa()), // prefill
                replica_cfg(AdmissionPolicy::vllm()),  // decode, too small
                replica_cfg(AdmissionPolicy::alisa()), // decode, fits
            ],
            lb: LoadBalancePolicy::RoundRobin,
            requeue_on_reject: false,
            disagg: Some(DisaggCfg {
                prefill_replicas: 1,
            }),
            autoscaler: false,
            failures: FailurePlan::default(),
        };
        let router = Router::new(cfg);
        let entries: Vec<crate::trace::TraceEntry> = (0..4)
            .map(|i| crate::trace::TraceEntry::single_shot(i as f64, 6000, 2200))
            .collect();
        let trace = Trace::new(entries).unwrap();
        // Sanity: the request really is infeasible on the vLLM decode
        // replica and feasible on the ALISA one.
        let vllm_res = router.engines[1].reservation_bytes(6000, 2200, 1);
        let alisa_res = router.engines[2].reservation_bytes(6000, 2200, 1);
        assert!(vllm_res > router.engines[1].kv_budget());
        assert!(alisa_res <= router.engines[2].kv_budget());
        let r = router.run(&trace);
        assert_eq!(r.fleet.completed, 4, "all requests decode on replica 2");
        assert_eq!(r.replicas[1].arrived, 0, "infeasible replica stays empty");
    }

    #[test]
    fn fleet_tags_name_each_distinct_policy_once() {
        // Policies alternate, so adjacent-only dedup would repeat ALISA.
        let router = Router::new(RouterConfig::heterogeneous(vec![
            replica_cfg(AdmissionPolicy::alisa()),
            replica_cfg(AdmissionPolicy::vllm()).with_discipline(QueueDiscipline::sjf()),
            replica_cfg(AdmissionPolicy::alisa()),
        ]));
        let r = router.run(&small_trace(2.0, 12, 3));
        assert_eq!(r.fleet.policy, "3xALISA+vLLM");
        assert_eq!(
            r.fleet.discipline.as_ref().map(|d| d.discipline.as_str()),
            Some("fcfs+sjf")
        );
        assert_eq!(
            r.fleet.hardware,
            format!("3x {}", HardwareSpec::v100_16gb())
        );
    }

    #[test]
    fn deterministic_per_seed() {
        for lb in all_lbs() {
            let run = || {
                let trace = small_trace(5.0, 40, 0xBEEF);
                Router::new(
                    RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 3)
                        .with_lb(lb)
                        .with_requeue(),
                )
                .run(&trace)
            };
            assert_eq!(
                run().canonical_text().into_bytes(),
                run().canonical_text().into_bytes(),
                "{}",
                lb.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "disaggregation")]
    fn disagg_needs_a_decode_tier() {
        let _ = Router::new(
            RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 2).with_disagg(2),
        );
    }

    /// Checks `least` over `range` of `loads` against its definition: the
    /// finite slots `ok` accepts, least by value, ties to the lowest
    /// index.
    fn assert_least_is_the_definition(
        loads: &[f64],
        range: Range<usize>,
        ok: impl Fn(usize) -> bool,
    ) {
        let want = (range.clone())
            .filter(|&i| loads[i].is_finite() && ok(i))
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)));
        assert_eq!(
            least(loads, range.clone(), &ok),
            want,
            "{range:?} of {loads:?}"
        );
    }

    #[test]
    fn least_is_the_filtered_min_ties_to_the_lowest_index() {
        let all = |_| true;
        let inf = f64::INFINITY;
        assert_least_is_the_definition(&[], 0..0, all);
        assert_least_is_the_definition(&[1.0, 0.5], 1..1, all);
        assert_least_is_the_definition(&[inf; 20], 0..20, all);
        // Ties at the min, within a chunk and across chunks.
        let tied: Vec<f64> = (0..20).map(|i| [3.0, 1.0, 2.0][i % 3]).collect();
        assert_least_is_the_definition(&tied, 0..20, all);
        assert_least_is_the_definition(&tied, 2..20, all);
        // The min in the remainder past the last full chunk.
        for len in [1, 7, 9, 511] {
            let mut loads: Vec<f64> = (0..len).map(|i| 2.0 + i as f64).collect();
            loads[len - 1] = 0.5;
            assert_least_is_the_definition(&loads, 0..len, all);
        }
        // A decode tier off the chunk grid, with smaller slots outside it.
        let mut loads: Vec<f64> = (0..20).map(|i| 4.0 + (i % 5) as f64).collect();
        (loads[0], loads[2], loads[17], loads[19]) = (0.0, 0.25, 0.0, 0.25);
        loads[16] = 1.0;
        assert_least_is_the_definition(&loads, 3..17, all);
        // A refused min: the next least, ties to the lowest index; and
        // every finite slot refused, with `+∞` slots accepted.
        assert_least_is_the_definition(&[1.0, 2.0, 2.0, inf], 0..4, |i| i != 0);
        assert_least_is_the_definition(&[1.0, inf, 1.0, 2.0], 0..4, |i| i != 0);
        assert_least_is_the_definition(&[1.0, 2.0, inf, inf], 0..4, |i| i > 1);
        assert_least_is_the_definition(&[1.0, 2.0, 0.5], 0..3, |_| false);
        // Random arrays on a coarse grid, so ties are common, about 10%
        // of them `+∞`: every slot accepted, the least one refused, and a
        // seeded half of them refused.
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let len = rng.gen_range(1..=600);
            let loads: Vec<f64> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        inf
                    } else {
                        f64::from(rng.gen_range(0..12u32)) * 0.25
                    }
                })
                .collect();
            let start = rng.gen_range(0..len);
            let range = start..rng.gen_range(start..=len);
            assert_least_is_the_definition(&loads, range.clone(), all);
            let min = least(&loads, range.clone(), all);
            assert_least_is_the_definition(&loads, range.clone(), |i| Some(i) != min);
            assert_least_is_the_definition(&loads, range, |i| mix64(seed ^ i as u64) & 1 == 0);
        }
    }

    /// The list-and-index pick `FleetRun::choose` counts its way to.
    fn pick(lb: LoadBalancePolicy, eligible: &[usize], key: usize, rr: &mut usize) -> usize {
        match lb {
            LoadBalancePolicy::RoundRobin => {
                let k = eligible[*rr % eligible.len()];
                *rr += 1;
                k
            }
            LoadBalancePolicy::Sticky { sessions } => {
                let session = (key % sessions) as u64;
                eligible[(mix64(session) % eligible.len() as u64) as usize]
            }
            _ => unreachable!("the least-* policies pick from the load slots"),
        }
    }

    #[test]
    fn counted_pick_is_the_list_and_index_pick() {
        // Tier 1 is replicas 5..9; 5 and 7 book dense KV and can never
        // hold a 6000 + 2200 decode working set. Before each pick a fifth
        // of the replicas stop admitting; the pick runs dispatch's filter
        // (bouncer 9 is none), handoff's, none, or one refusing all.
        let trace = Trace::new(vec![crate::trace::TraceEntry::single_shot(0.0, 64, 64)]).unwrap();
        let lives = [Lifecycle::Standby, Lifecycle::Draining, Lifecycle::Failed];
        let sticky = [1, 16, usize::MAX].map(|sessions| LoadBalancePolicy::Sticky { sessions });
        for lb in [LoadBalancePolicy::RoundRobin].into_iter().chain(sticky) {
            let mut cfg = RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 9);
            cfg.replicas[5] = replica_cfg(AdmissionPolicy::vllm());
            cfg.replicas[7] = replica_cfg(AdmissionPolicy::vllm());
            let router = Router::new(cfg.with_lb(lb).with_disagg(5));
            let mut sink = NullSink;
            let mut run = FleetRun::new(&router.engines, &router.cfg, false, &trace, &mut sink);
            run.rr[1] = 1 << 40; // a cursor far past its tier's size
            let (mut rr, mut outcomes) = (run.rr, [0; 3]); // no pick, tier 0, tier 1
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..600 {
                for s in run.states.iter_mut() {
                    let i = rng.gen_range(0..15usize);
                    s.life = lives.get(i).copied().unwrap_or(Lifecycle::Up);
                }
                let tier = rng.gen_range(0..2);
                let filter = rng.gen_range(0..4);
                let bouncer = rng.gen_range(0..10);
                // Half the keys are below 64, half anywhere in `usize`.
                let key = rng.gen::<usize>() >> (58 * rng.gen_range(0..2));
                let ok = |s: &Replica| match filter {
                    0 => s.idx != bouncer,
                    1 => s.engine.reservation_bytes(6000, 2200, 1) <= s.budget,
                    _ => filter == 2,
                };
                let eligible: Vec<usize> = (run.tier(tier))
                    .filter(|&i| run.states[i].is_admitting() && ok(&run.states[i]))
                    .collect();
                let want = (!eligible.is_empty()).then(|| pick(lb, &eligible, key, &mut rr[tier]));
                let got = run.choose(tier, key, ok);
                assert_eq!(got, want, "{lb:?}, tier {tier}, key {key}, {eligible:?}");
                assert_eq!(run.rr, rr, "{lb:?}: the cursors move together");
                outcomes[want.map_or(0, |_| 1 + tier)] += 1;
            }
            assert!(outcomes.iter().all(|&n| n > 50), "{lb:?}: {outcomes:?}");
        }
    }

    #[test]
    fn autoscaler_scales_up_under_load_and_drains_after() {
        // A diurnal wave against a 1-replica floor with 3 standbys: the
        // peak must force scale-ups, the trough must drain back down,
        // and the capacity bill must undercut the 4-replica static
        // fleet's.
        let trace = Trace::generate(
            &ArrivalProcess::Diurnal {
                rate: 25.0,
                swing: 0.9,
                period_s: 24.0,
            },
            &LengthModel::alpaca().with_max_output(64),
            700,
            7,
        );
        let cfg = replica_cfg(AdmissionPolicy::alisa());
        let auto = Router::new(
            RouterConfig::homogeneous(cfg.clone(), 4)
                .with_lb(LoadBalancePolicy::LeastOutstanding)
                .with_autoscaler(),
        )
        .run(&trace);
        let d = auto.dynamics.expect("autoscaled run reports dynamics");
        assert!(d.scale_ups >= 1, "peak load must bring standbys up: {d:?}");
        assert!(d.drains >= 1, "troughs must drain them back: {d:?}");
        assert_eq!(auto.fleet.arrived, 700);
        assert_eq!(auto.fleet.admitted + auto.fleet.rejected, 700);
        assert_eq!(auto.fleet.completed, auto.fleet.admitted);
        let max_secs = 4.0 * auto.fleet.makespan_s;
        assert!(
            d.replica_seconds < max_secs,
            "autoscaled capacity {} must undercut always-on {max_secs}",
            d.replica_seconds
        );
        // Deterministic per seed.
        let again = Router::new(
            RouterConfig::homogeneous(cfg, 4)
                .with_lb(LoadBalancePolicy::LeastOutstanding)
                .with_autoscaler(),
        )
        .run(&trace);
        assert_eq!(auto.canonical_text(), again.canonical_text());
    }

    #[test]
    fn failure_rehomes_in_flight_sessions_and_conserves() {
        // Kill one of three replicas mid-run: every request still
        // terminates exactly once, recovered sessions finish on
        // survivors, and nothing lands on the dead replica afterwards.
        let trace = small_trace(40.0, 160, 23);
        for lb in all_lbs() {
            let r = Router::new(
                RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 3)
                    .with_lb(lb)
                    .with_failures(FailurePlan::at(&[(1.5, 1)])),
            )
            .run(&trace);
            let d = r.dynamics.expect("failure run reports dynamics");
            assert_eq!(d.failures, 1, "{}", lb.name());
            assert_eq!(r.fleet.arrived, 160, "{}", lb.name());
            assert_eq!(
                r.fleet.admitted + r.fleet.rejected,
                r.fleet.arrived,
                "{}: conservation",
                lb.name()
            );
            assert_eq!(
                r.fleet.completed,
                r.fleet.admitted,
                "{}: every surviving admission completes",
                lb.name()
            );
            assert!(
                d.recovered + d.relocated > 0,
                "{}: the kill at t=1.5s must catch in-flight work",
                lb.name()
            );
        }
    }

    #[test]
    fn failed_replica_owns_nothing_at_the_end() {
        let trace = small_trace(8.0, 60, 31);
        let r = Router::new(
            RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 2)
                .with_lb(LoadBalancePolicy::LeastOutstanding)
                .with_failures(FailurePlan::at(&[(1.0, 0)])),
        )
        .run(&trace);
        // Replica 0 died at t=1.0s: all of its completions (if any)
        // predate the kill, and the fleet still conserves.
        assert_eq!(r.fleet.admitted + r.fleet.rejected, 60);
        assert_eq!(r.fleet.completed, r.fleet.admitted);
        assert!(
            r.replicas[1].completed > 0,
            "the survivor must carry the load"
        );
    }

    #[test]
    fn seeded_failure_plans_are_deterministic_and_leave_a_survivor() {
        let a = FailurePlan::seeded(9, 2, 4, 60.0);
        let b = FailurePlan::seeded(9, 2, 4, 60.0);
        assert_eq!(a, b);
        assert_eq!(a.kills.len(), 2);
        let mut replicas: Vec<usize> = a.kills.iter().map(|k| k.replica).collect();
        replicas.dedup();
        assert_eq!(replicas.len(), 2, "kills hit distinct replicas");
        assert!(a
            .kills
            .iter()
            .all(|k| k.t >= 0.2 * 60.0 && k.t <= 0.8 * 60.0));
        assert_ne!(FailurePlan::seeded(10, 2, 4, 60.0), a, "seed must matter");
    }

    #[test]
    fn fleet_slots_follow_every_clock_and_lifecycle_change() {
        // Drives each re-sync point of the clock and load arrays by hand
        // and checks both after each: enqueue, scale-up, a sweep, a drain
        // that empties a replica holding only queued work, and a kill.
        let trace = Trace::new(vec![
            crate::trace::TraceEntry::single_shot(0.0, 64, 400),
            crate::trace::TraceEntry::single_shot(0.0, 64, 400),
        ])
        .unwrap();
        let router = Router::new(
            RouterConfig::homogeneous(replica_cfg(AdmissionPolicy::alisa()), 3)
                .with_lb(LoadBalancePolicy::LeastKvPressure)
                .with_autoscaler(),
        );
        let mut sink = NullSink;
        let mut run = FleetRun::new(&router.engines, &router.cfg, false, &trace, &mut sink);
        assert_eq!(
            run.loads.len(),
            3,
            "a least-* fleet keeps a load slot per replica"
        );
        let res = router.engines[0].reservation_bytes(64, 400, 64);
        run.place(0, 0, 0.0, res);
        assert_eq!(run.out_of_sync(), None, "after an enqueue");
        // Request 0 has waited past the TTFT budget: overload brings
        // replica 1 up.
        let late = 2.0 * router.engines[0].config().slo.ttft_s;
        run.scale_tick::<false>(late);
        assert_eq!(run.states[1].life, Lifecycle::Up);
        assert_eq!(run.out_of_sync(), None, "after a scale-up");
        assert_eq!(run.busy_min(), 0.0);
        run.sweep::<false>(late);
        assert_eq!(run.out_of_sync(), None, "after a sweep");
        assert!(!run.states[0].running.is_empty());
        // Replica 1 holds request 1 in its queue only. Calm now: the
        // drain picks it (ties go to the highest index) and moves the
        // request to replica 0, leaving replica 1 idle.
        run.place(1, 1, late, res);
        run.scale_tick::<false>(late);
        assert_eq!(run.states[1].life, Lifecycle::Draining);
        assert!(!run.states[1].busy());
        assert_eq!(run.out_of_sync(), None, "after a drain");
        run.fail_replica::<false>(0, late);
        assert!(!run.states[0].busy());
        assert_eq!(run.out_of_sync(), None, "after a kill");
        assert_eq!(run.busy_min(), f64::INFINITY);
    }

    /// Checks `merge_timelines` over one timeline per replica against its
    /// definition: the timelines concatenated in index order and
    /// stable-sorted by time, compared field by field, times by bits.
    fn assert_merge_is_stable_sort(timelines: Vec<Vec<ServeSample>>) {
        let template =
            ServeEngine::new(replica_cfg(AdmissionPolicy::alisa())).run(&small_trace(1.0, 1, 1));
        let reports: Vec<ServeReport> = (timelines.into_iter())
            .map(|timeline| ServeReport {
                timeline,
                ..template.clone()
            })
            .collect();
        let mut want: Vec<ServeSample> = reports.iter().flat_map(|r| r.timeline.clone()).collect();
        want.sort_by(|a, b| a.t.total_cmp(&b.t));
        let got = merge_timelines(&reports);
        assert_eq!(got.len(), want.len());
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                g.t.to_bits() == w.t.to_bits()
                    && (g.queue_depth, g.running, g.kv_bytes)
                        == (w.queue_depth, w.running, w.kv_bytes),
                "sample {k}: merged {g:?}, stable sort {w:?}"
            );
        }
    }

    /// Sample `k` of replica `r` at time `t`: its other fields name it,
    /// so a tie merged out of order shows.
    fn tagged(t: f64, r: usize, k: usize) -> ServeSample {
        ServeSample {
            t,
            queue_depth: r,
            running: k,
            kv_bytes: mix64((r << 20 | k) as u64),
        }
    }

    #[test]
    fn bucketed_merge_is_a_stable_sort_of_the_concatenation() {
        assert_merge_is_stable_sort(Vec::new());
        assert_merge_is_stable_sort(vec![Vec::new(); 7]);
        assert_merge_is_stable_sort(vec![(0..100)
            .map(|k| tagged(0.5 * k as f64, 0, k))
            .collect()]);
        // Every sample at one instant: a zero-width span.
        let instant = |r| (0..20).map(|k| tagged(3.5, r, k)).collect();
        assert_merge_is_stable_sort((0..50).map(instant).collect());
        // A straggler far past the rest puts every other sample, ties
        // across replicas among them, in the first bucket.
        let crowded = |r: usize| {
            (0..200)
                .map(|k| tagged((k + r % 7) as f64 * 0.5, r, k))
                .collect()
        };
        let mut fleet: Vec<Vec<ServeSample>> = (0..512).map(crowded).collect();
        fleet.push(vec![tagged(0.0, 512, 0), tagged(1e9, 512, 1)]);
        assert_merge_is_stable_sort(fleet);
        // Exact ties across replicas, and within one.
        let tied = |r: usize| {
            (0..60)
                .map(|k| tagged(((k + r % 3) / 2) as f64 * 0.25, r, k))
                .collect()
        };
        assert_merge_is_stable_sort((0..40).map(tied).collect());
        // Random fleets: non-decreasing clocks on a grid, so ties are common.
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let fleet = (0..rng.gen_range(1..=600))
                .map(|r| {
                    let mut t = f64::from(rng.gen_range(0..400u32)) * 0.25;
                    (0..rng.gen_range(0..=300))
                        .map(|k| {
                            t += f64::from(rng.gen_range(0..4u32)) * 0.25;
                            tagged(t, r, k)
                        })
                        .collect()
                })
                .collect();
            assert_merge_is_stable_sort(fleet);
        }
    }

    #[test]
    fn heterogeneous_fleet_reports_both_hardware_names() {
        let fast = ServeConfig::new(
            ModelConfig::opt_6_7b(),
            HardwareSpec::h100_80gb(),
            AdmissionPolicy::alisa(),
        );
        let slow = replica_cfg(AdmissionPolicy::alisa());
        let router = Router::new(
            RouterConfig::heterogeneous(vec![slow, fast])
                .with_lb(LoadBalancePolicy::LeastOutstanding),
        );
        let trace = small_trace(6.0, 40, 13);
        let r = router.run(&trace);
        assert_eq!(r.fleet.admitted + r.fleet.rejected, 40);
        assert!(
            r.fleet.hardware.contains('+'),
            "heterogeneous tag must join both names: {}",
            r.fleet.hardware
        );
        // The faster replica's normalized load signal must attract
        // strictly more work than an unweighted split would.
        assert!(
            r.replicas[1].arrived > r.replicas[0].arrived,
            "capability-aware balancing must bias toward the faster \
             replica: {} vs {}",
            r.replicas[1].arrived,
            r.replicas[0].arrived
        );
    }

    /// Replicas with an equal model, hardware and policy read one step
    /// price table: a 512-replica homogeneous fleet holds one, and a
    /// 64-replica fleet alternating V100 and H100 exactly two, each
    /// replica reading its own hardware's.
    #[test]
    fn equal_replicas_share_one_price_table() {
        use std::sync::Arc;

        let v100 = replica_cfg(AdmissionPolicy::alisa());
        let fleet = Router::new(RouterConfig::homogeneous(v100.clone(), 512));
        let first = &fleet.engines[0].prices;
        assert!(fleet.engines.iter().all(|e| Arc::ptr_eq(&e.prices, first)));
        assert!(
            format!("{:?}", fleet.engines[0]).contains("PriceTable(4096 lengths, 65 batch sizes)"),
            "the engine's Debug summarizes its price table"
        );

        let h100 = ServeConfig::new(
            ModelConfig::opt_6_7b(),
            HardwareSpec::h100_80gb(),
            AdmissionPolicy::alisa(),
        );
        let replicas = (0..64).map(|i| [&v100, &h100][i % 2].clone()).collect();
        let mixed = Router::new(RouterConfig::heterogeneous(replicas));
        assert!(!Arc::ptr_eq(
            &mixed.engines[0].prices,
            &mixed.engines[1].prices
        ));
        for (i, e) in mixed.engines.iter().enumerate() {
            assert!(Arc::ptr_eq(&e.prices, &mixed.engines[i % 2].prices));
        }
    }
}
