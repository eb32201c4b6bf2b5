//! The continuous-batching serving engine.
//!
//! A discrete-event simulation quantized at decode steps, mirroring how
//! real continuous-batching servers (vLLM, Orca) interleave work: due
//! arrivals enter the admission queue (a request that can never fit is
//! rejected at dispatch), each step rejects what has waited past the
//! timeout, admits in the [`QueueDiscipline`]'s order (FCFS by default)
//! while the KV budget and batch cap allow, then executes one engine
//! step — batched prefill for the newly admitted plus one decode token
//! for every running request — priced through the offline simulators'
//! [`SimBase`] compute and `CostModel` byte formulas
//! ([`ServeEngine::step_time`]). When nothing is in flight
//! the clock jumps to the next arrival, so idle traces cost nothing to
//! simulate. The engine has no event loop of its own: it runs as a
//! 1-replica fleet through the router's loop ([`crate::Router`]).
//!
//! The KV budget is `HardwareSpec::gpu_kv_budget(weights)`, divided
//! among requests per the [`AdmissionPolicy`]'s reservation rule — the
//! subsystem's point: ALISA's sparsity-aware reservation admits a
//! several-fold larger concurrent batch from the same HBM.

use std::fmt;
use std::sync::Arc;

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_obs::{NullSink, TraceSink};
use alisa_sched::common::FP16;
use alisa_sched::SimBase;
use serde::{Deserialize, Serialize};

use crate::admission::AdmissionPolicy;
use crate::discipline::QueueDiscipline;
use crate::metrics::{ServeReport, ServeSample, SloSpec};
use crate::replica::MAX_BATCH;
use crate::request::Request;
use crate::router::{FleetRun, RouterConfig};
use crate::trace::Trace;

/// Timeline samples kept before decimation halves the sampling rate.
const TIMELINE_CAP: usize = 16384;

/// A timeline recorder that deterministically halves its sampling rate
/// once it grows past the cap, while always retaining the *first and
/// last* sample (the Perfetto exporter and the SLO plots need both run
/// boundaries). For runs that never reach the cap the output is
/// identical to recording every step.
#[derive(Debug, Clone, Default)]
pub(crate) struct TimelineRec {
    samples: Vec<ServeSample>,
    stride: usize,
    tail_provisional: bool,
}

impl TimelineRec {
    pub(crate) fn new() -> Self {
        TimelineRec {
            samples: Vec::new(),
            stride: 1,
            tail_provisional: false,
        }
    }

    pub(crate) fn push(&mut self, step_count: u64, sample: ServeSample) {
        if self.tail_provisional {
            self.samples.pop();
            self.tail_provisional = false;
        }
        if step_count.is_multiple_of(self.stride as u64) {
            self.samples.push(sample);
            if self.samples.len() >= TIMELINE_CAP {
                let kept: Vec<ServeSample> = self.samples.iter().copied().step_by(2).collect();
                self.samples = kept;
                self.stride *= 2;
            }
        } else {
            // Off-stride: kept provisionally, replaced by the next push
            // — so whichever sample is last always survives.
            self.samples.push(sample);
            self.tail_provisional = true;
        }
    }

    pub(crate) fn into_samples(self) -> Vec<ServeSample> {
        self.samples
    }
}

/// Session-KV retention: when set, a request's KV working set is kept
/// resident after it finishes (if a later turn of its session exists in
/// the trace), so the follow-up turn can skip prefilling the shared
/// conversation prefix. Retained caches may occupy
/// [`RetentionCfg::BUDGET_SHARE`] of the replica's KV budget and are
/// LRU-evicted whenever admission needs the room — retention competes
/// for HBM, it never blocks a live request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionCfg;

impl RetentionCfg {
    /// Share of the replica's KV budget retained session caches may
    /// occupy.
    pub const BUDGET_SHARE: f64 = 0.5;

    /// Retention at [`RetentionCfg::BUDGET_SHARE`], half the KV budget.
    pub fn half() -> Self {
        RetentionCfg
    }

    /// Retained-pool byte ceiling for a replica KV budget.
    pub(crate) fn pool_bytes(&self, budget: u64) -> u64 {
        (budget as f64 * Self::BUDGET_SHARE) as u64
    }
}

/// One prefill's work within an engine step: the full prompt length and
/// how much of it was skipped because the session's prefix KV was still
/// resident at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefillJob {
    /// Full prompt length in tokens (prefix + new user text).
    pub prompt_len: usize,
    /// Leading tokens whose KV was reused instead of prefilled.
    pub reused_prefix: usize,
}

impl PrefillJob {
    /// A prefill with nothing reused — the legacy single-shot shape.
    pub fn full(prompt_len: usize) -> Self {
        PrefillJob {
            prompt_len,
            reused_prefix: 0,
        }
    }

    /// Tokens that actually run through the model (at least 1 — the
    /// turn must mint its first output token).
    pub fn new_tokens(&self) -> usize {
        self.prompt_len.saturating_sub(self.reused_prefix).max(1)
    }
}

/// Closed-loop client population (used when the trace was generated by
/// [`crate::ArrivalProcess::ClosedLoop`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopCfg {
    /// Concurrent clients; trace entry `i` belongs to client
    /// `i % clients`.
    pub clients: usize,
    /// Mean think time between an answer and the next question (s).
    pub think_s: f64,
    /// Seed for the per-request think-time jitter.
    pub seed: u64,
}

/// Full configuration of one serving simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Model being served.
    pub model: ModelConfig,
    /// Hardware serving it.
    pub hardware: HardwareSpec,
    /// KV admission policy under test (how KV bytes are *priced*).
    pub policy: AdmissionPolicy,
    /// Queue discipline (in what *order* the priced budget is spent,
    /// and whether blocked candidates may preempt). FCFS — the
    /// default — reproduces pre-discipline reports byte-for-byte.
    pub discipline: QueueDiscipline,
    /// Latency SLO for goodput accounting.
    pub slo: SloSpec,
    /// Reject requests queued longer than this (seconds;
    /// `f64::INFINITY` disables).
    pub queue_timeout_s: f64,
    /// Closed-loop gating, if the trace is closed-loop.
    pub closed_loop: Option<ClosedLoopCfg>,
    /// Session-KV retention for cross-request prefix reuse (`None`
    /// reproduces the legacy engine byte-for-byte).
    pub retention: Option<RetentionCfg>,
}

impl ServeConfig {
    /// Builds a config with a hardware-derived SLO and no queue
    /// timeout.
    pub fn new(model: ModelConfig, hardware: HardwareSpec, policy: AdmissionPolicy) -> Self {
        let slo = derived_slo(&model, &hardware);
        ServeConfig {
            model,
            hardware,
            policy,
            discipline: QueueDiscipline::Fcfs,
            slo,
            queue_timeout_s: f64::INFINITY,
            closed_loop: None,
            retention: None,
        }
    }

    /// Overrides the queue timeout.
    pub fn with_queue_timeout(mut self, seconds: f64) -> Self {
        self.queue_timeout_s = seconds;
        self
    }

    /// Enables closed-loop gating.
    pub fn with_closed_loop(mut self, cfg: ClosedLoopCfg) -> Self {
        self.closed_loop = Some(cfg);
        self
    }

    /// Overrides the queue discipline (admission ordering / preemption).
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Enables session-KV retention (cross-request prefix reuse).
    pub fn with_session_reuse(mut self, retention: RetentionCfg) -> Self {
        self.retention = Some(retention);
        self
    }
}

/// SLO derived from the cost model so it scales with model and
/// hardware instead of being a magic constant: TTFT allows ~25 unloaded
/// prefills' worth of queueing; TBT allows ~6× a worst-case full-batch
/// dense decode step. Policy-independent, so every policy is graded
/// against the same bar.
pub fn derived_slo(model: &ModelConfig, hardware: &HardwareSpec) -> SloSpec {
    let sim = SimBase::new(hardware);
    let (mha, ffn) = sim.decode_compute(model, 64, 768, 0.85);
    SloSpec {
        ttft_s: 25.0 * sim.prefill_compute(model, 1, 256, 0.85),
        tbt_s: 6.0 * (mha + ffn),
    }
}

/// Longest sequence whose attended-token count [`PriceTable`] holds:
/// `SessionModel::chat().max_context`, which bounds every chat
/// sequence. Longer ones take the formula.
const ATTENDED_CAP: usize = 4096;

/// The per-step price terms that depend on one sequence's length or on
/// the batch size alone, tabulated once per (model, hardware, policy)
/// from the formulas [`ServeEngine::step_time`] would otherwise call:
/// every entry is the formula's own value, so no price moves. Immutable
/// once built; a fleet's replicas with equal configs share one.
pub(crate) struct PriceTable {
    /// `attended[i]`: the policy's attended tokens at length `i + 1`.
    attended: [u32; ATTENDED_CAP],
    /// `batch[b]`: [`SimBase::decode_batch_terms`] at batch `b`.
    batch: [(f64, f64); MAX_BATCH + 1],
}

impl PriceTable {
    fn new(sim: &SimBase, cfg: &ServeConfig) -> Self {
        let eff = cfg.policy.efficiency();
        PriceTable {
            attended: std::array::from_fn(|i| cfg.policy.attended_tokens(i + 1) as u32),
            batch: std::array::from_fn(|b| sim.decode_batch_terms(&cfg.model, b, eff)),
        }
    }
}

impl fmt::Debug for PriceTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PriceTable({} lengths, {} batch sizes)",
            self.attended.len(),
            self.batch.len()
        )
    }
}

/// The continuous-batching engine. Construct once per config, replay
/// any number of traces; runs are pure functions of `(config, trace)`.
#[derive(Debug, Clone)]
pub struct ServeEngine {
    cfg: ServeConfig,
    sim: SimBase,
    pub(crate) prices: Arc<PriceTable>,
    reference_paths: bool,
}

impl ServeEngine {
    /// Builds the engine (its cost model and step price table) for a
    /// config.
    pub fn new(cfg: ServeConfig) -> Self {
        Self::sharing_prices(cfg, &[])
    }

    /// Builds the engine for `cfg`, reading the price table of the first
    /// of `peers` with the same model, hardware and policy instead of
    /// building one, if there is such a peer.
    pub(crate) fn sharing_prices(cfg: ServeConfig, peers: &[ServeEngine]) -> Self {
        let sim = SimBase::new(&cfg.hardware);
        let peer = peers.iter().find(|p| {
            (&p.cfg.model, &p.cfg.hardware, p.cfg.policy) == (&cfg.model, &cfg.hardware, cfg.policy)
        });
        let prices = match peer {
            Some(peer) => Arc::clone(&peer.prices),
            None => Arc::new(PriceTable::new(&sim, &cfg)),
        };
        ServeEngine {
            cfg,
            sim,
            prices,
            reference_paths: false,
        }
    }

    /// Forces the naive reference hot path: the rejection scan runs
    /// every step instead of being event-gated. Reports and event
    /// streams must be byte-identical either way — this switch exists
    /// so `tests/differential.rs` can prove exactly that.
    #[doc(hidden)]
    pub fn with_reference_paths(mut self, on: bool) -> Self {
        self.reference_paths = on;
        self
    }

    /// The config in use.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// GPU bytes this engine reserves for a request of `prompt_len`
    /// prompt and `output_len` output tokens that prefills `prefilled`
    /// tokens here: the policy's KV working set at the final length,
    /// plus a prefill activation workspace of `prefilled` tokens.
    ///
    /// A fresh request prefills its whole prompt. A session-reuse hit
    /// prefills only the suffix past its retained prefix, whose KV
    /// becomes part of this reservation (so the KV term still covers
    /// the full final length). A decode replica receiving a handed-off
    /// prompt books 1 token: it never runs the prompt through the model.
    /// A preempted request re-prefills the whole context it had built
    /// and owes the rest of its output.
    pub fn reservation_bytes(&self, prompt_len: usize, output_len: usize, prefilled: usize) -> u64 {
        let kv = self
            .cfg
            .policy
            .gpu_kv_bytes(&self.cfg.model, prompt_len + output_len);
        let act = self.cfg.model.activation_bytes_per_seq(FP16) * prefilled as u64;
        kv + act
    }

    /// The no-reuse reservation for what a request owes
    /// ([`Request::owed`]): its context prefilled here, and its
    /// remaining output.
    pub(crate) fn owed_reservation(&self, (context, output): (usize, usize)) -> u64 {
        self.reservation_bytes(context, output, context)
    }

    /// Bytes of prefilled KV state that must travel to a decode replica
    /// when this engine hands off a completed prompt: the policy's
    /// resident working set at `prompt_len` tokens (for sparse policies
    /// only the retained tokens move — dense policies ship everything),
    /// priced at the handoff-region precision of the policy's
    /// [`alisa_tensor::quant::PrecisionPolicy`].
    pub fn kv_handoff_bytes(&self, prompt_len: usize) -> u64 {
        let fp16 = self.cfg.policy.gpu_kv_bytes(&self.cfg.model, prompt_len);
        self.cfg.policy.precision().handoff_bytes(fp16)
    }

    /// Wall-clock cost of handing a completed prompt's KV working set
    /// to a decode replica: the host-staged transfer of
    /// [`ServeEngine::kv_handoff_bytes`], plus the sender-side quantize
    /// and receiver-side dequantize passes when the handoff region is
    /// quantized. The single handoff pricing path shared by the
    /// multi-replica [`crate::Router`] and the tests.
    pub fn kv_handoff_time(&self, prompt_len: usize) -> f64 {
        let fp16 = self.cfg.policy.gpu_kv_bytes(&self.cfg.model, prompt_len);
        self.sim
            .cost
            .replica_transfer_time_at(fp16, self.cfg.policy.precision().handoff)
    }

    /// Relative serving capability of this replica: decode throughput
    /// (sequences per second) on a fixed reference batch — 8 sequences
    /// of 512 tokens — priced through the replica's own cost model, so
    /// hardware, precision policy, and sparsity all fold into one
    /// strictly positive scalar. Heterogeneous fleets divide their load
    /// signals by this weight (outstanding requests or KV pressure *per
    /// unit of throughput*) so capability-aware balancing compares a
    /// V100 and an A100-class replica fairly; on homogeneous fleets
    /// every replica gets the same weight and the normalization is a
    /// no-op on the selection order.
    pub fn throughput_weight(&self) -> f64 {
        const REF_BATCH: usize = 8;
        const REF_SEQ: usize = 512;
        let dt = self.step_time(&[], &[REF_SEQ; REF_BATCH]);
        REF_BATCH as f64 / dt.max(1e-12)
    }

    /// Wall-clock cost of one engine step: a prefill pass per newly
    /// admitted prompt (`prefills`), one decode token for every running
    /// sequence (`running_seq_lens`, raw lengths — the policy's
    /// attended-token rule is applied here), and the policy's per-step
    /// selection/offload overhead. A [`PrefillJob`] with a reused
    /// session prefix only runs its suffix through the model
    /// ([`SimBase::prefill_compute`] over the new tokens), then pays
    /// cross-attention of those suffix queries over the retained sparse
    /// prefix ([`SimBase::context_attention_time`] at the policy's
    /// attended-token count); the prefix is FP16 in HBM, so it needs no
    /// dequantize pass. Every replica step in the engine and the
    /// multi-replica [`crate::Router`] is priced here.
    ///
    /// The decode batch is [`SimBase::decode_compute`] at the mean
    /// attended count. The attended counts of lengths up to 4,096 and
    /// the batch-only half ([`SimBase::decode_batch_terms`]) of batches
    /// up to the batch cap are read from a table built once per
    /// (model, hardware, policy); past either end the formulas run, so
    /// every price is the formulas' own to the bit.
    pub fn step_time(&self, prefills: &[PrefillJob], running_seq_lens: &[usize]) -> f64 {
        let cfg = &self.cfg;
        let model = &cfg.model;
        let sim = &self.sim;
        let eff = cfg.policy.efficiency();
        // Prefills are priced per-request (chunked-prefill style):
        // attention cost is quadratic in the prompt length, so pricing a
        // heterogeneous batch at its mean length would systematically
        // undercharge (Cauchy–Schwarz: b·mean(s)² ≤ Σ s_i²).
        let mut step_time = 0.0;
        for p in prefills {
            step_time += sim.prefill_compute(model, 1, p.new_tokens(), eff);
            if p.reused_prefix > 0 {
                let ctx = self.attended_tokens(p.reused_prefix);
                step_time += sim.context_attention_time(model, p.new_tokens(), ctx, eff);
            }
        }
        if !running_seq_lens.is_empty() {
            let b = running_seq_lens.len();
            let mean_kv = running_seq_lens
                .iter()
                .map(|&s| self.attended_tokens(s))
                .sum::<usize>()
                / b;
            let (proj, ffn) = match b {
                0..=MAX_BATCH => self.prices.batch[b],
                _ => sim.decode_batch_terms(model, b, eff),
            };
            step_time += sim.decode_mha(model, b, mean_kv.max(1), proj, eff) + ffn;
        }
        let batch = running_seq_lens.len() + prefills.len();
        // The selection/offload overhead sees the *full* sequences —
        // the reused prefix is resident KV that churns like any other.
        if let Some(mean_seq) = (running_seq_lens.iter().copied())
            .chain(prefills.iter().map(|p| p.prompt_len))
            .sum::<usize>()
            .checked_div(batch)
        {
            step_time += cfg.policy.step_overhead(sim, model, batch, mean_seq.max(1));
        }
        step_time
    }

    /// [`AdmissionPolicy::attended_tokens`] at `seq_len`, from the
    /// price table when it holds that length.
    #[inline]
    fn attended_tokens(&self, seq_len: usize) -> usize {
        match seq_len {
            1..=ATTENDED_CAP => self.prices.attended[seq_len - 1] as usize,
            _ => self.cfg.policy.attended_tokens(seq_len),
        }
    }

    /// Wall-clock cost of restarting a running request if it were
    /// preempted now: the re-prefill of its whole built context
    /// ([`SimBase::prefill_compute`]). The preemptive discipline's
    /// victim metric — "cheapest to restart" minimizes exactly this.
    pub(crate) fn restart_cost(&self, req: &Request) -> f64 {
        self.sim.prefill_compute(
            &self.cfg.model,
            1,
            req.seq_len().max(1),
            self.cfg.policy.efficiency(),
        )
    }

    /// Total GPU bytes available to request reservations.
    pub fn kv_budget(&self) -> u64 {
        self.cfg
            .hardware
            .gpu_kv_budget(self.cfg.model.weight_bytes(FP16))
    }

    /// Replays `trace` and returns the aggregate report. Deterministic:
    /// the same config and trace produce a byte-identical report.
    pub fn run(&self, trace: &Trace) -> ServeReport {
        self.run_traced(trace, &mut NullSink)
    }

    /// [`ServeEngine::run`] with structured event tracing: every
    /// lifecycle decision — arrival, dispatch, admission with its full
    /// KV-pricing breakdown, rejection and preemption with a
    /// decision trace naming the losing comparison, session-retention
    /// hit/miss/store/evict, step boundaries, completions — is emitted into
    /// `sink`, and the report gains the opt-in metrics section. Event
    /// timestamps are simulation-clock only, so same-seed traces are
    /// byte-identical. With a disabled sink ([`NullSink`]) no event is even
    /// constructed and the report is byte-identical to [`ServeEngine::run`].
    ///
    /// The engine runs as a 1-replica fleet through the router's loop,
    /// itself as replica 0, and reports over every request in the
    /// trace.
    pub fn run_traced(&self, trace: &Trace, sink: &mut dyn TraceSink) -> ServeReport {
        let fleet = RouterConfig::homogeneous(self.cfg.clone(), 1);
        let engines = std::slice::from_ref(self);
        let mut run = FleetRun::new(engines, &fleet, self.reference_paths, trace, sink);
        run.run();
        run.engine_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use alisa_workloads::LengthModel;

    fn small_trace(rate: f64, n: usize, seed: u64) -> Trace {
        Trace::generate(
            &ArrivalProcess::Poisson { rate },
            &LengthModel::alpaca().with_max_output(48),
            n,
            seed,
        )
    }

    fn v100_config(policy: AdmissionPolicy) -> ServeConfig {
        ServeConfig::new(ModelConfig::opt_6_7b(), HardwareSpec::v100_16gb(), policy)
    }

    /// Timeline decimation keeps the run boundaries: past the cap the
    /// recorder halves its rate but the first AND last pushed sample
    /// always survive, and an under-cap recording is untouched.
    #[test]
    fn timeline_decimation_retains_first_and_last_sample() {
        let sample = |i: u64| ServeSample {
            t: i as f64,
            queue_depth: i as usize,
            running: 1,
            kv_bytes: i,
        };
        // Under the cap: identical to recording every step.
        let mut rec = TimelineRec::new();
        for i in 1..=100u64 {
            rec.push(i, sample(i));
        }
        let all: Vec<ServeSample> = (1..=100).map(sample).collect();
        assert_eq!(rec.into_samples(), all, "under-cap recording is lossless");

        // Well past the cap (several halvings, ending off-stride).
        let last = 3 * TIMELINE_CAP as u64 + 1;
        let mut rec = TimelineRec::new();
        for i in 1..=last {
            rec.push(i, sample(i));
        }
        let kept = rec.into_samples();
        assert!(
            kept.len() <= TIMELINE_CAP,
            "decimation must bound the timeline: {} > {TIMELINE_CAP}",
            kept.len()
        );
        assert_eq!(kept.first(), Some(&sample(1)), "first sample survives");
        assert_eq!(
            kept.last(),
            Some(&sample(last)),
            "last sample survives even off-stride"
        );
        for w in kept.windows(2) {
            assert!(w[0].t < w[1].t, "decimated timeline stays ordered");
        }
    }

    #[test]
    fn drains_everything_and_conserves_requests() {
        let engine = ServeEngine::new(v100_config(AdmissionPolicy::alisa()));
        let trace = small_trace(2.0, 40, 11);
        let r = engine.run(&trace);
        assert_eq!(r.arrived, 40);
        assert_eq!(r.admitted + r.rejected, r.arrived);
        assert_eq!(r.completed, r.admitted, "no timeout: all admitted finish");
        assert!(r.makespan_s > 0.0);
        assert!(r.throughput_tps > 0.0);
        assert!(r.mean_batch >= 1.0);
    }

    #[test]
    fn same_inputs_same_report() {
        let engine = ServeEngine::new(v100_config(AdmissionPolicy::alisa()));
        let trace = small_trace(4.0, 30, 5);
        let a = engine.run(&trace);
        let b = engine.run(&trace);
        assert_eq!(a, b);
        assert_eq!(a.canonical_text(), b.canonical_text());
    }

    #[test]
    fn alisa_sustains_a_larger_batch_than_vllm() {
        let trace = small_trace(8.0, 60, 3);
        let alisa = ServeEngine::new(v100_config(AdmissionPolicy::alisa())).run(&trace);
        let vllm = ServeEngine::new(v100_config(AdmissionPolicy::vllm())).run(&trace);
        assert!(
            alisa.mean_batch > vllm.mean_batch,
            "ALISA batch {:.1} must exceed vLLM batch {:.1}",
            alisa.mean_batch,
            vllm.mean_batch
        );
    }

    #[test]
    fn queue_timeout_rejects_under_overload() {
        let cfg = v100_config(AdmissionPolicy::vllm()).with_queue_timeout(0.5);
        let engine = ServeEngine::new(cfg);
        let trace = small_trace(400.0, 150, 9);
        let r = engine.run(&trace);
        assert!(r.rejected > 0, "400 req/s must overload a V100");
        assert_eq!(r.admitted + r.rejected, r.arrived);
    }

    #[test]
    fn infeasible_requests_are_rejected_not_wedged() {
        // A tiny batch cap with a giant request that can never fit.
        let mut cfg = v100_config(AdmissionPolicy::vllm());
        cfg.model.max_context = 1 << 20;
        let engine = ServeEngine::new(cfg);
        let entries = vec![crate::trace::TraceEntry::single_shot(0.0, 500_000, 500_000)];
        let r = engine.run(&Trace::new(entries).unwrap());
        assert_eq!(r.rejected, 1);
        assert_eq!(r.completed, 0);
    }

    #[test]
    fn closed_loop_bounds_concurrency() {
        let cl = ClosedLoopCfg {
            clients: 4,
            think_s: 0.5,
            seed: 7,
        };
        let cfg = v100_config(AdmissionPolicy::alisa()).with_closed_loop(cl);
        let engine = ServeEngine::new(cfg);
        let trace = Trace::generate(
            &ArrivalProcess::ClosedLoop {
                clients: 4,
                think_s: 0.5,
            },
            &LengthModel::alpaca().with_max_output(32),
            24,
            7,
        );
        let r = engine.run(&trace);
        assert_eq!(r.completed, 24);
        // Never more in flight (queued + running) than clients.
        assert!(r.timeline.iter().all(|s| s.queue_depth + s.running <= 4));
        assert!(r.mean_batch <= 4.0);
    }

    #[test]
    fn slo_is_hardware_derived_and_positive() {
        let slo = derived_slo(&ModelConfig::opt_6_7b(), &HardwareSpec::v100_16gb());
        assert!(slo.ttft_s > 0.0 && slo.tbt_s > 0.0);
        let h100 = derived_slo(&ModelConfig::opt_6_7b(), &HardwareSpec::h100_80gb());
        assert!(h100.ttft_s < slo.ttft_s, "faster hardware, tighter SLO");
    }
}
