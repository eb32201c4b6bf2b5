//! ALISA's three-phase, token-level dynamic scheduler (Algorithm 2) and
//! the offline plan optimizer (Eq. 3–6).
//!
//! Per decoding step the simulator executes the real algorithm:
//!
//! * **Phase I — GPU caching**: all KV tensors fit in HBM; no traffic.
//! * **Phase II — GPU–CPU caching**: the KV working set exceeds HBM
//!   headroom, so the oldest tokens *outside the sparse working set*
//!   are offloaded (locally-static tokens stay pinned on GPU, §V-A:
//!   "we prefer allocating local tokens in GPU […] global tokens are
//!   less predictable"). Globally-dynamic tokens that drifted onto the
//!   CPU cross the link every step they are selected; never re-cached.
//! * **Phase III — recomputation–caching**: past the `p2` sequence
//!   length, a `β` fraction of would-be offloads is *deleted* instead of
//!   stored; if a deleted token is later selected, its K/V rows are
//!   recomputed on the GPU (two projection GEMMs per layer) — cheaper
//!   than crossing the link once sequences are long.
//!
//! The GPU-resident hot window stores FP16. The KV that leaves it is
//! priced through a per-cache-state-region [`PrecisionPolicy`]: the
//! CPU-resident sparse remainder (with an optional colder INT4 tail)
//! and in-flight handoff bytes each store at their own
//! [`KvPrecision`](alisa_tensor::quant::KvPrecision). The paper's
//! §V-B INT8 compression is the [`PrecisionPolicy::int8`] operating
//! point — CPU-resident tokens at INT8, so the link moves half the
//! bytes plus a quantize/dequantize vector op.
//!
//! A step's global set depends on the model and the workload (the
//! [`GlobalSetModel`] seed and the sequence length) and on the sparsity
//! (the step's budget), never on the plan or the precision. The decode
//! loop therefore reads each step's set from a memo that selects it the
//! first time a run reaches the step, and [`PlanOptimizer::optimize`]
//! lends one memo to all of its candidates, which then select each step
//! once between them.

use alisa_kvcache::{Location, TokenKvStore};
use alisa_memsim::{HardwareSpec, MemClass, OomError, StepRecord};
use alisa_model::ModelConfig;
use alisa_tensor::quant::PrecisionPolicy;
use serde::{Deserialize, Serialize};

use crate::common::{efficiency, hash_unit, resident_tokens, SimBase, FP16};
use crate::report::RunReport;
use crate::workload::Workload;
use crate::{run_on_fresh_pools, InferenceSystem};

/// History depth of SWA's local attention sum: what the scheduler and
/// serving admission price selection at, and the depth the `alisa`
/// front door's functional-path config runs.
pub const HISTORY_DEPTH: usize = 4;

/// Steps between the drift epochs of [`GlobalSetModel`]: the selected
/// global set churns when an epoch rolls.
const DRIFT_EPOCH: usize = 32;

/// Streaming margin, in tokens, kept free for working-set tokens that
/// stream through the GPU without being cached: the scheduler lowers
/// its offload watermark by it, and serving admission adds it to
/// ALISA's reservation.
pub const MARGIN_TOKENS: u64 = 4;

/// Tunable plan of Algorithm 2: `{α, β, p2}`.
///
/// `p1` (the Phase II entry step) is triggered by memory pressure itself
/// — the paper notes "the phase change is triggered by the sequence
/// length", and the sequence length at which KV outgrows HBM is a
/// deterministic function of the workload, so the optimizer does not
/// search over it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Offload aggressiveness `α ∈ (0, 1]`: when GPU KV exceeds the
    /// headroom, it is drained down to `α ×` headroom. Smaller α batches
    /// offloads (fewer, larger transfers); larger α offloads lazily.
    pub alpha: f64,
    /// Recompute ratio `β ∈ [0, 1]`: fraction of Phase III evictions
    /// deleted (recompute-on-demand) rather than stored to CPU.
    pub beta: f64,
    /// Phase III trigger as a fraction of the final sequence length
    /// (`> 1.0` disables Phase III).
    pub p2_frac: f64,
}

impl Plan {
    /// Static scheduling, the "SWA" column of Figure 12(c)'s ablation:
    /// eager offload down to half the headroom and no Phase III, so the
    /// sparse working set is placed the way FlexGen places KV.
    pub const STATIC: Plan = Plan {
        alpha: 0.5,
        beta: 0.0,
        p2_frac: 2.0,
    };
}

impl Default for Plan {
    /// A safe plan used before optimization: moderately lazy offload,
    /// recomputation on for the last quarter of the sequence.
    fn default() -> Self {
        Plan {
            alpha: 0.9,
            beta: 0.5,
            p2_frac: 0.75,
        }
    }
}

/// The ALISA inference system: SWA sparsity + dynamic scheduling +
/// per-region KV precision (§V-B generalized).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlisaScheduler {
    /// Target KV sparsity (the paper evaluates 80% end-to-end).
    pub kv_sparsity: f64,
    /// Per-cache-state-region KV precision. [`PrecisionPolicy::fp16`]
    /// is the legacy "no compression" pricing;
    /// [`PrecisionPolicy::int8`] is the paper's §V-B INT8 offload.
    pub precision: PrecisionPolicy,
    /// Scheduling plan (defaults to [`Plan::default`]; tune with
    /// [`PlanOptimizer`]).
    pub plan: Plan,
}

impl AlisaScheduler {
    /// Creates ALISA at the given sparsity, with or without the paper's
    /// INT8 KV compression of CPU-resident tokens, under the default
    /// plan. The boolean maps onto the two legacy precision policies
    /// ([`PrecisionPolicy::from_legacy_compression`]); use
    /// [`AlisaScheduler::with_precision`] for mixed-precision points.
    pub fn new(kv_sparsity: f64, kv_compression: bool) -> Self {
        assert!(
            (0.0..1.0).contains(&kv_sparsity),
            "sparsity must be in [0,1)"
        );
        AlisaScheduler {
            kv_sparsity,
            precision: PrecisionPolicy::from_legacy_compression(kv_compression),
            plan: Plan::default(),
        }
    }

    /// Replaces the scheduling plan.
    pub fn with_plan(mut self, plan: Plan) -> Self {
        self.plan = plan;
        self
    }

    /// Replaces the per-region precision policy.
    pub fn with_precision(mut self, precision: PrecisionPolicy) -> Self {
        self.precision = precision;
        self
    }

    /// Whether any offloaded KV is quantized (the generalization of the
    /// old `kv_compression` flag).
    pub fn compresses_kv(&self) -> bool {
        self.precision.quantizes_cpu()
    }

    /// Turns Phase III recomputation off and keeps the rest of the
    /// plan: Figure 12(b)'s "recompute OFF" column.
    pub fn without_recompute(mut self) -> Self {
        self.plan.p2_frac = 2.0;
        self.plan.beta = 0.0;
        self
    }
}

/// Deterministic drifting heavy-hitter model: which `k` global tokens
/// SWA's local attention sum selects at a given step.
///
/// Trained-model attention statistics are unavailable in the performance
/// simulator, so the global set follows the same structure the
/// functional path measures: a persistent per-position hotness
/// (heavy hitters), a recency tilt, and slow epoch-wise drift (topics
/// shift as text is generated). Fully deterministic per (seed, step).
#[derive(Debug, Clone, Copy)]
pub struct GlobalSetModel {
    seed: u64,
}

impl GlobalSetModel {
    /// Creates the model for one run.
    pub fn new(seed: u64) -> Self {
        GlobalSetModel { seed }
    }

    /// Scores position `p` at step `j`; higher = more likely selected.
    fn score(&self, p: usize, j: usize, seq_len: usize) -> f64 {
        let hot = hash_unit(self.seed, p as u64);
        let drift = hash_unit(
            self.seed ^ 0xD21F,
            (p as u64) << 20 | (j / DRIFT_EPOCH) as u64,
        );
        let recency = p as f64 / seq_len.max(1) as f64;
        0.55 * hot + 0.2 * drift + 0.25 * recency
    }

    /// The `k` global positions among `0..range_end` at step `j`.
    ///
    /// This is the *naive reference* selection: it re-derives both hash
    /// terms of every score inside the sort comparator. The scheduler's
    /// hot loop uses [`GlobalSetModel::pick_into`] instead, and the
    /// differential tests pin the two byte-for-byte against each other.
    pub fn pick(&self, k: usize, range_end: usize, j: usize, seq_len: usize) -> Vec<usize> {
        let _topk = alisa_obs::profile::timer(alisa_obs::profile::Phase::TopK);
        if k == 0 || range_end == 0 {
            return Vec::new();
        }
        let mut idx: Vec<usize> = (0..range_end).collect();
        idx.sort_by(|&a, &b| {
            self.score(b, j, seq_len)
                .partial_cmp(&self.score(a, j, seq_len))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.cmp(&a))
        });
        let mut out: Vec<usize> = idx.into_iter().take(k.min(range_end)).collect();
        out.sort_unstable();
        out
    }

    /// [`GlobalSetModel::pick`] with cross-step caching and reused
    /// buffers — the scheduler's selection. The score
    /// `0.55·hot + 0.2·drift + 0.25·recency` factors into a per-position
    /// base (`hot` never changes; `drift` only changes when the
    /// `j / DRIFT_EPOCH` bucket rolls) plus the step's recency tilt, so the
    /// base is kept in `scratch` across decode steps and extended
    /// incrementally as the selectable range grows. Selection then runs
    /// a partial sort over the precomputed scores under the *same*
    /// strict total order as the reference comparator (score descending,
    /// index descending on ties; scores are finite, so `partial_cmp`
    /// never falls through), which makes the selected set — and the
    /// ascending `out` — byte-identical to [`GlobalSetModel::pick`]'s.
    pub fn pick_into(
        &self,
        k: usize,
        range_end: usize,
        j: usize,
        seq_len: usize,
        scratch: &mut TopKScratch,
        out: &mut Vec<usize>,
    ) {
        let _topk = alisa_obs::profile::timer(alisa_obs::profile::Phase::TopK);
        out.clear();
        if k == 0 || range_end == 0 {
            return;
        }
        let epoch = j / DRIFT_EPOCH;
        let TopKScratch {
            epoch_key,
            base,
            pf,
            score,
            key,
        } = scratch;
        if *epoch_key != Some(epoch) {
            *epoch_key = Some(epoch);
            base.clear();
        }
        for p in base.len()..range_end {
            let hot = hash_unit(self.seed, p as u64);
            let drift = hash_unit(self.seed ^ 0xD21F, (p as u64) << 20 | epoch as u64);
            // The leading two terms of `score`, associated exactly as
            // the reference expression associates them.
            base.push(0.55 * hot + 0.2 * drift);
        }
        for p in pf.len()..range_end {
            pf.push(p as f64);
        }
        // Score pass first (pure f64 arithmetic over slices, which the
        // compiler vectorizes), then pack each candidate as
        // (score bits ‖ index) in one u128. Scores are finite and
        // non-negative (every term is), so IEEE bit order equals numeric
        // order and a single integer compare reproduces the reference
        // order exactly: descending score, then descending index on
        // ties.
        let denom = seq_len.max(1) as f64;
        score.clear();
        score.extend(
            base[..range_end]
                .iter()
                .zip(&pf[..range_end])
                .map(|(&b, &p)| b + 0.25 * (p / denom)),
        );
        key.clear();
        key.extend(
            score
                .iter()
                .enumerate()
                .map(|(p, s)| (s.to_bits() as u128) << 32 | p as u128),
        );
        let keep = k.min(range_end);
        if keep < range_end {
            key.select_nth_unstable_by(keep - 1, |a, b| b.cmp(a));
        }
        out.extend(key[..keep].iter().map(|&packed| packed as u32 as usize));
        out.sort_unstable();
    }
}

/// Reusable cross-step selection state for [`GlobalSetModel::pick_into`]:
/// cached per-position score bases (valid for one drift epoch), the
/// current step's full score table, and the candidate-index workspace.
/// One instance lives as long as the scheduler's memo of selected sets;
/// steady-state selection allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct TopKScratch {
    /// Drift epoch (`j / DRIFT_EPOCH`) the cached bases were computed for.
    epoch_key: Option<usize>,
    /// `0.55·hot(p) + 0.2·drift(p, epoch)` for each cached position.
    base: Vec<f64>,
    /// `p as f64` for each cached position (epoch-independent).
    pf: Vec<f64>,
    /// Per-step score table (`base + 0.25·recency`).
    score: Vec<f64>,
    /// Per-step packed (score bits ‖ index) keys, partially sorted.
    key: Vec<u128>,
}

/// SWA's per-step global sets for one (model, workload, sparsity), each
/// selected by [`GlobalSetModel::pick_into`] the first time a run reaches
/// its step. Runs walk their steps in order, so the memo fills in order,
/// and a run that runs out of memory selects only the steps it reached.
struct GlobalSetMemo {
    globals: GlobalSetModel,
    scratch: TopKScratch,
    /// Step `j`'s set at index `j - 1`.
    sets: Vec<Vec<usize>>,
}

impl GlobalSetMemo {
    fn new(model: &ModelConfig, wl: &Workload) -> Self {
        GlobalSetMemo {
            globals: GlobalSetModel::new(mix_name(model, wl)),
            scratch: TopKScratch::default(),
            sets: Vec::new(),
        }
    }

    /// Step `j`'s `k` global positions among `0..range_end` at sequence
    /// length `seq_len`; every run sharing the memo asks for the same
    /// arguments at a given step.
    fn step(&mut self, k: usize, range_end: usize, j: usize, seq_len: usize) -> &[usize] {
        if j == self.sets.len() + 1 {
            let mut set = Vec::new();
            self.globals
                .pick_into(k, range_end, j, seq_len, &mut self.scratch, &mut set);
            self.sets.push(set);
        }
        let set = &self.sets[j - 1];
        debug_assert_eq!(set.len(), k.min(range_end), "a memo of another sparsity");
        set
    }
}

/// Step (a)'s victims in eviction order: the GPU tokens outside
/// window ∪ globals, then the GPU-resident globals, then the window's
/// GPU tokens, each ascending. The walk reads the placement as it goes
/// and yields one victim per call, so it reads no further than the last
/// victim the step takes; relocating a yielded victim leaves the rest
/// of the order as it was, since every later victim lies ahead of the
/// walk.
struct EvictionWalk<'a> {
    /// The step's global set, ascending and below `window_start`.
    globals: &'a [usize],
    window_start: usize,
    /// Next position of the outside pass, then of the window pass.
    at: usize,
    /// Merge pointer of the outside pass: the first global not below
    /// the position it tests.
    merge: usize,
    /// Next global of the globals pass.
    global: usize,
}

impl<'a> EvictionWalk<'a> {
    /// A walk from `first_gpu`, the lowest GPU-resident index.
    fn new(first_gpu: usize, globals: &'a [usize], window_start: usize) -> Self {
        // Globals below `first_gpu` are off the GPU already.
        let skip = globals.partition_point(|&g| g < first_gpu);
        EvictionWalk {
            globals,
            window_start,
            at: first_gpu,
            merge: skip,
            global: skip,
        }
    }

    /// The next victim, or `None` once no GPU token is left.
    fn next(&mut self, store: &TokenKvStore) -> Option<usize> {
        let on_gpu = |i: usize| store.location(i) == Location::Gpu;
        while self.at < self.window_start {
            let i = self.at;
            self.at += 1;
            while self.globals.get(self.merge).is_some_and(|&g| g < i) {
                self.merge += 1;
            }
            if on_gpu(i) && self.globals.get(self.merge) != Some(&i) {
                return Some(i);
            }
        }
        while let Some(&i) = self.globals.get(self.global) {
            self.global += 1;
            if on_gpu(i) {
                return Some(i);
            }
        }
        // `at` is now at or past both `first_gpu` and the window start.
        while self.at < store.len() {
            let i = self.at;
            self.at += 1;
            if on_gpu(i) {
                return Some(i);
            }
        }
        None
    }
}

impl AlisaScheduler {
    /// [`InferenceSystem::simulate`] with a placement observer:
    /// `on_step` sees the pools and the token placement right after the
    /// prefill record and after each decode record is pushed, so it runs
    /// once per timeline record (Figure 7 draws these placements).
    ///
    /// # Errors
    ///
    /// As [`InferenceSystem::simulate`].
    pub fn simulate_with(
        &self,
        sim: &mut SimBase,
        model: &ModelConfig,
        wl: &Workload,
        on_step: impl FnMut(&SimBase, &TokenKvStore),
    ) -> Result<(), OomError> {
        self.simulate_with_sets(sim, model, wl, &mut GlobalSetMemo::new(model, wl), on_step)
    }

    /// Algorithm 2 over prefill and decode, reading each step's global
    /// set from `sets`, a memo of this model, workload and sparsity.
    fn simulate_with_sets(
        &self,
        sim: &mut SimBase,
        model: &ModelConfig,
        wl: &Workload,
        sets: &mut GlobalSetMemo,
        mut on_step: impl FnMut(&SimBase, &TokenKvStore),
    ) -> Result<(), OomError> {
        sim.setup_resident(model, wl, true)?;

        let b = wl.batch_size;
        let fp16_tok = model.kv_bytes_per_token(FP16) * b as u64;
        // Per-region stored widths, the run's one byte model of a
        // token (the store tracks placement only): the hot window
        // occupies `fp16_tok` in HBM; an offloaded token stores (and
        // ships) `cpu_tok`; a *reloaded* token ships at the warm-share
        // width — re-selected tokens are warm by the cold tail's
        // definition (both widths coincide when there is no cold tail).
        let cpu_tok = self.precision.cpu_bytes(fp16_tok);
        let cpu_reload_tok = self.precision.cpu_reload_bytes(fp16_tok);
        let headroom = sim.gpu_kv_headroom();
        let r = 1.0 - self.kv_sparsity;
        let final_seq = wl.final_seq_len();
        let p2_seq = (self.plan.p2_frac * final_seq as f64) as usize;
        let mut store = TokenKvStore::new();

        // A few tokens of transient workspace stay free for streamed
        // (non-cached) working-set tokens, mirroring the layer-wise
        // scheduling the paper describes ("schedule KV tensors in a
        // layerwise manner"): only one layer's gathered KV needs to be
        // resident at a time, so a small bounce buffer suffices.
        let margin = MARGIN_TOKENS * fp16_tok;
        let watermark = ((headroom as f64 * self.plan.alpha) as u64).saturating_sub(margin);

        // ---- Prefill: all prompt tokens, spilling the oldest to CPU if
        // the prompt KV alone exceeds the offload watermark.
        let mut prefill_store_bytes = 0u64;
        for _ in 0..wl.input_len {
            store.append(Location::Gpu);
        }
        let mut gpu_kv = wl.input_len as u64 * fp16_tok;
        // All prompt tokens are GPU-resident and nothing else touches
        // the store here, so "oldest on GPU" is simply the next index in
        // appending order. `first_gpu` stays on or below the lowest
        // GPU-resident index for the whole run; it only moves forward,
        // since no token ever returns to the GPU (step (c)).
        let mut first_gpu = 0usize;
        while gpu_kv > watermark {
            if first_gpu >= store.len() {
                break;
            }
            store.relocate(first_gpu, Location::Cpu);
            first_gpu += 1;
            gpu_kv -= fp16_tok;
            prefill_store_bytes += cpu_tok;
        }
        sim.gpu.alloc(MemClass::KvCache, gpu_kv)?;
        sim.cpu.alloc(MemClass::KvCache, prefill_store_bytes)?;

        sim.push_step(StepRecord {
            phase: if prefill_store_bytes > 0 { 2 } else { 1 },
            mha_time: sim.prefill_compute(model, b, wl.input_len, efficiency::FLEXGEN),
            store_time: sim.cost.transfer_time(prefill_store_bytes),
            quant_time: if self.compresses_kv() && prefill_store_bytes > 0 {
                sim.cost.quantize_time(prefill_store_bytes)
            } else {
                0.0
            },
            ..StepRecord::default()
        });
        on_step(sim, &store);

        let mut entered_phase2 = prefill_store_bytes > 0;

        // ---- Decode loop (Algorithm 2). Only the memo's first
        // selection of a step allocates.
        sim.timeline.reserve(wl.output_len);
        let mut beta_acc = 0.0f64;
        for j in 1..=wl.output_len {
            let seq_len = wl.input_len + j;
            let budget = resident_tokens(seq_len, r);
            let k_local = budget.div_ceil(2);
            let k_global = budget - k_local;

            let mut load_bytes = 0u64;
            let mut store_bytes = 0u64;
            let mut recompute_tokens = 0usize;
            let phase3 = seq_len >= p2_seq;

            // SWA working set: pinned local window + drifting globals.
            let window_start = seq_len - k_local;
            let global_set = sets.step(k_global, window_start, j, seq_len);

            // (a) Make room for the incoming token: offload (or, in
            // Phase III, delete) the oldest GPU tokens. Working-set
            // tokens are preferred victims *last*: first anything
            // outside window ∪ globals, then globals, then the window
            // itself (the degenerate streaming regime), each class in
            // ascending index order — the order a rescan of the store
            // per eviction would give, since nothing is appended while
            // draining and victims only ever leave the GPU. The walk
            // starts at the lowest GPU-resident index and stops at the
            // last victim taken.
            let target = watermark.saturating_sub(fp16_tok);
            if sim.gpu.used_by(MemClass::KvCache) > target {
                while first_gpu < store.len() && store.location(first_gpu) != Location::Gpu {
                    first_gpu += 1;
                }
                let mut victims = EvictionWalk::new(first_gpu, global_set, window_start);
                while sim.gpu.used_by(MemClass::KvCache) > target {
                    let Some(victim) = victims.next(&store) else {
                        break;
                    };
                    sim.gpu.free(MemClass::KvCache, fp16_tok);
                    beta_acc += self.plan.beta;
                    if phase3 && beta_acc >= 1.0 {
                        // Algorithm 2 line 17: delete instead of store.
                        beta_acc -= 1.0;
                        store.relocate(victim, Location::Deleted);
                    } else {
                        store.relocate(victim, Location::Cpu);
                        store_bytes += cpu_tok;
                        sim.cpu.alloc(MemClass::KvCache, cpu_tok)?;
                    }
                    entered_phase2 = true;
                }
            }

            // (b) Append the new token's KV on GPU.
            sim.gpu.alloc(MemClass::KvCache, fp16_tok)?;
            store.append(Location::Gpu);

            // (c) Stream in the globals that are not GPU-resident: a CPU
            // token crosses the link, a deleted one is recomputed, and
            // neither is cached back, so each is charged again on every
            // step that selects it. Caching one would need GPU KV +
            // `fp16_tok` ≤ `watermark`, which cannot hold once a token has
            // left the GPU: (a) drains to within one token under
            // `target`, (b) adds one token, and nothing else frees GPU KV
            // (the prefill spill also stops within one token under
            // `watermark`).
            for &i in global_set {
                match store.location(i) {
                    Location::Gpu => {}
                    Location::Cpu => load_bytes += cpu_reload_tok,
                    Location::Deleted => recompute_tokens += 1,
                }
            }

            // Price the step.
            let (mha, ffn) = sim.decode_compute(model, b, budget, efficiency::FLEXGEN);
            let selection = sim.selection_overhead(model, b, seq_len, budget, HISTORY_DEPTH);
            let recompute_time = if recompute_tokens > 0 {
                // K and V projection GEMMs per layer for the recomputed rows.
                2.0 * model.num_layers as f64
                    * sim.cost.gemm_time(
                        recompute_tokens * b,
                        model.hidden_dim,
                        model.hidden_dim,
                        FP16,
                    )
            } else {
                0.0
            };
            let quant_time = if self.compresses_kv() {
                sim.cost.quantize_time(load_bytes + store_bytes)
            } else {
                0.0
            };

            let phase = if phase3 && entered_phase2 {
                3
            } else if entered_phase2 {
                2
            } else {
                1
            };
            sim.push_step(StepRecord {
                phase,
                mha_time: mha,
                ffn_time: ffn,
                recompute_time,
                load_time: sim.cost.transfer_time(load_bytes) + sim.cost.cpu_pack_time(load_bytes),
                store_time: sim.cost.transfer_time(store_bytes),
                quant_time,
                selection_time: selection,
                ..StepRecord::default()
            });
            on_step(sim, &store);
        }
        Ok(())
    }
}

impl InferenceSystem for AlisaScheduler {
    fn name(&self) -> &'static str {
        "ALISA"
    }

    fn simulate(
        &self,
        sim: &mut SimBase,
        model: &ModelConfig,
        wl: &Workload,
    ) -> Result<(), OomError> {
        self.simulate_with(sim, model, wl, |_, _| {})
    }
}

fn mix_name(model: &ModelConfig, wl: &Workload) -> u64 {
    let mut h = 0x000A_115A_u64;
    for by in model.name.bytes() {
        h = h.wrapping_mul(0x100000001b3) ^ by as u64;
    }
    h ^ (wl.batch_size as u64) << 32 ^ (wl.input_len as u64) << 16 ^ wl.output_len as u64
}

/// Offline plan search (paper §V-A "Sparsity-Aware Caching"): profiles
/// candidate `{α, β, p2}` plans by running the simulator — the same
/// "profile compute/recompute, then greedy search" loop the authors
/// describe, with the simulator standing in for the profiled testbed.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptimizer {
    /// Candidate offload watermarks.
    pub alphas: [f64; 3],
    /// Candidate recompute ratios.
    pub betas: [f64; 3],
    /// Candidate Phase III triggers.
    pub p2s: [f64; 3],
}

impl Default for PlanOptimizer {
    fn default() -> Self {
        PlanOptimizer {
            alphas: [0.7, 0.85, 0.95],
            betas: [0.0, 0.4, 0.8],
            p2s: [0.5, 0.75, 2.0],
        }
    }
}

impl PlanOptimizer {
    /// Exhaustively profiles the candidate grid and returns the plan
    /// with the lowest completed end-to-end time (and its report).
    /// Falls back to [`Plan::default`] if every candidate OOMs. Each
    /// run equals [`InferenceSystem::run`] of its plan; all of them
    /// share one memo of the selected global sets.
    pub fn optimize(
        &self,
        base: &AlisaScheduler,
        model: &ModelConfig,
        hw: &HardwareSpec,
        wl: &Workload,
    ) -> (Plan, RunReport) {
        let mut sets = GlobalSetMemo::new(model, wl);
        let mut run = |plan: Plan| {
            let sys = base.clone().with_plan(plan);
            run_on_fresh_pools(sys.name(), model, hw, wl, |sim| {
                sys.simulate_with_sets(sim, model, wl, &mut sets, |_, _| {})
            })
        };
        let mut best: Option<(Plan, RunReport)> = None;
        for &alpha in &self.alphas {
            for &beta in &self.betas {
                for &p2_frac in &self.p2s {
                    let plan = Plan {
                        alpha,
                        beta,
                        p2_frac,
                    };
                    let report = run(plan);
                    if !report.outcome.is_completed() {
                        continue;
                    }
                    let better = match &best {
                        None => true,
                        Some((_, b)) => report.total_time() < b.total_time(),
                    };
                    if better {
                        best = Some((plan, report));
                    }
                }
            }
        }
        best.unwrap_or_else(|| (Plan::default(), run(Plan::default())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_wl() -> Workload {
        Workload::new(8, 64, 64)
    }

    #[test]
    fn completes_within_memory() {
        let r = AlisaScheduler::new(0.8, true).run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_32gb(),
            &small_wl(),
        );
        assert!(r.outcome.is_completed(), "{}", r.summary());
        assert!(r.throughput() > 0.0);
        assert_eq!(r.timeline.len(), 65); // prefill + 64 decode steps
    }

    #[test]
    fn phase1_has_no_transfers() {
        // Small workload on a big GPU: everything stays Phase I.
        let r = AlisaScheduler::new(0.8, false).run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::h100_80gb(),
            &small_wl(),
        );
        assert!(r.outcome.is_completed());
        assert_eq!(r.timeline.total_transfer_time(), 0.0);
        assert!(r.timeline.records().iter().all(|s| s.phase == 1));
    }

    #[test]
    fn heavy_workload_enters_phase2_and_3() {
        // OPT-6.7B on V100-16GB at batch 64 must offload (Figure 12's
        // regime, scaled): weights 13.3 GiB of 16 GiB.
        let r = AlisaScheduler::new(0.8, true).run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_16gb(),
            &Workload::alpaca(32),
        );
        assert!(r.outcome.is_completed(), "{}", r.summary());
        assert!(r.timeline.phase_records(2).count() > 0, "no Phase II steps");
        assert!(
            r.timeline.phase_records(3).count() > 0,
            "no Phase III steps"
        );
        assert!(r.timeline.total_transfer_time() > 0.0);
        // Phases are monotone: once in III, never back to I.
        let phases: Vec<u8> = r.timeline.records().iter().map(|s| s.phase).collect();
        let mut max_seen = 0;
        for p in phases {
            assert!(p >= max_seen || p == max_seen, "phase regressed");
            max_seen = max_seen.max(p);
        }
    }

    #[test]
    fn sparsity_reduces_traffic() {
        let hw = HardwareSpec::v100_16gb();
        let model = ModelConfig::opt_6_7b();
        let wl = Workload::alpaca(32);
        let t40 = AlisaScheduler::new(0.4, false).run(&model, &hw, &wl);
        let t80 = AlisaScheduler::new(0.8, false).run(&model, &hw, &wl);
        assert!(t40.outcome.is_completed() && t80.outcome.is_completed());
        assert!(
            t80.total_time() < t40.total_time(),
            "80% sparsity must beat 40%: {:.2}s vs {:.2}s",
            t80.total_time(),
            t40.total_time()
        );
    }

    #[test]
    fn compression_reduces_transfer_time() {
        let hw = HardwareSpec::v100_16gb();
        let model = ModelConfig::opt_6_7b();
        let wl = Workload::alpaca(32);
        let plain = AlisaScheduler::new(0.8, false).run(&model, &hw, &wl);
        let compressed = AlisaScheduler::new(0.8, true).run(&model, &hw, &wl);
        assert!(
            compressed.timeline.total_transfer_time() < plain.timeline.total_transfer_time(),
            "INT8 must halve link bytes"
        );
    }

    #[test]
    fn global_set_is_deterministic_and_drifts() {
        let g = GlobalSetModel::new(7);
        let a = g.pick(8, 100, 5, 120);
        let b = g.pick(8, 100, 5, 120);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // Across an epoch boundary the set usually changes.
        let later = g.pick(8, 100, 5 + 64, 120);
        assert_ne!(a, later, "drift epochs must churn the set");
    }

    #[test]
    fn pick_into_matches_reference_pick() {
        // The incremental selection must equal the naive reference at
        // every step, including across drift-epoch rolls and with the
        // scratch reused (warm) versus fresh (cold).
        let g = GlobalSetModel::new(0xA11A);
        let mut warm = TopKScratch::default();
        let mut out = Vec::new();
        for j in 1..=200usize {
            let seq_len = 64 + j;
            let budget = resident_tokens(seq_len, 0.2);
            let k = budget - budget.div_ceil(2);
            let range_end = seq_len - budget.div_ceil(2);
            g.pick_into(k, range_end, j, seq_len, &mut warm, &mut out);
            assert_eq!(out, g.pick(k, range_end, j, seq_len), "warm, step {j}");
            let mut cold = TopKScratch::default();
            let mut cold_out = Vec::new();
            g.pick_into(k, range_end, j, seq_len, &mut cold, &mut cold_out);
            assert_eq!(out, cold_out, "cold, step {j}");
        }
    }

    #[test]
    fn optimizer_beats_or_matches_default_plan() {
        let model = ModelConfig::opt_6_7b();
        let hw = HardwareSpec::v100_16gb();
        let wl = Workload::new(32, 64, 96);
        let base = AlisaScheduler::new(0.8, true);
        let default_time = base.clone().run(&model, &hw, &wl).total_time();
        let (plan, best) = PlanOptimizer::default().optimize(&base, &model, &hw, &wl);
        assert!(best.outcome.is_completed());
        assert!(
            best.total_time() <= default_time + 1e-9,
            "optimized {plan:?} ({:.3}s) worse than default ({default_time:.3}s)",
            best.total_time()
        );
    }

    #[test]
    fn without_recompute_disables_phase3() {
        let r = AlisaScheduler::new(0.8, true).without_recompute().run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_16gb(),
            &Workload::alpaca(32),
        );
        assert!(r.outcome.is_completed());
        assert_eq!(r.timeline.phase_records(3).count(), 0);
        assert_eq!(r.timeline.sum_by(|s| s.recompute_time), 0.0);
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn rejects_invalid_sparsity() {
        let _ = AlisaScheduler::new(1.0, false);
    }

    #[test]
    fn legacy_bool_maps_to_precision_policies() {
        assert_eq!(
            AlisaScheduler::new(0.8, false).precision,
            PrecisionPolicy::fp16()
        );
        assert_eq!(
            AlisaScheduler::new(0.8, true).precision,
            PrecisionPolicy::int8()
        );
        assert!(!AlisaScheduler::new(0.8, false).compresses_kv());
        assert!(AlisaScheduler::new(0.8, true).compresses_kv());
    }

    #[test]
    fn mixed_precision_cuts_traffic_below_flat_int8() {
        let hw = HardwareSpec::v100_16gb();
        let model = ModelConfig::opt_6_7b();
        let wl = Workload::alpaca(32);
        let int8 = AlisaScheduler::new(0.8, true).run(&model, &hw, &wl);
        let mixed = AlisaScheduler::new(0.8, true)
            .with_precision(PrecisionPolicy::mixed())
            .run(&model, &hw, &wl);
        assert!(int8.outcome.is_completed() && mixed.outcome.is_completed());
        assert!(
            mixed.timeline.total_transfer_time() < int8.timeline.total_transfer_time(),
            "the INT4 cold tail must shave link bytes below flat INT8"
        );
    }
}
