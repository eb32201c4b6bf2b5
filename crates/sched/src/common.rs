//! Shared simulation machinery: resident-memory setup, per-step compute
//! pricing, and the step records of every system simulator. The serving
//! engine in `alisa-serve` prices its steps through the same [`SimBase`]
//! compute formulas and its [`CostModel`] byte formulas.

use alisa_memsim::{CostModel, HardwareSpec, MemClass, MemPool, OomError, StepRecord, Timeline};
use alisa_model::ModelConfig;

use crate::workload::Workload;

/// FP16 element width used for weights/activations and (by default) KV.
pub const FP16: usize = 2;

/// Compute-efficiency factors modelling runtime/kernel quality relative
/// to the roofline. vLLM's fused CUDA kernels run closest to roofline;
/// FlexGen (and ALISA, which is built on FlexGen per §VI-A) pay a
/// framework penalty; Accelerate's generic loop pays more.
pub mod efficiency {
    /// vLLM: fused paged-attention kernels.
    pub const VLLM: f64 = 1.0;
    /// FlexGen and ALISA (implemented on FlexGen + HF Transformers).
    pub const FLEXGEN: f64 = 0.85;
    /// HuggingFace Accelerate's generic offload hooks.
    pub const ACCELERATE: f64 = 0.75;
    /// DeepSpeed-ZeRO inference engine.
    pub const DEEPSPEED: f64 = 0.85;
}

/// Link bytes exchanged per decode step for CPU-delegated attention:
/// the query shipped host-ward plus the partial attention result
/// shipped back, each `b × h` at FP16. One definition shared by the
/// offline simulators (FlexGen, Accelerate) and the online serving
/// engine so the traffic model cannot drift between them.
pub fn delegated_attention_qr_bytes(b: usize, hidden_dim: usize) -> u64 {
    (2 * b * hidden_dim * FP16) as u64
}

/// Tokens of a `seq_len`-token sequence a system keeps (ALISA's SWA
/// budget) or holds GPU-resident (FlexGen's split) when it keeps a
/// `keep ∈ [0, 1]` share: rounded to the nearest token, never below
/// one. One rule for the offline simulators and serving admission.
/// The serving engine tabulates it once per config for every length up
/// to 4,096 and reads a running request's count from that table.
#[inline]
pub fn resident_tokens(seq_len: usize, keep: f64) -> usize {
    ((seq_len as f64 * keep).round() as usize).clamp(1, seq_len)
}

/// Mutable simulation state shared by all system simulators: the cost
/// model, both memory pools, and the growing timeline.
#[derive(Debug, Clone)]
pub struct SimBase {
    /// Analytic timing model for the chosen hardware.
    pub cost: CostModel,
    /// GPU HBM pool.
    pub gpu: MemPool,
    /// Host DRAM pool.
    pub cpu: MemPool,
    /// Per-step records.
    pub timeline: Timeline,
}

impl SimBase {
    /// Builds pools and cost model for the hardware.
    pub fn new(hw: &HardwareSpec) -> Self {
        SimBase {
            cost: CostModel::new(hw),
            gpu: MemPool::new("GPU", hw.gpu.memory_bytes),
            cpu: MemPool::new("CPU", hw.cpu.memory_bytes),
            timeline: Timeline::new(),
        }
    }

    /// Allocates the run-long residents: model weights (GPU or CPU,
    /// depending on the system) and activation workspace on the GPU.
    ///
    /// # Errors
    ///
    /// Returns the failing pool's [`OomError`].
    pub fn setup_resident(
        &mut self,
        model: &ModelConfig,
        wl: &Workload,
        weights_on_gpu: bool,
    ) -> Result<(), OomError> {
        let wbytes = model.weight_bytes(FP16);
        if weights_on_gpu {
            self.gpu.alloc(MemClass::Weights, wbytes)?;
        } else {
            self.cpu.alloc(MemClass::Weights, wbytes)?;
        }
        let abytes = model.activation_bytes_per_seq(FP16) * wl.batch_size as u64
            // prefill workspace scales with prompt length
            * wl.input_len as u64;
        self.gpu.alloc(MemClass::Activations, abytes)?;
        Ok(())
    }

    /// GPU bytes still available for KV after residents are placed.
    pub fn gpu_kv_headroom(&self) -> u64 {
        self.gpu.available()
    }

    /// Appends the next step's record, stamped with its step number
    /// (step `i` is the timeline's `i`-th record) and both pools' usage
    /// at the end of the step.
    pub fn push_step(&mut self, record: StepRecord) {
        self.timeline.push(StepRecord {
            step: self.timeline.len(),
            gpu_mem: self.gpu.used(),
            cpu_mem: self.cpu.used(),
            ..record
        });
    }

    /// Compute time of one decoding step over `kv_tokens` of attended
    /// context, batch `b`, divided into (MHA including projections and
    /// norms, FFN). `eff` is the framework efficiency factor. It is the
    /// composition of its batch-only half,
    /// [`SimBase::decode_batch_terms`], and its kv-dependent half,
    /// [`SimBase::decode_mha`].
    pub fn decode_compute(
        &self,
        model: &ModelConfig,
        b: usize,
        kv_tokens: usize,
        eff: f64,
    ) -> (f64, f64) {
        let (proj, ffn) = self.decode_batch_terms(model, b, eff);
        (self.decode_mha(model, b, kv_tokens, proj, eff), ffn)
    }

    /// The half of [`SimBase::decode_compute`] that depends on the batch
    /// size alone: `(proj, ffn)`, the four projections' time in one
    /// layer (before the layer count and `eff` apply) and the whole FFN
    /// time. The serving engine tabulates it by batch size.
    pub fn decode_batch_terms(&self, model: &ModelConfig, b: usize, eff: f64) -> (f64, f64) {
        let h = model.hidden_dim;
        let f = model.ffn_dim;
        let l = model.num_layers as f64;
        let c = &self.cost;
        let proj = 4.0 * c.gemm_time(b, h, h, FP16);
        let ffn = l * (c.gemm_time(b, h, f, FP16) + c.gemm_time(b, f, h, FP16)) / eff;
        (proj, ffn)
    }

    /// The kv-dependent half of [`SimBase::decode_compute`]: the MHA
    /// time of a batch of `b` attending `kv_tokens` each, given the
    /// `proj` that [`SimBase::decode_batch_terms`] returns for the same
    /// `b`.
    pub fn decode_mha(
        &self,
        model: &ModelConfig,
        b: usize,
        kv_tokens: usize,
        proj: f64,
        eff: f64,
    ) -> f64 {
        let h = model.hidden_dim;
        let l = model.num_layers as f64;
        let c = &self.cost;
        let qkt = c.gemm_time(b, h, kv_tokens.max(1), FP16);
        let av = c.gemm_time(b, kv_tokens.max(1), h, FP16);
        let vecs = c.vector_op_time(((b * kv_tokens.max(1) + 2 * b * h) * FP16) as u64);
        l * (proj + qkt + av + vecs) / eff
    }

    /// Compute time of the prefill pass over `s` prompt tokens.
    pub fn prefill_compute(&self, model: &ModelConfig, b: usize, s: usize, eff: f64) -> f64 {
        let h = model.hidden_dim;
        let f = model.ffn_dim;
        let l = model.num_layers as f64;
        let c = &self.cost;
        let rows = b * s;
        let proj = 4.0 * c.gemm_time(rows, h, h, FP16);
        // Causal attention ≈ half a dense (s × s) product; price the
        // dense product and halve it.
        let attn = (c.gemm_time(rows, h, s, FP16) + c.gemm_time(rows, s, h, FP16)) * 0.5;
        let ffn = c.gemm_time(rows, h, f, FP16) + c.gemm_time(rows, f, h, FP16);
        l * (proj + attn + ffn) / eff
    }

    /// ALISA's per-step sparse-token machinery (Figure 11's overhead):
    /// local attention sum over the history window, top-k, and the
    /// gather packing `kept` tokens per layer into dense tensors.
    pub fn selection_overhead(
        &self,
        model: &ModelConfig,
        b: usize,
        seq_len: usize,
        kept: usize,
        history_depth: usize,
    ) -> f64 {
        let h = model.hidden_dim;
        let l = model.num_layers as f64;
        let c = &self.cost;
        let local_sum = c.vector_op_time((b * history_depth * seq_len * FP16) as u64);
        let topk = c.vector_op_time((b * seq_len * 4) as u64);
        let gather = c.gather_time(kept * b, 2 * h * FP16);
        l * (local_sum + topk + gather)
    }

    /// Compute time of the cross-attention in a prefix-reuse prefill:
    /// `s_new` suffix queries each attending `kv_tokens` of resident
    /// context KV. Only the context-length-dependent part of a decode
    /// step with `s_new` query rows is charged; the suffix's own
    /// projections, self-attention and FFN are
    /// [`SimBase::prefill_compute`] over the suffix.
    pub fn context_attention_time(
        &self,
        model: &ModelConfig,
        s_new: usize,
        kv_tokens: usize,
        eff: f64,
    ) -> f64 {
        let (mha, ffn) = self.decode_compute(model, s_new, kv_tokens, eff);
        let (mha_1, ffn_1) = self.decode_compute(model, s_new, 1, eff);
        ((mha + ffn) - (mha_1 + ffn_1)).max(0.0)
    }
}

/// Deterministic 64-bit mix (splitmix64 finalizer) for synthetic access
/// patterns — no RNG state to thread, fully reproducible.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Uniform `[0, 1)` float from a hash of the inputs.
pub fn hash_unit(a: u64, b: u64) -> f64 {
    (mix64(a.wrapping_mul(0x9E3779B97F4A7C15) ^ b) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use alisa_memsim::HardwareSpec;

    fn base() -> SimBase {
        SimBase::new(&HardwareSpec::v100_16gb())
    }

    #[test]
    fn setup_places_weights_where_asked() {
        let model = ModelConfig::opt_6_7b();
        let wl = Workload::alpaca(4);
        let mut on_gpu = base();
        on_gpu.setup_resident(&model, &wl, true).unwrap();
        assert!(on_gpu.gpu.used_by(MemClass::Weights) > 12 * (1 << 30));
        let mut on_cpu = base();
        on_cpu.setup_resident(&model, &wl, false).unwrap();
        assert_eq!(on_cpu.gpu.used_by(MemClass::Weights), 0);
        assert!(on_cpu.cpu.used_by(MemClass::Weights) > 12 * (1 << 30));
    }

    #[test]
    fn setup_oom_for_oversized_model() {
        // OPT-30B FP16 weights (~60 GB) cannot fit a 16 GB V100.
        let model = ModelConfig::opt_30b();
        let wl = Workload::alpaca(4);
        let mut b = base();
        assert!(b.setup_resident(&model, &wl, true).is_err());
    }

    #[test]
    fn decode_step_time_is_weight_bound_at_small_kv() {
        // A V100 decoding OPT-6.7B should take ~10–30 ms per step —
        // dominated by streaming 13.3 GB of weights at 900 GB/s.
        let b = base();
        let (mha, ffn) = b.decode_compute(&ModelConfig::opt_6_7b(), 16, 128, 1.0);
        let total = mha + ffn;
        assert!(total > 0.005 && total < 0.05, "step time {total:.4}s");
        // FFN moves ~2× the weight bytes of attention projections.
        assert!(ffn > mha * 0.8);
    }

    #[test]
    fn decode_time_grows_with_kv_len() {
        let b = base();
        let m = ModelConfig::opt_6_7b();
        let (mha_short, _) = b.decode_compute(&m, 64, 64, 1.0);
        let (mha_long, _) = b.decode_compute(&m, 64, 4096, 1.0);
        assert!(mha_long > mha_short);
    }

    #[test]
    fn efficiency_scales_compute() {
        let b = base();
        let m = ModelConfig::opt_6_7b();
        let (mha1, ffn1) = b.decode_compute(&m, 16, 128, 1.0);
        let (mha2, ffn2) = b.decode_compute(&m, 16, 128, 0.5);
        assert!((mha2 / mha1 - 2.0).abs() < 1e-6);
        assert!((ffn2 / ffn1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn prefill_costs_more_than_one_decode_step() {
        let b = base();
        let m = ModelConfig::opt_6_7b();
        let pre = b.prefill_compute(&m, 16, 128, 1.0);
        let (mha, ffn) = b.decode_compute(&m, 16, 128, 1.0);
        assert!(pre > (mha + ffn));
    }

    #[test]
    fn selection_overhead_is_small_but_positive() {
        let b = base();
        let m = ModelConfig::opt_6_7b();
        let sel = b.selection_overhead(&m, 64, 640, 128, 4);
        let (mha, ffn) = b.decode_compute(&m, 64, 128, 1.0);
        assert!(sel > 0.0);
        assert!(
            sel < (mha + ffn),
            "selection {sel:.4}s must not dominate compute {:.4}s",
            mha + ffn
        );
    }

    #[test]
    fn resident_tokens_round_and_floor_at_one() {
        assert_eq!(resident_tokens(500, 0.2), 100);
        assert_eq!(resident_tokens(500, 1.0), 500);
        assert_eq!(resident_tokens(7, 0.5), 4, "half rounds away from zero");
        assert_eq!(resident_tokens(1, 0.2), 1, "never zero");
        assert_eq!(resident_tokens(9, 0.0), 1);
    }

    #[test]
    fn hash_is_deterministic_and_unitary() {
        assert_eq!(mix64(42), mix64(42));
        let u = hash_unit(3, 7);
        assert!((0.0..1.0).contains(&u));
        assert_eq!(hash_unit(3, 7), hash_unit(3, 7));
        assert_ne!(hash_unit(3, 7), hash_unit(3, 8));
    }
}
