//! KV-memory admission policies — the *pricing* half of admission.
//!
//! Continuous batching admits a request only if its KV footprint fits
//! the device budget. *How big that footprint is* is exactly where the
//! systems differ, and it is the lever ALISA's sparsity pulls. In what
//! *order* the priced budget is spent (and whether blocked candidates
//! may preempt) is deliberately not this module's concern — that is
//! the orthogonal [`crate::QueueDiscipline`], so every discipline is
//! comparable under every pricing rule here:
//!
//! * [`AdmissionPolicy::VllmPaged`] reserves dense KV for the request's
//!   final length, rounded up to [`vllm::BLOCK_SIZE`]-token blocks.
//! * [`AdmissionPolicy::FlexGenStatic`] pins a static `1 −`
//!   [`FLEXGEN_CPU_SHARE`] share of dense KV on the GPU and pays
//!   CPU-delegated attention over the host share every step.
//! * [`AdmissionPolicy::Alisa`] reserves only the sparse working set —
//!   `(1 − sparsity) ×` dense KV plus a small streaming margin — so the
//!   same HBM headroom admits a several-fold larger concurrent batch;
//!   the price is the per-step selection overhead and offload traffic,
//!   charged through the offline simulators' [`SimBase`] and
//!   `CostModel` formulas.

use alisa_kvcache::paged::reserved_bytes;
use alisa_model::ModelConfig;
use alisa_sched::common::{delegated_attention_qr_bytes, efficiency, resident_tokens, FP16};
use alisa_sched::{alisa, vllm, SimBase};
use alisa_tensor::quant::PrecisionPolicy;
use serde::{Deserialize, Serialize};

/// Fraction of ALISA's resident working set assumed to churn across the
/// CPU link each step (globally-dynamic tokens drifting in and out of
/// the top-k set; the locally-static half is pinned).
const ALISA_RELOAD_FRAC: f64 = 0.02;

/// Share of dense KV that FlexGen's static split keeps on the host in
/// serving.
pub const FLEXGEN_CPU_SHARE: f64 = 0.5;

/// How a serving system accounts and admits KV memory.
///
/// The three constructors give the paper's evaluated configurations;
/// the [`AdmissionPolicy::Alisa`] variant's fields stay public so sweeps
/// can explore other sparsity and precision points. ALISA's sparse
/// reservation is the whole game — the same request costs it a fraction
/// of what dense paged booking charges — and on top of it the KV that
/// leaves the FP16 GPU hot window (the CPU-resident remainder,
/// in-flight handoffs) is priced at its [`PrecisionPolicy`] bit width:
///
/// ```
/// use alisa_model::ModelConfig;
/// use alisa_serve::AdmissionPolicy;
/// use alisa_tensor::quant::PrecisionPolicy;
///
/// let model = ModelConfig::opt_6_7b();
/// let dense = AdmissionPolicy::vllm().gpu_kv_bytes(&model, 640);
/// let sparse = AdmissionPolicy::alisa().gpu_kv_bytes(&model, 640);
/// assert!((sparse as f64) < 0.3 * dense as f64);
///
/// // Custom operating point: 90% sparsity, offloaded KV kept at FP16
/// // (no quantization anywhere).
/// let aggressive = AdmissionPolicy::Alisa {
///     sparsity: 0.9,
///     precision: PrecisionPolicy::fp16(),
/// };
/// assert!(aggressive.gpu_kv_bytes(&model, 640) < sparse);
/// assert_eq!(aggressive.name(), "ALISA");
///
/// // Mixed precision trims offload traffic below flat INT8 without
/// // touching the GPU-resident reservation.
/// let mixed = AdmissionPolicy::alisa_with(PrecisionPolicy::mixed());
/// assert_eq!(mixed.gpu_kv_bytes(&model, 640), sparse);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// ALISA: sparsity-aware budgeting (§V-A applied to admission).
    Alisa {
        /// KV sparsity in `[0, 1)` (paper evaluates 0.8).
        sparsity: f64,
        /// Per-cache-state-region KV precision: what the CPU-resident
        /// remainder (warm share + cold tail) and replica handoffs
        /// each store at; the GPU hot window is FP16. Link and memory
        /// bytes are priced through this policy region by region — no
        /// flat halving.
        precision: PrecisionPolicy,
    },
    /// vLLM-style dense paged KV in [`vllm::BLOCK_SIZE`]-token blocks.
    VllmPaged,
    /// FlexGen-style static GPU/CPU split, with a [`FLEXGEN_CPU_SHARE`]
    /// of KV pinned on the host.
    FlexGenStatic,
}

impl AdmissionPolicy {
    /// ALISA at the paper's headline configuration: 80% sparsity with
    /// the §V-B INT8 offload precision ([`PrecisionPolicy::int8`]).
    pub fn alisa() -> Self {
        Self::alisa_with(PrecisionPolicy::int8())
    }

    /// ALISA at the paper's 80% sparsity under any per-region
    /// precision policy, e.g. [`PrecisionPolicy::mixed`]: CPU
    /// remainder INT8 with an INT4 cold tail, INT8 replica handoffs.
    pub fn alisa_with(precision: PrecisionPolicy) -> Self {
        AdmissionPolicy::Alisa {
            sparsity: 0.8,
            precision,
        }
    }

    /// The per-region precision policy this admission rule prices KV
    /// bytes through (FP16 everywhere for the dense baselines — neither
    /// vLLM nor FlexGen quantizes KV).
    pub fn precision(&self) -> PrecisionPolicy {
        match *self {
            AdmissionPolicy::Alisa { precision, .. } => precision,
            _ => PrecisionPolicy::fp16(),
        }
    }

    /// vLLM with its default block size.
    pub fn vllm() -> Self {
        AdmissionPolicy::VllmPaged
    }

    /// FlexGen with a 50% host split.
    pub fn flexgen() -> Self {
        AdmissionPolicy::FlexGenStatic
    }

    /// Name as used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::Alisa { .. } => "ALISA",
            AdmissionPolicy::VllmPaged => "vLLM",
            AdmissionPolicy::FlexGenStatic => "FlexGen",
        }
    }

    /// Framework efficiency factor (same constants as the offline
    /// simulators).
    pub fn efficiency(&self) -> f64 {
        match self {
            AdmissionPolicy::VllmPaged => efficiency::VLLM,
            _ => efficiency::FLEXGEN,
        }
    }

    /// GPU bytes this policy reserves for a request that will reach
    /// `final_seq_len` tokens: the KV working set it keeps GPU-resident,
    /// at FP16. [`crate::ServeEngine::kv_handoff_bytes`] prices the same
    /// set at the handoff width.
    pub fn gpu_kv_bytes(&self, model: &ModelConfig, final_seq_len: usize) -> u64 {
        let per_tok = model.kv_bytes_per_token(FP16);
        match *self {
            AdmissionPolicy::Alisa { sparsity, .. } => {
                let resident = (final_seq_len as f64 * (1.0 - sparsity)).ceil() as u64;
                (resident + alisa::MARGIN_TOKENS) * per_tok
            }
            AdmissionPolicy::VllmPaged => reserved_bytes(final_seq_len, vllm::BLOCK_SIZE, per_tok),
            AdmissionPolicy::FlexGenStatic => {
                let gpu_tokens = (final_seq_len as f64 * (1.0 - FLEXGEN_CPU_SHARE)).ceil() as u64;
                gpu_tokens * per_tok
            }
        }
    }

    /// KV tokens per sequence the GPU attends over at `seq_len` — the
    /// `kv_tokens` argument of [`SimBase::decode_compute`]. The engine
    /// tabulates it once per config for lengths up to 4,096 and reads a
    /// step's counts from that table
    /// ([`crate::ServeEngine::step_time`]).
    pub fn attended_tokens(&self, seq_len: usize) -> usize {
        match *self {
            AdmissionPolicy::Alisa { sparsity, .. } => resident_tokens(seq_len, 1.0 - sparsity),
            AdmissionPolicy::VllmPaged => seq_len,
            AdmissionPolicy::FlexGenStatic => resident_tokens(seq_len, 1.0 - FLEXGEN_CPU_SHARE),
        }
    }

    /// Per-step overhead beyond the dense decode GEMMs, for a batch of
    /// `b` sequences whose mean length is `mean_seq`: selection and
    /// offload traffic for ALISA, CPU-delegated attention for FlexGen,
    /// nothing for vLLM's fused paged kernels.
    ///
    /// ALISA's offload traffic is priced through the precision policy:
    /// the step's churn bytes (working-precision wide) are scaled to
    /// the CPU-region storage width — INT8 warm share, optionally an
    /// INT4 cold tail — before paying link bandwidth, and any
    /// quantized region adds a quantize/dequantize vector op over the
    /// reduced stream. A FP16-everywhere policy prices exactly like
    /// the old uncompressed path; [`PrecisionPolicy::int8`] reproduces
    /// the paper's flat INT8 halving.
    pub fn step_overhead(
        &self,
        sim: &SimBase,
        model: &ModelConfig,
        b: usize,
        mean_seq: usize,
    ) -> f64 {
        let per_tok = model.kv_bytes_per_token(FP16);
        match *self {
            AdmissionPolicy::Alisa {
                sparsity,
                precision,
            } => {
                let budget = self.attended_tokens(mean_seq);
                let selection =
                    sim.selection_overhead(model, b, mean_seq, budget, alisa::HISTORY_DEPTH);
                // Each step appends one token per sequence; in steady
                // state a `sparsity` share of it leaves the working set
                // for host memory, and a small share of the resident
                // set churns back in. Stores move at the blended
                // CPU-storage width (a `cold_frac` share of offloads
                // ends up in the cold tail); reloads are re-selected —
                // warm by the cold tail's definition — so they move at
                // the warm-share width. With no cold tail both widths
                // coincide, and summing before scaling keeps the
                // legacy `(store + reload) / 2` integer arithmetic
                // bit-for-bit.
                let store = (b as f64 * sparsity * per_tok as f64) as u64;
                let reload = (b as f64 * budget as f64 * ALISA_RELOAD_FRAC * per_tok as f64) as u64;
                let link_bytes = if precision.cold_frac == 0.0 {
                    precision.cpu_bytes(store + reload)
                } else {
                    precision.cpu_bytes(store) + precision.cpu_reload_bytes(reload)
                };
                let quant = if precision.quantizes_cpu() {
                    sim.cost.quantize_time(link_bytes)
                } else {
                    0.0
                };
                selection + sim.cost.transfer_time(link_bytes) + quant
            }
            AdmissionPolicy::VllmPaged => 0.0,
            AdmissionPolicy::FlexGenStatic => {
                // Host-delegated attention touches the CPU share of
                // every cached token, every step, plus the query/partial
                // result exchange and the new token's host share.
                let cpu_bytes =
                    (b as f64 * mean_seq as f64 * FLEXGEN_CPU_SHARE * per_tok as f64) as u64;
                let qr_bytes = delegated_attention_qr_bytes(b, model.hidden_dim);
                let store = (b as f64 * FLEXGEN_CPU_SHARE * per_tok as f64) as u64;
                sim.cost.cpu_pack_time(cpu_bytes) + sim.cost.transfer_time(qr_bytes + store)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alisa_memsim::HardwareSpec;

    #[test]
    fn alisa_reserves_a_fraction_of_dense() {
        let model = ModelConfig::opt_6_7b();
        let dense = AdmissionPolicy::vllm().gpu_kv_bytes(&model, 640);
        let sparse = AdmissionPolicy::alisa().gpu_kv_bytes(&model, 640);
        let flex = AdmissionPolicy::flexgen().gpu_kv_bytes(&model, 640);
        assert!(
            (sparse as f64) < 0.3 * dense as f64,
            "80% sparsity must cut the reservation >3x: {sparse} vs {dense}"
        );
        assert!(flex < dense && flex > sparse);
    }

    #[test]
    fn vllm_rounds_to_blocks() {
        let model = ModelConfig::opt_6_7b();
        let per_tok = model.kv_bytes_per_token(FP16);
        let p = AdmissionPolicy::vllm();
        let block = vllm::BLOCK_SIZE;
        assert_eq!(
            p.gpu_kv_bytes(&model, block + 1),
            2 * block as u64 * per_tok
        );
        assert_eq!(p.gpu_kv_bytes(&model, block), block as u64 * per_tok);
    }

    #[test]
    fn attended_tokens_follow_policy() {
        assert_eq!(AdmissionPolicy::vllm().attended_tokens(500), 500);
        assert_eq!(AdmissionPolicy::alisa().attended_tokens(500), 100);
        assert_eq!(AdmissionPolicy::flexgen().attended_tokens(500), 250);
        // Never zero, even for tiny contexts.
        assert_eq!(AdmissionPolicy::alisa().attended_tokens(1), 1);
    }

    #[test]
    fn overheads_rank_as_expected() {
        let model = ModelConfig::opt_6_7b();
        let sim = SimBase::new(&HardwareSpec::v100_16gb());
        let vllm = AdmissionPolicy::vllm().step_overhead(&sim, &model, 16, 512);
        let alisa = AdmissionPolicy::alisa().step_overhead(&sim, &model, 16, 512);
        let flex = AdmissionPolicy::flexgen().step_overhead(&sim, &model, 16, 512);
        assert_eq!(vllm, 0.0);
        assert!(alisa > 0.0, "ALISA pays selection + traffic");
        assert!(
            flex > alisa,
            "FlexGen's full-history host attention ({flex:.4}s) must exceed ALISA's sparse overhead ({alisa:.4}s)"
        );
    }

    #[test]
    fn precision_orders_link_overhead_contribution() {
        let model = ModelConfig::opt_6_7b();
        let sim = SimBase::new(&HardwareSpec::v100_16gb());
        let at = |precision| {
            AdmissionPolicy::Alisa {
                sparsity: 0.8,
                precision,
            }
            .step_overhead(&sim, &model, 32, 512)
        };
        let fp16 = at(PrecisionPolicy::fp16());
        let int8 = at(PrecisionPolicy::int8());
        let mixed = at(PrecisionPolicy::mixed());
        // Lower offload precision moves fewer link bytes; the added
        // quantization op is cheaper than the bandwidth it saves at
        // this scale, so the order is monotone.
        assert!(int8 <= fp16, "INT8 offload must not cost more than FP16");
        assert!(mixed <= int8, "the INT4 cold tail must shave further");
    }

    #[test]
    fn reservations_ignore_offload_precision() {
        let model = ModelConfig::opt_6_7b();
        // Offload precision does not change the GPU-resident booking.
        for precision in [PrecisionPolicy::fp16(), PrecisionPolicy::mixed()] {
            assert_eq!(
                AdmissionPolicy::alisa().gpu_kv_bytes(&model, 640),
                AdmissionPolicy::alisa_with(precision).gpu_kv_bytes(&model, 640),
            );
        }
        // The dense baselines quantize nothing.
        for dense in [AdmissionPolicy::vllm(), AdmissionPolicy::flexgen()] {
            assert_eq!(dense.precision(), PrecisionPolicy::fp16());
        }
    }
}
