//! DeepSpeed-ZeRO inference simulator (paper §VI-A baseline).
//!
//! DeepSpeed-ZeRO \[1\] "performs offloading weights instead of
//! intermediate KV tensors": parameters live in host DRAM and stream
//! through the GPU layer-by-layer every step, while the KV cache stays
//! GPU-resident. Weight streaming makes every step pay
//! `weight_bytes / link_bandwidth`, and the GPU-resident dense KV cache
//! is exactly why Figure 9 shows it OOMing at large batch sizes.

use alisa_memsim::{MemClass, OomError, StepRecord};
use alisa_model::ModelConfig;
use serde::{Deserialize, Serialize};

use crate::common::{efficiency, SimBase, FP16};
use crate::workload::Workload;
use crate::InferenceSystem;

/// The DeepSpeed-ZeRO baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeepSpeedZeroScheduler;

impl InferenceSystem for DeepSpeedZeroScheduler {
    fn name(&self) -> &'static str {
        "DeepSpeed-ZeRO"
    }

    fn simulate(
        &self,
        sim: &mut SimBase,
        model: &ModelConfig,
        wl: &Workload,
    ) -> Result<(), OomError> {
        // Weights on the host; a two-layer streaming buffer on the GPU.
        sim.setup_resident(model, wl, false)?;
        let layer_bytes = model.weight_bytes(FP16) / model.num_layers.max(1) as u64;
        sim.gpu.alloc(MemClass::Weights, 2 * layer_bytes)?;

        let b = wl.batch_size;
        let tok_bytes = model.kv_bytes_per_token(FP16) * b as u64;
        let weight_stream = sim.cost.transfer_time(model.weight_bytes(FP16));

        let prefill_kv = tok_bytes * wl.input_len as u64;
        sim.gpu.alloc(MemClass::KvCache, prefill_kv)?;
        sim.push_step(StepRecord {
            mha_time: sim.prefill_compute(model, b, wl.input_len, efficiency::DEEPSPEED),
            load_time: weight_stream,
            ..StepRecord::default()
        });

        for j in 1..=wl.output_len {
            sim.gpu.alloc(MemClass::KvCache, tok_bytes)?;
            let seq_len = wl.input_len + j;
            let (mha, ffn) = sim.decode_compute(model, b, seq_len, efficiency::DEEPSPEED);
            sim.push_step(StepRecord {
                mha_time: mha,
                ffn_time: ffn,
                // Every step re-streams the full parameter set.
                load_time: weight_stream,
                ..StepRecord::default()
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alisa_memsim::HardwareSpec;

    #[test]
    fn weight_streaming_dominates() {
        let r = DeepSpeedZeroScheduler.run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_16gb(),
            &Workload::alpaca(4),
        );
        assert!(r.outcome.is_completed(), "{}", r.summary());
        assert!(
            r.timeline.total_transfer_time() > r.timeline.total_compute_time(),
            "ZeRO must be link-bound"
        );
    }

    #[test]
    fn oom_at_large_batch() {
        // Figure 9: DS-ZeRO OOMs at large batch because dense KV stays
        // GPU-resident.
        let r = DeepSpeedZeroScheduler.run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_16gb(),
            &Workload::alpaca(64),
        );
        assert!(!r.outcome.is_completed(), "expected OOM: {}", r.summary());
    }

    #[test]
    fn small_batch_survives_where_gpu_only_cannot_fit_weights() {
        // ZeRO fits OPT-30B on a V100-16GB (weights host-side) — the one
        // thing weight offload buys.
        let r = DeepSpeedZeroScheduler.run(
            &ModelConfig::opt_30b(),
            &HardwareSpec::v100_16gb(),
            &Workload::new(1, 32, 16),
        );
        assert!(r.outcome.is_completed(), "{}", r.summary());
    }
}
