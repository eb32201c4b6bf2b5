//! vLLM simulator: paged block-level KV with continuous wave batching
//! (paper §II-B, Table I, baseline of Figure 9).
//!
//! vLLM \[21\] allocates KV in fixed-token blocks of paged GPU memory and
//! admits as many sequences as fit; the rest wait and are admitted when
//! memory frees (continuous batching with preemption). For the paper's
//! offline single-model workload that behaviour collapses to *waves*:
//! the batch is split into groups whose full-length KV fits in HBM, and
//! the waves run back-to-back. Within a wave vLLM's fused paged
//! kernels run at full roofline efficiency — which is why it wins at
//! small batches (paper: "under small batch sizes, vLLM outperforms") —
//! but large batches serialize into waves while ALISA's sparsity lets
//! the whole batch proceed at once.

use alisa_kvcache::paged::reserved_bytes;
use alisa_memsim::{MemClass, OomError, StepRecord};
use alisa_model::ModelConfig;
use serde::{Deserialize, Serialize};

use crate::common::{efficiency, SimBase, FP16};
use crate::workload::Workload;
use crate::InferenceSystem;

/// vLLM's default KV page size, in tokens: the block of the offline
/// simulator and of serving admission.
pub const BLOCK_SIZE: usize = 16;

/// The vLLM baseline, with [`BLOCK_SIZE`]-token KV blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VllmScheduler;

impl VllmScheduler {
    /// How many sequences fit simultaneously: per-sequence KV rounded up
    /// to block granularity at the final length.
    fn wave_size(&self, model: &ModelConfig, wl: &Workload, headroom: u64) -> usize {
        let per_tok = model.kv_bytes_per_token(FP16);
        let per_seq = reserved_bytes(wl.final_seq_len(), BLOCK_SIZE, per_tok);
        if per_seq == 0 {
            return wl.batch_size;
        }
        ((headroom / per_seq) as usize).min(wl.batch_size)
    }
}

impl InferenceSystem for VllmScheduler {
    fn name(&self) -> &'static str {
        "vLLM"
    }

    fn simulate(
        &self,
        sim: &mut SimBase,
        model: &ModelConfig,
        wl: &Workload,
    ) -> Result<(), OomError> {
        sim.setup_resident(model, wl, true)?;
        let per_tok = model.kv_bytes_per_token(FP16);
        let wave = self.wave_size(model, wl, sim.gpu_kv_headroom());
        if wave == 0 {
            // Not even one sequence's block-rounded reservation fits:
            // vLLM preempts forever.
            return Err(OomError {
                pool: "GPU".to_string(),
                requested: reserved_bytes(wl.final_seq_len(), BLOCK_SIZE, per_tok),
                in_use: sim.gpu.used(),
                capacity: sim.gpu.capacity(),
            });
        }

        let mut remaining = wl.batch_size;
        while remaining > 0 {
            let b = remaining.min(wave);
            remaining -= b;
            // One wave: prefill + full decode with paged accounting.
            let wave_tok = per_tok * b as u64;
            let mut reserved = reserved_bytes(wl.input_len, BLOCK_SIZE, wave_tok);
            sim.gpu.alloc(MemClass::KvCache, reserved)?;
            sim.push_step(StepRecord {
                mha_time: sim.prefill_compute(model, b, wl.input_len, efficiency::VLLM),
                ..StepRecord::default()
            });

            for j in 1..=wl.output_len {
                let seq_len = wl.input_len + j;
                let after = reserved_bytes(seq_len, BLOCK_SIZE, wave_tok);
                let delta = after - reserved;
                reserved = after;
                if delta > 0 {
                    sim.gpu.alloc(MemClass::KvCache, delta)?;
                }
                let (mha, ffn) = sim.decode_compute(model, b, seq_len, efficiency::VLLM);
                sim.push_step(StepRecord {
                    mha_time: mha,
                    ffn_time: ffn,
                    ..StepRecord::default()
                });
            }
            // Wave done: its KV is freed for the next wave.
            sim.gpu.free(MemClass::KvCache, reserved);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alisa_memsim::HardwareSpec;

    #[test]
    fn single_wave_when_memory_ample() {
        let r = VllmScheduler.run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::h100_80gb(),
            &Workload::alpaca(8),
        );
        assert!(r.outcome.is_completed());
        // prefill + 512 decode steps exactly (one wave).
        assert_eq!(r.timeline.len(), 513);
        assert_eq!(r.timeline.total_transfer_time(), 0.0);
    }

    #[test]
    fn large_batch_splits_into_waves() {
        let model = ModelConfig::opt_6_7b();
        let hw = HardwareSpec::v100_16gb();
        let wl = Workload::alpaca(64);
        let wave = VllmScheduler.wave_size(&model, &wl, {
            let mut sim = SimBase::new(&hw);
            sim.setup_resident(&model, &wl, true).unwrap();
            sim.gpu_kv_headroom()
        });
        assert!(wave > 0 && wave < 64, "expected waves, wave={wave}");
        let r = VllmScheduler.run(&model, &hw, &wl);
        assert!(r.outcome.is_completed(), "{}", r.summary());
        assert!(r.timeline.len() > 513, "multiple waves must add steps");
    }

    #[test]
    fn wave_serialization_hurts_throughput() {
        let model = ModelConfig::opt_6_7b();
        let hw = HardwareSpec::v100_16gb();
        let small = VllmScheduler.run(&model, &hw, &Workload::alpaca(4));
        let large = VllmScheduler.run(&model, &hw, &Workload::alpaca(64));
        assert!(small.outcome.is_completed() && large.outcome.is_completed());
        // Throughput should *not* scale 16× from b=4 to b=64.
        assert!(large.throughput() < small.throughput() * 16.0 * 0.8);
    }

    #[test]
    fn zero_wave_is_oom() {
        // OPT-30B weights alone exceed a 16 GB V100 ⇒ setup OOM.
        let r = VllmScheduler.run(
            &ModelConfig::opt_30b(),
            &HardwareSpec::v100_16gb(),
            &Workload::alpaca(4),
        );
        assert!(!r.outcome.is_completed());
    }
}
