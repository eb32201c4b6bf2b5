//! GPU-only reference runs: KV caching on-device, or no KV caching at
//! all — the two curves of Figure 2(c) and the "GPU only" bars of
//! Figure 1.

use alisa_memsim::{MemClass, OomError, StepRecord};
use alisa_model::ModelConfig;
use serde::{Deserialize, Serialize};

use crate::common::{SimBase, FP16};
use crate::workload::Workload;
use crate::InferenceSystem;

/// Plain single-GPU execution with no offloading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuOnlyScheduler {
    /// With KV caching (linear memory, constant step time) or without
    /// (no KV memory, quadratically growing recompute — Figure 2(c)).
    pub kv_caching: bool,
}

impl GpuOnlyScheduler {
    /// GPU-only with KV caching — the paper's default reference.
    pub fn with_kv_cache() -> Self {
        GpuOnlyScheduler { kv_caching: true }
    }

    /// GPU-only recomputing all attention each step (no KV cache).
    pub fn without_kv_cache() -> Self {
        GpuOnlyScheduler { kv_caching: false }
    }
}

impl InferenceSystem for GpuOnlyScheduler {
    fn name(&self) -> &'static str {
        if self.kv_caching {
            "GPU-only"
        } else {
            "GPU-only (no KV cache)"
        }
    }

    fn simulate(
        &self,
        sim: &mut SimBase,
        model: &ModelConfig,
        wl: &Workload,
    ) -> Result<(), OomError> {
        sim.setup_resident(model, wl, true)?;
        let b = wl.batch_size;
        let tok_bytes = model.kv_bytes_per_token(FP16) * b as u64;

        if self.kv_caching {
            sim.gpu
                .alloc(MemClass::KvCache, tok_bytes * wl.input_len as u64)?;
        }
        sim.push_step(StepRecord {
            mha_time: sim.prefill_compute(model, b, wl.input_len, 1.0),
            ..StepRecord::default()
        });

        for j in 1..=wl.output_len {
            let seq_len = wl.input_len + j;
            let (mha, ffn) = if self.kv_caching {
                sim.gpu.alloc(MemClass::KvCache, tok_bytes)?;
                sim.decode_compute(model, b, seq_len, 1.0)
            } else {
                // Without caching, every step re-runs attention for the
                // whole prefix: quadratic work growth (Figure 2(c)).
                let full = sim.prefill_compute(model, b, seq_len, 1.0);
                (full, 0.0)
            };
            sim.push_step(StepRecord {
                mha_time: mha,
                ffn_time: ffn,
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
    fn kv_caching_keeps_step_time_flat() {
        let r = GpuOnlyScheduler::with_kv_cache().run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_32gb(),
            &Workload::new(4, 32, 128),
        );
        assert!(r.outcome.is_completed());
        let steps = r.timeline.records();
        let early = steps[1].total_time();
        let late = steps[127].total_time();
        assert!(late < early * 1.5, "cached decode must stay near-flat");
    }

    #[test]
    fn no_kv_cache_grows_quadratically() {
        let r = GpuOnlyScheduler::without_kv_cache().run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_32gb(),
            &Workload::new(4, 32, 128),
        );
        assert!(r.outcome.is_completed());
        let steps = r.timeline.records();
        assert!(
            steps[127].total_time() > steps[1].total_time() * 2.0,
            "recompute time must grow with sequence length"
        );
        // And it never allocates KV memory.
        assert_eq!(r.timeline.peak_gpu_mem(), steps[0].gpu_mem);
    }

    #[test]
    fn fig1_workload2_is_oom_gpu_only() {
        // Figure 1: b=64, s=512, n=512 OOMs on a 32 GB V100 GPU-only.
        let r = GpuOnlyScheduler::with_kv_cache().run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_32gb(),
            &Workload::fig1_workload2(),
        );
        assert!(!r.outcome.is_completed(), "expected OOM: {}", r.summary());
    }

    #[test]
    fn fig1_workload1_fits_gpu_only() {
        let r = GpuOnlyScheduler::with_kv_cache().run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_32gb(),
            &Workload::fig1_workload1(),
        );
        assert!(r.outcome.is_completed(), "{}", r.summary());
    }
}
