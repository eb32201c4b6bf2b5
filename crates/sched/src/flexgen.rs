//! FlexGen simulator: static head-level KV split solved offline
//! (paper §II-B, Figure 7(a), baseline of Figures 9 and 12).
//!
//! FlexGen \[31\] picks one GPU/CPU split for KV tensors before the run
//! (its offline linear program) and keeps it for every step. The
//! CPU-resident share is processed by *CPU-delegated attention* — the
//! score computation runs host-side over DRAM instead of streaming KV
//! across the link — which is what makes FlexGen competitive at all and
//! reproduces Figure 1's 3×/5× slowdowns for 50%/100% CPU placement.
//! The cost is unavoidable and static: every step touches the CPU share
//! of **all** cached tokens, a bill that grows linearly with sequence
//! length while ALISA's sparse working set does not.

use alisa_kvcache::head_split;
use alisa_memsim::{MemClass, OomError, StepRecord};
use alisa_model::ModelConfig;
use serde::{Deserialize, Serialize};

use crate::common::{self, efficiency, SimBase, FP16};
use crate::workload::Workload;
use crate::InferenceSystem;

/// The FlexGen baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlexGenScheduler {
    /// Optional fixed CPU fraction; `None` solves the smallest fraction
    /// that fits the final sequence length (the offline LP).
    pub cpu_fraction: Option<f64>,
}

impl FlexGenScheduler {
    /// FlexGen with the offline-solved split.
    pub fn new() -> Self {
        FlexGenScheduler { cpu_fraction: None }
    }

    /// FlexGen pinned to a specific CPU fraction (Figure 1's 50%/100%
    /// sweeps).
    pub fn with_cpu_fraction(fraction: f64) -> Self {
        FlexGenScheduler {
            cpu_fraction: Some(fraction),
        }
    }
}

impl Default for FlexGenScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl InferenceSystem for FlexGenScheduler {
    fn name(&self) -> &'static str {
        "FlexGen"
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
        let frac = self.cpu_fraction.unwrap_or_else(|| {
            head_split::solve_fraction(tok_bytes, wl.final_seq_len(), sim.gpu_kv_headroom())
        });
        // Every token's KV splits at the static ratio; the split panics
        // on a fraction outside [0, 1].
        let cpu_tok = head_split::cpu_bytes_per_token(tok_bytes, frac);
        let gpu_tok = tok_bytes - cpu_tok;

        // Prefill: prompt KV lands pre-split.
        let prompt = wl.input_len as u64;
        sim.gpu.alloc(MemClass::KvCache, prompt * gpu_tok)?;
        sim.cpu.alloc(MemClass::KvCache, prompt * cpu_tok)?;
        sim.push_step(StepRecord {
            mha_time: sim.prefill_compute(model, b, wl.input_len, efficiency::FLEXGEN),
            store_time: sim.cost.transfer_time(prompt * cpu_tok),
            ..StepRecord::default()
        });

        for j in 1..=wl.output_len {
            sim.gpu.alloc(MemClass::KvCache, gpu_tok)?;
            sim.cpu.alloc(MemClass::KvCache, cpu_tok)?;

            let seq_len = wl.input_len + j;
            // GPU computes attention over its resident share only.
            let gpu_tokens = common::resident_tokens(seq_len, 1.0 - frac);
            let (mha, ffn) = sim.decode_compute(model, b, gpu_tokens, efficiency::FLEXGEN);
            // CPU-delegated attention over the CPU share of every cached
            // token: memory-bound on host DRAM (recorded as KV-access
            // time, the "memory access" bars of Figures 1 and 12).
            let cpu_attn = sim.cost.cpu_pack_time(seq_len as u64 * cpu_tok);
            // Per-step link traffic: the new token's CPU share plus the
            // query/partial-result exchange for delegated attention.
            let store_time = sim.cost.transfer_time(cpu_tok);
            let qr_bytes = if frac > 0.0 {
                common::delegated_attention_qr_bytes(b, model.hidden_dim)
            } else {
                0
            };
            let load_time = sim.cost.transfer_time(qr_bytes) + cpu_attn;

            sim.push_step(StepRecord {
                mha_time: mha,
                ffn_time: ffn,
                load_time,
                store_time,
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
    fn completes_and_splits_statically() {
        let r = FlexGenScheduler::new().run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_16gb(),
            &Workload::alpaca(32),
        );
        assert!(r.outcome.is_completed(), "{}", r.summary());
        assert!(
            r.timeline.sum_by(|s| s.load_time) > 0.0,
            "must pay CPU KV access"
        );
    }

    #[test]
    fn small_workload_stays_on_gpu() {
        let r = FlexGenScheduler::new().run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::h100_80gb(),
            &Workload::new(4, 64, 32),
        );
        assert!(r.outcome.is_completed());
        assert_eq!(r.timeline.total_transfer_time(), 0.0);
    }

    #[test]
    fn fig1_ratio_cpu_placement_slows_inference() {
        // Figure 1: 50% CPU ≈ 3×, 100% CPU ≈ 5× the GPU-only time.
        let model = ModelConfig::opt_6_7b();
        let hw = HardwareSpec::v100_32gb();
        let wl = Workload::fig1_workload1();
        let t0 = FlexGenScheduler::with_cpu_fraction(0.0).run(&model, &hw, &wl);
        let t50 = FlexGenScheduler::with_cpu_fraction(0.5).run(&model, &hw, &wl);
        let t100 = FlexGenScheduler::with_cpu_fraction(1.0).run(&model, &hw, &wl);
        assert!(t0.outcome.is_completed());
        let r50 = t50.total_time() / t0.total_time();
        let r100 = t100.total_time() / t0.total_time();
        assert!(r50 > 1.5 && r50 < 5.0, "50% CPU ratio {r50:.2} out of band");
        assert!(r100 > r50, "100% must be slower than 50%");
        assert!(r100 < 8.0, "100% CPU ratio {r100:.2} out of band");
    }

    #[test]
    fn weights_too_big_is_oom() {
        let r = FlexGenScheduler::new().run(
            &ModelConfig::opt_30b(),
            &HardwareSpec::v100_16gb(),
            &Workload::alpaca(4),
        );
        assert!(!r.outcome.is_completed());
    }
}
