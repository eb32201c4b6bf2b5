//! HuggingFace Accelerate simulator (paper §VI-A baseline).
//!
//! Accelerate \[39\] "supports offloading the whole KV tensors to the CPU
//! memory": either everything fits on the GPU, or the *entire* KV cache
//! lives host-side and every step's attention walks all of it over CPU
//! DRAM — the 100%-CPU case of Figure 1 (≈5× slowdown).

use alisa_memsim::{MemClass, MemPool, OomError, StepRecord};
use alisa_model::ModelConfig;
use serde::{Deserialize, Serialize};

use crate::common::{self, efficiency, SimBase, FP16};
use crate::workload::Workload;
use crate::InferenceSystem;

/// The HuggingFace Accelerate baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccelerateScheduler;

impl InferenceSystem for AccelerateScheduler {
    fn name(&self) -> &'static str {
        "Accelerate"
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
        let total_kv = tok_bytes * wl.final_seq_len() as u64;
        // All-or-nothing: offload the whole cache iff it will not fit.
        let offload = total_kv > sim.gpu_kv_headroom();

        let prefill_kv = tok_bytes * wl.input_len as u64;
        kv_pool(sim, offload).alloc(MemClass::KvCache, prefill_kv)?;
        sim.push_step(StepRecord {
            mha_time: sim.prefill_compute(model, b, wl.input_len, efficiency::ACCELERATE),
            store_time: if offload {
                sim.cost.transfer_time(prefill_kv)
            } else {
                0.0
            },
            ..StepRecord::default()
        });

        for j in 1..=wl.output_len {
            kv_pool(sim, offload).alloc(MemClass::KvCache, tok_bytes)?;
            let seq_len = wl.input_len + j;
            let (mha, ffn, load, store) = if offload {
                // GPU computes projections/FFN; attention walks the whole
                // host-resident cache + the new token crosses the link.
                let (mha, ffn) = sim.decode_compute(model, b, 1, efficiency::ACCELERATE);
                let cpu_attn = sim.cost.cpu_pack_time(tok_bytes * seq_len as u64);
                let qr = sim
                    .cost
                    .transfer_time(common::delegated_attention_qr_bytes(b, model.hidden_dim));
                (mha, ffn, cpu_attn + qr, sim.cost.transfer_time(tok_bytes))
            } else {
                let (mha, ffn) = sim.decode_compute(model, b, seq_len, efficiency::ACCELERATE);
                (mha, ffn, 0.0, 0.0)
            };
            sim.push_step(StepRecord {
                mha_time: mha,
                ffn_time: ffn,
                load_time: load,
                store_time: store,
                ..StepRecord::default()
            });
        }
        Ok(())
    }
}

/// The pool holding the whole KV cache: host DRAM when offloaded.
fn kv_pool(sim: &mut SimBase, offload: bool) -> &mut MemPool {
    if offload {
        &mut sim.cpu
    } else {
        &mut sim.gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alisa_memsim::HardwareSpec;

    #[test]
    fn fits_on_gpu_when_small() {
        let r = AccelerateScheduler.run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::h100_80gb(),
            &Workload::new(4, 64, 32),
        );
        assert!(r.outcome.is_completed());
        assert_eq!(r.timeline.total_transfer_time(), 0.0);
    }

    #[test]
    fn whole_cache_offload_when_large() {
        let r = AccelerateScheduler.run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_16gb(),
            &Workload::alpaca(32),
        );
        assert!(r.outcome.is_completed(), "{}", r.summary());
        assert!(r.timeline.sum_by(|s| s.load_time) > 0.0);
        assert!(r.timeline.peak_cpu_mem() > 0);
    }

    #[test]
    fn slower_than_flexgen_at_scale() {
        // The whole-cache walk must cost more than FlexGen's partial split.
        use crate::flexgen::FlexGenScheduler;
        let model = ModelConfig::opt_6_7b();
        let hw = HardwareSpec::v100_16gb();
        let wl = Workload::alpaca(32);
        let acc = AccelerateScheduler.run(&model, &hw, &wl);
        let fg = FlexGenScheduler::new().run(&model, &hw, &wl);
        assert!(acc.outcome.is_completed() && fg.outcome.is_completed());
        assert!(acc.total_time() > fg.total_time());
    }
}
