//! Figure 11: execution-time breakdown of a single attention module
//! (batch 64, sequence length 128) with achieved-FLOPS annotations.
//!
//! Reproduces: higher KV sparsity shrinks `QKᵀ`, the local attention sum
//! and the sparse-KV gather; the gathered small GEMM under-utilizes the
//! GPU (large FLOPS drop vs dense); the local sum is a low-intensity
//! vector op that can rival `QKᵀ` in time; larger models pay larger
//! selection overheads.

use alisa_bench::{banner, f, row};
use alisa_memsim::{CostModel, HardwareSpec};
use alisa_model::ModelConfig;
use alisa_sched::alisa::HISTORY_DEPTH;
use alisa_sched::common::{resident_tokens, FP16};

fn main() {
    banner(
        "Figure 11",
        "single attention module: time breakdown + achieved FLOPS (b=64, s=128)",
    );
    let b = 64usize;
    let s = 128usize;

    for model in [ModelConfig::opt_6_7b(), ModelConfig::opt_30b()] {
        let hw = HardwareSpec::for_model_params(model.params());
        let cost = CostModel::new(&hw);
        let h = model.hidden_dim;
        println!(
            "\n===== {} (h={}, heads={}) on {} =====",
            model.name, h, model.num_heads, hw.gpu.name
        );
        row(
            "kv sparsity",
            [
                "qkt (us)",
                "qkt FLOPS",
                "local sum (us)",
                "ADD FLOPS",
                "gather (us)",
                "softmax+av (us)",
                "total (us)",
            ],
        );
        for sparsity in [0.0f64, 0.4, 0.8] {
            let kept = resident_tokens(s, 1.0 - sparsity);
            // QKᵀ over the gathered dense KV subset.
            let qkt = cost.gemm_time(b, h, kept, FP16);
            let qkt_flops = cost.gemm_achieved_flops(b, h, kept, FP16);
            // Local attention sum over the history window (sparse only).
            let (lsum, lsum_flops, gather) = if sparsity > 0.0 {
                let bytes = (b * HISTORY_DEPTH * s * FP16) as u64;
                let adds = (b * HISTORY_DEPTH * s) as u64;
                (
                    cost.vector_op_time(bytes),
                    cost.vector_achieved_flops(adds, bytes),
                    cost.gather_time(kept * b, 2 * h * FP16),
                )
            } else {
                (0.0, 0.0, 0.0)
            };
            let softmax_av =
                cost.vector_op_time((b * kept * FP16) as u64) + cost.gemm_time(b, kept, h, FP16);
            let total = qkt + lsum + gather + softmax_av;
            row(
                &format!("{:.0}%", sparsity * 100.0),
                [
                    f(qkt * 1e6),
                    format!("{:.2e}", qkt_flops),
                    f(lsum * 1e6),
                    if lsum_flops > 0.0 {
                        format!("{:.2e}", lsum_flops)
                    } else {
                        "-".to_string()
                    },
                    f(gather * 1e6),
                    f(softmax_av * 1e6),
                    f(total * 1e6),
                ],
            );
        }
        // The FLOPS-drop headline: dense QKᵀ vs the 80%-sparse one.
        let dense_flops = cost.gemm_achieved_flops(b, h, s, FP16);
        let sparse_flops = cost.gemm_achieved_flops(b, h, resident_tokens(s, 1.0 - 0.8), FP16);
        println!(
            "QKt achieved-FLOPS drop at 80% sparsity: {:.1}x (paper: significant drop from under-utilization)",
            dense_flops / sparse_flops
        );
    }
    println!("\npaper: higher sparsity -> lower time; small gathered GEMMs under-utilize the GPU;");
    println!("       the local sum can cost as much as QKt; larger models pay larger overheads");
}
