//! Figure 9: end-to-end throughput of ALISA (80% KV sparsity, INT8) vs
//! DeepSpeed-ZeRO, HuggingFace Accelerate, FlexGen and vLLM on the
//! Alpaca workload (s=128, n=512), batch sizes 4–64, across model
//! scales with the paper's model↦GPU pairing.
//!
//! Reproduces: ALISA fastest overall with speedups growing with batch
//! size (1.4–3× over FlexGen, up to ~1.9× over vLLM at large batch);
//! vLLM wins at small batch; DeepSpeed-ZeRO OOMs at large batch.

use alisa::Alisa;
use alisa_bench::{banner, f, row};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_sched::{
    AccelerateScheduler, DeepSpeedZeroScheduler, FlexGenScheduler, InferenceSystem, VllmScheduler,
    Workload,
};

fn main() {
    let quick = alisa_bench::quick_mode();
    banner(
        "Figure 9",
        "throughput (tok/s), Alpaca workload s=128 n=512, ALISA @ 80% sparsity",
    );
    let models: Vec<ModelConfig> = if quick {
        vec![ModelConfig::opt_6_7b()]
    } else {
        ModelConfig::paper_models()
    };
    let batches: Vec<usize> = if quick {
        vec![4, 32]
    } else {
        vec![4, 8, 16, 32, 64]
    };
    let out_len = if quick { 64 } else { 512 };

    let mut alisa_vs_flexgen: Vec<f64> = Vec::new();
    let mut alisa_vs_vllm: Vec<f64> = Vec::new();

    for model in &models {
        let hw = HardwareSpec::for_model_params(model.params());
        println!("\n===== {} on {} =====", model.name, hw.gpu.name);
        row(
            "batch",
            [
                "DS-ZeRO",
                "Accelerate",
                "FlexGen",
                "vLLM",
                "ALISA",
                "vs FG",
                "vs vLLM",
            ],
        );
        for &b in &batches {
            let wl = Workload::new(b, 128, out_len);
            let baselines: Vec<Box<dyn InferenceSystem>> = vec![
                Box::new(DeepSpeedZeroScheduler),
                Box::new(AccelerateScheduler),
                Box::new(FlexGenScheduler::new()),
                Box::new(VllmScheduler),
            ];
            let mut tps: Vec<f64> = Vec::new();
            for sys in &baselines {
                let r = sys.run(model, &hw, &wl);
                tps.push(if r.outcome.is_completed() {
                    r.throughput()
                } else {
                    f64::NAN
                });
            }
            // ALISA with an offline-optimized plan per workload; the
            // plan search's report is the tuned run.
            let (_, ra) = Alisa::builder()
                .kv_sparsity(0.8)
                .hardware(hw.clone())
                .build()
                .optimized_for(model, &wl);
            let ta = if ra.outcome.is_completed() {
                ra.throughput()
            } else {
                f64::NAN
            };

            let cell = |v: f64| if v.is_nan() { "OOM".to_string() } else { f(v) };
            let ratio = |num: f64, den: f64| {
                if num.is_nan() || den.is_nan() || den == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.2}x", num / den)
                }
            };
            if !ta.is_nan() && !tps[2].is_nan() {
                alisa_vs_flexgen.push(ta / tps[2]);
            }
            if !ta.is_nan() && !tps[3].is_nan() {
                alisa_vs_vllm.push(ta / tps[3]);
            }
            row(
                &b.to_string(),
                [
                    cell(tps[0]),
                    cell(tps[1]),
                    cell(tps[2]),
                    cell(tps[3]),
                    cell(ta),
                    ratio(ta, tps[2]),
                    ratio(ta, tps[3]),
                ],
            );
        }
    }
    let maxf = alisa_vs_flexgen.iter().copied().fold(0.0, f64::max);
    let minf = alisa_vs_flexgen
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let maxv = alisa_vs_vllm.iter().copied().fold(0.0, f64::max);
    println!(
        "\nALISA vs FlexGen: {:.2}x – {:.2}x   (paper: 1.4x – 3.0x)",
        minf, maxf
    );
    println!("ALISA vs vLLM (max): {maxv:.2}x        (paper: up to 1.9x at large batch)");
}
