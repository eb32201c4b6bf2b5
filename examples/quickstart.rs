//! Quickstart: run ALISA end-to-end on one workload and compare it with
//! the strongest baselines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use alisa::Alisa;
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_sched::{FlexGenScheduler, InferenceSystem, VllmScheduler, Workload};

fn main() {
    // The paper's headline configuration: 80% KV sparsity + INT8 KV
    // compression, on the paper's model↦GPU pairing.
    let alisa = Alisa::builder().kv_sparsity(0.8).build();

    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::for_model_params(model.params());
    let wl = Workload::alpaca(32); // b=32, s=128, n=512

    println!("model:    {model}");
    println!("hardware: {hw}");
    println!("workload: {wl}\n");

    // Offline plan search (Eq. 3-6), then simulate.
    let (tuned, report) = alisa.optimized_for(&model, &wl);
    println!("{}", report.summary());

    // The baselines the paper compares against.
    for sys in [
        Box::new(FlexGenScheduler::new()) as Box<dyn InferenceSystem>,
        Box::new(VllmScheduler),
    ] {
        let r = sys.run(&model, &hw, &wl);
        println!("{}", r.summary());
        if r.outcome.is_completed() && report.outcome.is_completed() {
            println!(
                "  -> ALISA speedup over {}: {:.2}x",
                sys.name(),
                report.throughput() / r.throughput()
            );
        }
    }

    // The same configuration drives the functional (accuracy) path:
    let cfg = tuned.generation_config();
    println!(
        "\nfunctional path: policy={}, sparsity={:.0}%, quant={:?}",
        cfg.policy,
        cfg.kv_sparsity * 100.0,
        cfg.kv_quant
    );
}
