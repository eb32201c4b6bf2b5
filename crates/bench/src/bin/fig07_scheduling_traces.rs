//! Figure 7: FlexGen's static scheduling vs ALISA's dynamic three-phase
//! scheduling, drawn as placement traces over a 24-token KV capacity.
//!
//! Each row is a decoding step, each column a token position; the cell
//! shows where that token's KV entry lives at that step (`G` = GPU,
//! `c` = CPU, `.` = deleted/recomputed-on-demand, space = not yet
//! created). FlexGen's split is visibly constant; ALISA's placement
//! shifts with the sequence and enters its phases.
//!
//! Both halves draw the simulators' own placement. The FlexGen half uses
//! FlexGen's split, `head_split::solve_fraction`. The ALISA half runs
//! `AlisaScheduler` (80% sparsity, INT8 offload, default plan) through
//! `simulate_with` on the same GPU with its HBM cut to the residents plus
//! the 24 tokens of KV, and prints the placement the scheduler holds
//! after every sixth decode step beside that step's recorded phase.

use alisa_bench::banner;
use alisa_kvcache::{head_split, Location};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_sched::common::{SimBase, FP16};
use alisa_sched::{AlisaScheduler, Workload};

fn main() {
    banner(
        "Figure 7",
        "static (FlexGen) vs dynamic three-phase (ALISA) KV placement traces",
    );
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    let wl = Workload::new(32, 16, 48);
    let tok_bytes = model.kv_bytes_per_token(FP16) * wl.batch_size as u64;

    let mut sim = SimBase::new(&hw);
    sim.setup_resident(&model, &wl, true)
        .expect("residents fit");
    let headroom = sim.gpu_kv_headroom();
    // Scale the trace so placement pressure appears within 48 steps:
    // the KV capacity is only 24 tokens.
    let kv_capacity_tokens = 24usize.min((headroom / tok_bytes) as usize);
    let kv_capacity = kv_capacity_tokens as u64 * tok_bytes;

    // ---- FlexGen: offline static split, fixed forever.
    let frac = head_split::solve_fraction(tok_bytes, wl.final_seq_len(), kv_capacity);
    println!(
        "\nFlexGen static split: {:.0}% of every token's KV on CPU, all steps:\n",
        frac * 100.0
    );
    for step in (0..wl.output_len).step_by(6) {
        // Decode step `step` ends holding its new token, as ALISA's rows do.
        let seq = wl.input_len + step + 1;
        let gpu_cols = ((1.0 - frac) * seq as f64).round() as usize;
        let line = "G".repeat(gpu_cols) + &"c".repeat(seq - gpu_cols);
        println!("  step {step:>3} |{line}|");
    }
    println!("  (each token is split along the head dimension at the same static ratio;");
    println!("   shown aggregated: G = GPU share, c = CPU share)");

    // ---- ALISA: the scheduler's token-level placement and phases.
    println!("\nALISA dynamic placement (G=GPU, c=CPU, .=deleted):\n");
    let mut cut = hw.clone();
    cut.gpu.memory_bytes = hw.gpu.memory_bytes - headroom + kv_capacity;
    AlisaScheduler::new(0.8, true)
        .simulate_with(&mut SimBase::new(&cut), &model, &wl, |sim, store| {
            let rec = sim.timeline.records().last().expect("runs after a record");
            // Record 0 is the prefill; record `j` is decode step `j − 1`.
            let Some(step) = rec.step.checked_sub(1) else {
                return;
            };
            if step % 6 != 0 {
                return;
            }
            let line: String = (0..store.len())
                .map(|i| match store.location(i) {
                    Location::Gpu => 'G',
                    Location::Cpu => 'c',
                    Location::Deleted => '.',
                })
                .collect();
            let phase = match rec.phase {
                1 => "I",
                2 => "II",
                _ => "III",
            };
            println!("  step {step:>3} |{line}| phase {phase}");
        })
        .expect("the cut HBM holds the residents");
    println!("\npaper: static split wastes GPU space on stale tokens and re-streams them;");
    println!("       dynamic phases keep the sparse working set resident and delete the rest");
}
