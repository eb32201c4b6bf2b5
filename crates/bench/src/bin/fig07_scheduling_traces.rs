//! Figure 7: FlexGen's static scheduling vs ALISA's dynamic three-phase
//! scheduling, drawn as placement traces over a 24-token KV capacity.
//!
//! Each row is a decoding step, each column a token position; the cell
//! shows where that token's KV entry lives at that step (`G` = GPU,
//! `c` = CPU, `.` = deleted/recomputed-on-demand, space = not yet
//! created). FlexGen's split is visibly constant; ALISA's placement
//! shifts with the sequence and enters its phases.
//!
//! The FlexGen half uses the simulator's own split,
//! `head_split::solve_fraction`. The ALISA half does not run
//! `AlisaScheduler::run`: it runs its own, simplified Algorithm 2 over a
//! `TokenKvStore`, with the scheduler's `GlobalSetModel` picking the
//! globals. It keeps a 0.4 caching ratio, pulls every selected CPU token
//! back to the GPU (deleted ones stay deleted), and evicts the oldest
//! GPU token outside the working set; past a fixed p2 (two thirds into
//! the decode) every second eviction in a step deletes instead
//! (β = 0.5). It has no α watermark and no rule for when a reloaded
//! token stays cached, so its trace illustrates the phases rather than
//! rendering the scheduler's decisions.

use alisa_bench::banner;
use alisa_kvcache::{head_split, Location, TokenKvStore};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_sched::alisa::GlobalSetModel;
use alisa_sched::common::{SimBase, FP16};
use alisa_sched::Workload;

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
    // pretend the headroom only fits 24 tokens of KV.
    let kv_capacity_tokens = 24usize.min((headroom / tok_bytes) as usize);

    // ---- FlexGen: offline static split, fixed forever.
    let frac = head_split::solve_fraction(
        tok_bytes,
        wl.final_seq_len(),
        kv_capacity_tokens as u64 * tok_bytes,
    );
    println!(
        "\nFlexGen static split: {:.0}% of every token's KV on CPU, all steps:\n",
        frac * 100.0
    );
    for step in (0..wl.output_len).step_by(6) {
        let seq = wl.input_len + step;
        let gpu_cols = ((1.0 - frac) * seq as f64).round() as usize;
        let line = "G".repeat(gpu_cols) + &"c".repeat(seq - gpu_cols);
        println!("  step {step:>3} |{line}|");
    }
    println!("  (each token is split along the head dimension at the same static ratio;");
    println!("   shown aggregated: G = GPU share, c = CPU share)");

    // ---- ALISA: token-level dynamic placement with phases.
    println!("\nALISA dynamic placement (G=GPU, c=CPU, .=deleted):\n");
    let mut store = TokenKvStore::new();
    for _ in 0..wl.input_len {
        store.append(Location::Gpu);
    }
    let globals = GlobalSetModel::new(7);
    let r = 0.4f64; // caching ratio
    let p2 = wl.input_len + 2 * wl.output_len / 3;
    for step in 0..wl.output_len {
        let seq = wl.input_len + step + 1;
        store.append(Location::Gpu);
        let budget = ((seq as f64 * r).round() as usize).max(2);
        let k_local = budget.div_ceil(2);
        let window_start = seq - k_local;
        let global_set = globals.pick(budget - k_local, window_start, step + 1, seq);
        // Pull needed globals to GPU.
        for &g in &global_set {
            if store.location(g) == Location::Cpu {
                store.relocate(g, Location::Gpu);
            }
        }
        // Enforce capacity: oldest non-working-set tokens leave the GPU;
        // past p2, every other eviction is a deletion (β = 0.5).
        let mut beta_acc = 0.0;
        while store.count(Location::Gpu) > kv_capacity_tokens {
            let victim = (0..window_start)
                .find(|&i| store.location(i) == Location::Gpu && !global_set.contains(&i));
            let Some(v) = victim else { break };
            beta_acc += 0.5;
            if seq >= p2 && beta_acc >= 1.0 {
                beta_acc -= 1.0;
                store.relocate(v, Location::Deleted);
            } else {
                store.relocate(v, Location::Cpu);
            }
        }
        if step % 6 == 0 {
            let line: String = (0..seq)
                .map(|i| match store.location(i) {
                    Location::Gpu => 'G',
                    Location::Cpu => 'c',
                    Location::Deleted => '.',
                })
                .collect();
            let phase = if store.count(Location::Deleted) > 0 {
                "III"
            } else if store.count(Location::Cpu) > 0 {
                "II"
            } else {
                "I"
            };
            println!("  step {:>3} |{line}| phase {phase}", step);
        }
    }
    println!("\npaper: static split wastes GPU space on stale tokens and re-streams them;");
    println!("       dynamic phases keep the sparse working set resident and delete the rest");
}
