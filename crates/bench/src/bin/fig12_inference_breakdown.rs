//! Figure 12: full-inference breakdown on OPT-30B (b=64, s=128, n=512,
//! H100-80GB).
//!
//! * (a) per-phase execution time and memory, FlexGen vs ALISA, at
//!   40/60/80% KV sparsity — ALISA faster in every phase, higher
//!   sparsity enters Phase III later;
//! * (b) recomputation on vs off — recomputation buys ~1.2–1.3×;
//! * (c) ablation: SWA alone → +dynamic scheduling → +INT8 compression
//!   contribute comparably, each growing with sparsity.
//!
//! (c) runs the three [`AblationLevel`]s through the `alisa` builder:
//! "SWA" runs the sparse working set under the eager, recompute-free
//! [`Plan::STATIC`] (static-style placement); "+DS" adds the
//! three-phase plan with working-set-aware placement and
//! recomputation; "+INT8" adds KV compression.

use alisa::{AblationLevel, Alisa};
use alisa_bench::{banner, f, gib, row};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_sched::{AlisaScheduler, FlexGenScheduler, InferenceSystem, Plan, RunReport, Workload};

fn phase_bounds(r: &RunReport) -> [Option<usize>; 3] {
    [1u8, 2, 3].map(|p| r.timeline.phase_start(p))
}

fn main() {
    let quick = alisa_bench::quick_mode();
    banner(
        "Figure 12",
        "OPT-30B, b=64, s=128, n=512, H100-80GB: phases, recomputation, ablation",
    );
    let model = ModelConfig::opt_30b();
    let hw = HardwareSpec::h100_80gb();
    let wl = if quick {
        Workload::new(64, 128, 96)
    } else {
        Workload::alpaca(64)
    };
    let sparsities = if quick {
        vec![0.8]
    } else {
        vec![0.4, 0.6, 0.8]
    };

    // ---- (a) per-phase time and memory: FlexGen vs ALISA. The plan
    // (α, β, p2) comes from the offline optimizer per sparsity, as in
    // the paper — which is why higher sparsity enters Phase III later.
    println!("\n--- (a) per-phase execution time / memory ---");
    for &sp in &sparsities {
        let (_, alisa) = alisa_sched::PlanOptimizer::default().optimize(
            &AlisaScheduler::new(sp, true),
            &model,
            &hw,
            &wl,
        );
        let flexgen = FlexGenScheduler::new().run(&model, &hw, &wl);
        assert!(alisa.outcome.is_completed(), "{}", alisa.summary());
        assert!(flexgen.outcome.is_completed(), "{}", flexgen.summary());
        let bounds = phase_bounds(&alisa);
        println!(
            "\nKV sparsity {:.0}%  (phase starts: I@{:?} II@{:?} III@{:?})",
            sp * 100.0,
            bounds[0],
            bounds[1],
            bounds[2]
        );
        row(
            "phase",
            [
                "ALISA t(s)",
                "FlexGen t(s)",
                "ALISA GPU GiB",
                "ALISA CPU GiB",
            ],
        );
        for phase in 1u8..=3 {
            let at = alisa.timeline.phase_time(phase);
            if alisa.timeline.phase_records(phase).count() == 0 {
                continue;
            }
            // Map FlexGen's (phase-less) steps onto ALISA's phase window.
            let steps: Vec<usize> = alisa
                .timeline
                .phase_records(phase)
                .map(|s| s.step)
                .collect();
            let (lo, hi) = (steps[0], *steps.last().unwrap());
            let ft: f64 = flexgen
                .timeline
                .records()
                .iter()
                .filter(|s| s.step >= lo && s.step <= hi)
                .map(|s| s.total_time())
                .sum();
            let gpu_peak = alisa
                .timeline
                .phase_records(phase)
                .map(|s| s.gpu_mem)
                .max()
                .unwrap_or(0);
            let cpu_peak = alisa
                .timeline
                .phase_records(phase)
                .map(|s| s.cpu_mem)
                .max()
                .unwrap_or(0);
            row(
                &format!("phase {phase} (steps {lo}-{hi})"),
                [f(at), f(ft), gib(gpu_peak), gib(cpu_peak)],
            );
        }
        println!(
            "end-to-end: ALISA {:.1}s vs FlexGen {:.1}s ({:.2}x)",
            alisa.total_time(),
            flexgen.total_time(),
            flexgen.total_time() / alisa.total_time()
        );
    }

    // ---- (b) impact of recomputation.
    println!("\n--- (b) recomputation on vs off (full sequence) ---");
    row(
        "kv sparsity",
        ["recompute ON (s)", "recompute OFF (s)", "gain"],
    );
    for &sp in &sparsities {
        let on = AlisaScheduler::new(sp, true)
            .with_plan(Plan {
                beta: 0.8,
                ..Plan::default()
            })
            .run(&model, &hw, &wl);
        let off = AlisaScheduler::new(sp, true)
            .without_recompute()
            .run(&model, &hw, &wl);
        row(
            &format!("{:.0}%", sp * 100.0),
            [
                f(on.total_time()),
                f(off.total_time()),
                format!("{:.2}x", off.total_time() / on.total_time()),
            ],
        );
    }
    println!("paper: recomputation reduces total time by ~1.2–1.3x");

    // ---- (c) ablation.
    println!("\n--- (c) ablation: throughput (tok/s) ---");
    row("kv sparsity", AblationLevel::ALL.map(AblationLevel::label));
    for &sp in &sparsities {
        let throughputs = AblationLevel::ALL.map(|level| {
            let alisa = Alisa::builder()
                .kv_sparsity(sp)
                .hardware(hw.clone())
                .ablation(level)
                .build();
            f(alisa.simulate(&model, &wl).throughput())
        });
        row(&format!("{:.0}%", sp * 100.0), throughputs);
    }
    println!("paper: techniques contribute comparably; gains grow with sparsity");
}
