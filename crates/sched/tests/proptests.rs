//! Property-based tests of scheduler invariants: for arbitrary (bounded)
//! workloads, every system either completes or reports OOM — and when it
//! completes, its timeline satisfies the structural invariants the
//! figures rely on. ALISA's pools are also checked against its token
//! placement at every step, through its placement observer, and its
//! plan search against independent runs of every plan in its grid.

use alisa_kvcache::Location;
use alisa_memsim::{HardwareSpec, MemClass};
use alisa_model::ModelConfig;
use alisa_sched::common::FP16;
use alisa_sched::{
    AccelerateScheduler, AlisaScheduler, FlexGenScheduler, InferenceSystem, Plan, PlanOptimizer,
    RunReport, SimBase, VllmScheduler, Workload,
};
use alisa_tensor::quant::PrecisionPolicy;
use proptest::prelude::*;

fn small_workload() -> impl Strategy<Value = Workload> {
    (1usize..=32, 8usize..=128, 4usize..=64).prop_map(|(b, s, n)| Workload::new(b, s, n))
}

fn systems() -> Vec<Box<dyn InferenceSystem>> {
    vec![
        Box::new(AlisaScheduler::new(0.8, true)),
        Box::new(AlisaScheduler::new(0.4, false)),
        Box::new(FlexGenScheduler::new()),
        Box::new(VllmScheduler),
        Box::new(AccelerateScheduler),
    ]
}

/// FP16, the paper's INT8 offload, or mixed precision with an INT4
/// cold tail.
fn precision(i: usize) -> PrecisionPolicy {
    match i {
        0 => PrecisionPolicy::fp16(),
        1 => PrecisionPolicy::int8(),
        _ => PrecisionPolicy::mixed(),
    }
}

/// The V100-16GB, V100-32GB and H100-80GB of the paper's testbeds.
fn hardware(i: usize) -> HardwareSpec {
    match i {
        0 => HardwareSpec::v100_16gb(),
        1 => HardwareSpec::v100_32gb(),
        _ => HardwareSpec::h100_80gb(),
    }
}

/// The plan at grid point `(α, β, p2)` of the optimizer's default grid.
fn grid_plan((a, b, p): (usize, usize, usize)) -> Plan {
    let grid = PlanOptimizer::default();
    Plan {
        alpha: grid.alphas[a],
        beta: grid.betas[b],
        p2_frac: grid.p2s[p],
    }
}

/// The plan search written out: every grid plan run on its own, in the
/// optimizer's order, the first strictly lower completed time winning,
/// and [`Plan::default`]'s run when no plan completes.
fn independent_search(
    base: &AlisaScheduler,
    model: &ModelConfig,
    hw: &HardwareSpec,
    wl: &Workload,
) -> (Plan, RunReport) {
    let mut best: Option<(Plan, RunReport)> = None;
    for a in 0..3 {
        for b in 0..3 {
            for p in 0..3 {
                let plan = grid_plan((a, b, p));
                let report = base.clone().with_plan(plan).run(model, hw, wl);
                let better = best
                    .as_ref()
                    .is_none_or(|(_, r)| report.total_time() < r.total_time());
                if report.outcome.is_completed() && better {
                    best = Some((plan, report));
                }
            }
        }
    }
    best.unwrap_or_else(|| {
        let plan = Plan::default();
        (plan, base.clone().with_plan(plan).run(model, hw, wl))
    })
}

/// When every candidate runs out of memory (OPT-30B's FP16 weights
/// overflow a V100-16GB), the search returns the default plan and its
/// run.
#[test]
fn plan_search_falls_back_to_the_default_plan() {
    let (model, hw, wl) = (
        ModelConfig::opt_30b(),
        HardwareSpec::v100_16gb(),
        Workload::alpaca(4),
    );
    let base = AlisaScheduler::new(0.8, true);
    let (plan, report) = PlanOptimizer::default().optimize(&base, &model, &hw, &wl);
    assert_eq!(plan, Plan::default());
    assert!(!report.outcome.is_completed(), "{}", report.summary());
    assert_eq!(report, base.clone().with_plan(plan).run(&model, &hw, &wl));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The plan search, whose candidates share one memo of the selected
    /// global sets, returns the plan and the run that independent runs
    /// of every grid plan give.
    #[test]
    fn plan_search_matches_independent_runs(
        wl in (8usize..=64, 32usize..=192, 8usize..=64)
            .prop_map(|(b, s, n)| Workload::new(b, s, n)),
        hw in 0usize..3,
        sparsity in 0usize..2,
        prec in 0usize..3,
    ) {
        let model = ModelConfig::opt_6_7b();
        let hw = hardware(hw);
        let base = AlisaScheduler::new([0.4, 0.8][sparsity], false).with_precision(precision(prec));
        prop_assert_eq!(
            PlanOptimizer::default().optimize(&base, &model, &hw, &wl),
            independent_search(&base, &model, &hw, &wl)
        );
    }

    /// Completed runs have positive total time, one record per step (or
    /// more, for wave-batched vLLM), and peak GPU memory within the
    /// device capacity.
    #[test]
    fn completed_runs_are_well_formed(wl in small_workload()) {
        let model = ModelConfig::opt_6_7b();
        let hw = HardwareSpec::v100_16gb();
        for sys in systems() {
            let r = sys.run(&model, &hw, &wl);
            if !r.outcome.is_completed() {
                continue; // OOM is a legitimate outcome
            }
            prop_assert!(r.total_time() > 0.0, "{}: zero time", sys.name());
            prop_assert!(r.throughput() > 0.0, "{}", sys.name());
            prop_assert!(
                r.timeline.len() > wl.output_len,
                "{}: {} records for {} steps",
                sys.name(),
                r.timeline.len(),
                wl.output_len
            );
            prop_assert!(
                r.timeline.peak_gpu_mem() <= hw.gpu.memory_bytes,
                "{}: peak GPU above capacity",
                sys.name()
            );
            // Times are finite and non-negative everywhere.
            for rec in r.timeline.records() {
                prop_assert!(rec.total_time().is_finite());
                prop_assert!(rec.total_time() >= 0.0);
            }
        }
    }

    /// ALISA's phase sequence never regresses (I → II → III).
    #[test]
    fn alisa_phases_are_monotone(wl in small_workload(), sparsity in 0.2f64..0.9) {
        let r = AlisaScheduler::new(sparsity, true).run(
            &ModelConfig::opt_6_7b(),
            &HardwareSpec::v100_16gb(),
            &wl,
        );
        if r.outcome.is_completed() {
            let mut max_phase = 0u8;
            for rec in r.timeline.records() {
                prop_assert!(rec.phase >= max_phase, "phase regressed at step {}", rec.step);
                max_phase = max_phase.max(rec.phase);
            }
        }
    }

    /// Higher sparsity never makes ALISA slower on memory-pressured
    /// workloads (more tokens skipped = less traffic and compute).
    #[test]
    fn sparsity_is_monotone_speedup(b in 16usize..=48) {
        let model = ModelConfig::opt_6_7b();
        let hw = HardwareSpec::v100_16gb();
        let wl = Workload::new(b, 128, 64);
        let lo = AlisaScheduler::new(0.4, true).run(&model, &hw, &wl);
        let hi = AlisaScheduler::new(0.8, true).run(&model, &hw, &wl);
        if lo.outcome.is_completed() && hi.outcome.is_completed() {
            prop_assert!(
                hi.total_time() <= lo.total_time() * 1.05,
                "80% sparsity ({:.2}s) slower than 40% ({:.2}s)",
                hi.total_time(),
                lo.total_time()
            );
        }
    }

    /// Throughput is invariant to re-running (pure simulation).
    #[test]
    fn simulation_is_pure(wl in small_workload()) {
        let s = AlisaScheduler::new(0.8, true);
        let model = ModelConfig::llama_7b();
        let hw = HardwareSpec::v100_16gb();
        let a = s.run(&model, &hw, &wl);
        let b = s.run(&model, &hw, &wl);
        prop_assert_eq!(a.timeline, b.timeline);
    }

    /// ALISA's pools hold what its placement says, after every record:
    /// GPU KV is the GPU-token count at FP16, CPU KV the
    /// CPU-token count at the CPU width (deleted tokens hold nothing),
    /// and the observer runs once per timeline record. Every workload
    /// here offloads on a V100-16GB, so each run reaches Phase II, and
    /// Phase III too unless its plan disables it.
    #[test]
    fn alisa_pools_match_its_placement(
        wl in (32usize..=64, 64usize..=256, 128usize..=256)
            .prop_map(|(b, s, n)| Workload::new(b, s, n)),
        sparsity in 0usize..2,
        prec in 0usize..3,
        plan in (0usize..3, 0usize..3, 0usize..3),
    ) {
        let model = ModelConfig::opt_6_7b();
        let sys = AlisaScheduler::new([0.4, 0.8][sparsity], false)
            .with_precision(precision(prec))
            .with_plan(grid_plan(plan));
        let fp16_tok = model.kv_bytes_per_token(FP16) * wl.batch_size as u64;
        let cpu_tok = sys.precision.cpu_bytes(fp16_tok);
        let mut sim = SimBase::new(&HardwareSpec::v100_16gb());
        let mut calls = 0usize;
        let mut max_phase = 0u8;
        let mut first_miss = None;
        let outcome = sys.simulate_with(&mut sim, &model, &wl, |sim, store| {
            calls += 1;
            let held = |at| (0..store.len()).filter(|&i| store.location(i) == at).count() as u64;
            let want = (held(Location::Gpu) * fp16_tok, held(Location::Cpu) * cpu_tok);
            let got = (sim.gpu.used_by(MemClass::KvCache), sim.cpu.used_by(MemClass::KvCache));
            if first_miss.is_none() && (want != got || calls != sim.timeline.len()) {
                first_miss = Some((sim.timeline.len(), calls, want, got));
            }
            max_phase = max_phase.max(sim.timeline.records().last().map_or(0, |r| r.phase));
        });
        prop_assert!(
            first_miss.is_none(),
            "{sys:?} on {wl:?}: (records, calls, placement bytes, pool bytes) = {first_miss:?}"
        );
        prop_assert_eq!(calls, sim.timeline.len());
        prop_assert!(outcome.is_ok(), "{sys:?} on {wl:?}: {outcome:?}");
        prop_assert_eq!(max_phase, if sys.plan.p2_frac <= 1.0 { 3 } else { 2 });
    }
}
