//! The offline simulators' out-of-memory exits, pinned byte for byte.
//!
//! Running out of memory is a reported outcome of the six offline
//! simulators (the "OOM" cells of Figures 1 and 9): the run stops at the
//! failing step and its report names the pool and the bytes. The figure
//! goldens print no such step or message, so this test pins them: for
//! each system on two workloads that overflow, one line with the
//! report's `summary()` (the OOM step and the pool's error text), the
//! number of step records kept up to the failure, and the bits of the
//! partial run's total time.
//!
//! Workloads: OPT-30B on a V100-16GB at Alpaca batch 4, where the FP16
//! weights alone overflow HBM for every system that keeps them there;
//! and OPT-6.7B on a V100-16GB at b = 64, s = 64, n = 16384, where each
//! system runs until its GPU or CPU pool overflows. A second test checks
//! that every OOM error a simulator returns names an allocation that
//! does not fit.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_sched::{
    AccelerateScheduler, AlisaScheduler, DeepSpeedZeroScheduler, FlexGenScheduler,
    GpuOnlyScheduler, InferenceSystem, SimBase, VllmScheduler, Workload,
};

/// Every system the test runs, with the label its lines carry.
fn systems() -> Vec<(&'static str, Box<dyn InferenceSystem>)> {
    vec![
        ("gpu-only", Box::new(GpuOnlyScheduler::with_kv_cache())),
        (
            "gpu-only-no-kv",
            Box::new(GpuOnlyScheduler::without_kv_cache()),
        ),
        ("accelerate", Box::new(AccelerateScheduler)),
        ("deepspeed-zero", Box::new(DeepSpeedZeroScheduler)),
        ("flexgen", Box::new(FlexGenScheduler::new())),
        (
            "flexgen-cpu-1.0",
            Box::new(FlexGenScheduler::with_cpu_fraction(1.0)),
        ),
        ("vllm", Box::new(VllmScheduler)),
        ("alisa-fp16", Box::new(AlisaScheduler::new(0.8, false))),
        ("alisa-int8", Box::new(AlisaScheduler::new(0.8, true))),
    ]
}

/// The two overflowing workloads the fixture pins, on a V100-16GB.
fn cases() -> [(ModelConfig, Workload); 2] {
    [
        (ModelConfig::opt_30b(), Workload::alpaca(4)),
        (ModelConfig::opt_6_7b(), Workload::new(64, 64, 16384)),
    ]
}

/// One line per (workload, system).
fn lines() -> String {
    let hw = HardwareSpec::v100_16gb();
    let mut out = String::new();
    for (model, wl) in &cases() {
        for (label, sys) in systems() {
            let r = sys.run(model, &hw, wl);
            out.push_str(&format!(
                "{label}: {} | steps={} total_time_bits={:#018x}\n",
                r.summary(),
                r.timeline.len(),
                r.total_time().to_bits()
            ));
        }
    }
    out
}

fn golden_path() -> String {
    format!(
        "{}/tests/golden/offline_oom.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn oom_exits_match_golden_fixture() {
    let path = golden_path();
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"));
    assert_eq!(
        lines(),
        golden,
        "offline OOM exits drifted from {path} \
         (regenerate with `cargo test --test offline_oom -- --ignored` if intentional)"
    );
}

/// Every OOM a simulator returns names an allocation that does not
/// fit: `requested + in_use > capacity`. Beyond the fixture's cases,
/// OPT-6.7B at b = 1, s = 16, n = 7377 leaves vLLM less headroom than
/// one sequence's block-rounded reservation but more than its unrounded
/// KV.
#[test]
fn every_oom_names_an_allocation_that_does_not_fit() {
    let hw = HardwareSpec::v100_16gb();
    let mut all = Vec::from(cases());
    all.push((ModelConfig::opt_6_7b(), Workload::new(1, 16, 7377)));
    let mut ooms = 0;
    for (model, wl) in &all {
        for (label, sys) in systems() {
            let Err(err) = sys.simulate(&mut SimBase::new(&hw), model, wl) else {
                continue;
            };
            ooms += 1;
            assert!(
                err.requested + err.in_use > err.capacity,
                "{label} on {} {wl:?}: {err} fits",
                model.name
            );
        }
    }
    assert!(ooms > 0, "no case ran out of memory");
}

/// Rewrites the OOM fixture from the current simulators. Ignored so a
/// normal test run can never bless its own regression:
/// `cargo test --test offline_oom -- --ignored`.
#[test]
#[ignore]
fn regenerate_offline_oom_fixture() {
    std::fs::write(golden_path(), lines()).expect("write offline OOM fixture");
}
