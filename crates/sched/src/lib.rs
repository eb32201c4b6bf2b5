//! Execution simulators for LLM serving systems (paper §V and §VI).
//!
//! Each simulator implements the *actual placement algorithm* of one
//! system — ALISA's three-phase token-level scheduler (Algorithm 2),
//! FlexGen's static head split, vLLM's paged blocks with wave-batched
//! continuous batching, HuggingFace Accelerate's whole-KV offload, and
//! DeepSpeed-ZeRO's weight streaming — and walks it step by step over
//! the analytic hardware model of `alisa-memsim` at the paper's true
//! model dimensions. Only the clock is analytic; every byte moved and
//! every token placed follows the real algorithm (see "Two evaluation
//! paths, one cost model" in `docs/ARCHITECTURE.md`).
//!
//! # Example
//!
//! ```
//! use alisa_memsim::HardwareSpec;
//! use alisa_model::ModelConfig;
//! use alisa_sched::{AlisaScheduler, InferenceSystem, Workload};
//!
//! let report = AlisaScheduler::new(0.8, true).run(
//!     &ModelConfig::opt_6_7b(),
//!     &HardwareSpec::v100_16gb(),
//!     &Workload::new(8, 128, 64),
//! );
//! assert!(report.throughput() > 0.0);
//! ```

pub mod accelerate;
pub mod alisa;
pub mod common;
pub mod deepspeed;
pub mod flexgen;
pub mod gpu_only;
pub mod report;
pub mod vllm;
pub mod workload;

pub use accelerate::AccelerateScheduler;
pub use alisa::{AlisaScheduler, GlobalSetModel, Plan, PlanOptimizer, TopKScratch};
pub use common::SimBase;
pub use deepspeed::DeepSpeedZeroScheduler;
pub use flexgen::FlexGenScheduler;
pub use gpu_only::GpuOnlyScheduler;
pub use report::{Outcome, RunReport};
pub use vllm::VllmScheduler;
pub use workload::{InvalidWorkload, Workload};

use alisa_memsim::{HardwareSpec, OomError};
use alisa_model::ModelConfig;

/// A complete inference system that can execute a workload on simulated
/// hardware and report its timeline.
pub trait InferenceSystem: std::fmt::Debug {
    /// System name as it appears in the paper's figures.
    fn name(&self) -> &'static str;

    /// Walks the system's placement algorithm over prefill and decode,
    /// allocating from `sim`'s pools and pushing one record per step
    /// with [`SimBase::push_step`].
    ///
    /// # Errors
    ///
    /// Returns the error of the first allocation a pool refuses. The run
    /// stops at the step it was building, which is the number of
    /// records pushed so far (0 = set-up or prefill).
    fn simulate(
        &self,
        sim: &mut SimBase,
        model: &ModelConfig,
        wl: &Workload,
    ) -> Result<(), OomError>;

    /// Simulates end-to-end inference (prefill + decode) on fresh pools
    /// and returns the per-step record. Never panics on OOM:
    /// out-of-memory is a reported outcome (Figures 1 and 9 print "OOM"
    /// bars), built here for every system from
    /// [`InferenceSystem::simulate`]'s error.
    fn run(&self, model: &ModelConfig, hw: &HardwareSpec, wl: &Workload) -> RunReport {
        run_on_fresh_pools(self.name(), model, hw, wl, |sim| {
            self.simulate(sim, model, wl)
        })
    }
}

/// [`InferenceSystem::run`]'s body for any walk of `system`'s placement
/// algorithm: runs `simulate` on fresh pools for `hw` and reports its
/// timeline, with an OOM error as the run's outcome.
fn run_on_fresh_pools(
    system: &str,
    model: &ModelConfig,
    hw: &HardwareSpec,
    wl: &Workload,
    simulate: impl FnOnce(&mut SimBase) -> Result<(), OomError>,
) -> RunReport {
    let mut sim = SimBase::new(hw);
    let outcome = match simulate(&mut sim) {
        Ok(()) => Outcome::Completed,
        Err(err) => Outcome::Oom {
            at_step: sim.timeline.len(),
            detail: err.to_string(),
        },
    };
    RunReport {
        system: system.to_string(),
        model: model.name.clone(),
        workload: *wl,
        outcome,
        timeline: sim.timeline,
    }
}
