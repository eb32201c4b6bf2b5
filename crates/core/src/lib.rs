//! # ALISA: sparsity-aware KV caching for LLM inference
//!
//! A complete reproduction of *"ALISA: Accelerating Large Language Model
//! Inference via Sparsity-Aware KV Caching"* (Zhao, Wu, Wang — ISCA
//! 2024) as a pure-Rust workspace. This crate is the front door: it
//! re-exports every subsystem and offers the [`Alisa`] builder that
//! wires the paper's three techniques together:
//!
//! 1. **Sparse Window Attention** (`alisa_attention::PolicyKind::Swa`) —
//!    Algorithm 1's mixture of locally-static and globally-dynamic
//!    token selection;
//! 2. **Three-phase dynamic scheduling** (`alisa_sched::AlisaScheduler`)
//!    — Algorithm 2's GPU caching → GPU–CPU caching → recomputation
//!    progression at token granularity;
//! 3. **KV compression** (`alisa_tensor::quant`) — INT8 storage of
//!    offloaded KV tensors: priced per cache region by
//!    `PrecisionPolicy` on the performance path, and applied per token
//!    row by `fake_quantize_row` on the functional path.
//!
//! Two evaluation paths mirror the paper's methodology (see "Two
//! evaluation paths, one cost model" in `docs/ARCHITECTURE.md`): a
//! *functional* path that executes a laptop-scale
//! transformer for accuracy/attention statistics, and a *performance*
//! path that runs the real scheduling algorithms at paper-scale model
//! dimensions over an analytic hardware model.
//!
//! ## Quickstart
//!
//! ```
//! use alisa::{Alisa, AblationLevel};
//! use alisa_model::ModelConfig;
//! use alisa_sched::Workload;
//!
//! // Throughput of ALISA vs. the strongest baseline on one workload:
//! let alisa = Alisa::builder().kv_sparsity(0.8).build();
//! let report = alisa.simulate(&ModelConfig::opt_6_7b(), &Workload::new(8, 128, 64));
//! assert!(report.throughput() > 0.0);
//! ```

pub use alisa_attention as attention;
pub use alisa_kvcache as kvcache;
pub use alisa_memsim as memsim;
pub use alisa_model as model;
pub use alisa_sched as sched;
pub use alisa_tensor as tensor;
pub use alisa_tensor::quant::{KvPrecision, PrecisionPolicy};
pub use alisa_workloads as workloads;

use alisa_attention::policy::PolicyKind;
use alisa_memsim::HardwareSpec;
use alisa_model::engine::GenerationConfig;
use alisa_model::{InitSpec, ModelConfig, TinyTransformer};
use alisa_sched::alisa::HISTORY_DEPTH;
use alisa_sched::{AlisaScheduler, InferenceSystem, Plan, PlanOptimizer, RunReport, Workload};
use serde::{Deserialize, Serialize};

/// Which of ALISA's techniques are active — the axis of the ablation in
/// Figure 12(c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AblationLevel {
    /// Sparse Window Attention only: static scheduling under
    /// [`Plan::STATIC`] (eager offload, no recomputation), no
    /// compression.
    SwaOnly,
    /// SWA + three-phase dynamic scheduling.
    SwaDynamicSched,
    /// SWA + dynamic scheduling + INT8 KV compression — full ALISA.
    Full,
}

impl AblationLevel {
    /// All levels in Figure 12(c)'s stacking order.
    pub const ALL: [AblationLevel; 3] = [
        AblationLevel::SwaOnly,
        AblationLevel::SwaDynamicSched,
        AblationLevel::Full,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            AblationLevel::SwaOnly => "SWA",
            AblationLevel::SwaDynamicSched => "SWA+DS",
            AblationLevel::Full => "SWA+DS+INT8",
        }
    }
}

/// Configured ALISA pipeline; create with [`Alisa::builder`].
#[derive(Debug, Clone)]
pub struct Alisa {
    kv_sparsity: f64,
    /// The plan [`Alisa::optimized_for`] found; the scheduler's default
    /// plan until then.
    plan: Option<Plan>,
    hardware: Option<HardwareSpec>,
    ablation: AblationLevel,
}

impl Alisa {
    /// Starts a builder with the paper's defaults: 80% KV sparsity and
    /// every technique on ([`AblationLevel::Full`], INT8 KV compression
    /// included).
    pub fn builder() -> AlisaBuilder {
        AlisaBuilder::default()
    }

    /// The effective KV sparsity.
    pub fn kv_sparsity(&self) -> f64 {
        self.kv_sparsity
    }

    /// The per-cache-state-region KV precision policy in effect: the
    /// paper's INT8 compression ([`PrecisionPolicy::int8`]) at
    /// [`AblationLevel::Full`], FP16 everywhere below it.
    pub fn kv_precision(&self) -> PrecisionPolicy {
        PrecisionPolicy::from_legacy_compression(self.ablation == AblationLevel::Full)
    }

    /// The scheduler this configuration drives (performance path).
    pub fn scheduler(&self) -> AlisaScheduler {
        let mut s = AlisaScheduler::new(self.kv_sparsity, self.ablation == AblationLevel::Full);
        if self.ablation == AblationLevel::SwaOnly {
            // Static scheduling: FlexGen-style placement, but with the
            // sparse working set.
            s = s.with_plan(Plan::STATIC);
        } else if let Some(plan) = self.plan {
            s = s.with_plan(plan);
        }
        s
    }

    /// Simulates end-to-end inference at paper-scale dimensions
    /// (performance path). Hardware defaults to the paper's pairing for
    /// the model size ([`HardwareSpec::for_model_params`]).
    pub fn simulate(&self, model: &ModelConfig, wl: &Workload) -> RunReport {
        let hw = self
            .hardware
            .clone()
            .unwrap_or_else(|| HardwareSpec::for_model_params(model.params()));
        self.scheduler().run(model, &hw, wl)
    }

    /// Runs the offline plan search (Eq. 3–6) for a workload and returns
    /// a copy of `self` pinned to the best plan, plus its report.
    pub fn optimized_for(&self, model: &ModelConfig, wl: &Workload) -> (Alisa, RunReport) {
        let hw = self
            .hardware
            .clone()
            .unwrap_or_else(|| HardwareSpec::for_model_params(model.params()));
        let (plan, report) = PlanOptimizer::default().optimize(&self.scheduler(), model, &hw, wl);
        let mut tuned = self.clone();
        tuned.plan = Some(plan);
        (tuned, report)
    }

    /// The generation config this pipeline corresponds to on the
    /// functional path (accuracy experiments).
    pub fn generation_config(&self) -> GenerationConfig {
        GenerationConfig {
            policy: PolicyKind::Swa,
            kv_sparsity: self.kv_sparsity as f32,
            history_depth: HISTORY_DEPTH,
            // The functional path stores each offloaded row at the
            // CPU-region precision (the hot GPU window stays FP16).
            kv_quant: self.kv_precision().cpu.quant_bits(),
            ..GenerationConfig::default()
        }
    }

    /// Builds a laptop-scale functional model whose attention statistics
    /// emulate `emulated` (scale-dependent concentration).
    pub fn functional_model(&self, emulated: &ModelConfig) -> TinyTransformer {
        let init = InitSpec::default().with_concentration_for_params(emulated.params());
        TinyTransformer::structured(ModelConfig::tiny_4l(), init)
    }
}

/// Builder for [`Alisa`].
#[derive(Debug, Clone)]
pub struct AlisaBuilder {
    kv_sparsity: f64,
    hardware: Option<HardwareSpec>,
    ablation: AblationLevel,
}

impl Default for AlisaBuilder {
    fn default() -> Self {
        AlisaBuilder {
            kv_sparsity: 0.8,
            hardware: None,
            ablation: AblationLevel::Full,
        }
    }
}

impl AlisaBuilder {
    /// Sets the target KV sparsity in `[0, 1)` (paper default: 0.8).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn kv_sparsity(mut self, sparsity: f64) -> Self {
        assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0,1)");
        self.kv_sparsity = sparsity;
        self
    }

    /// Overrides the hardware (defaults to the paper's model↦GPU
    /// pairing).
    pub fn hardware(mut self, hw: HardwareSpec) -> Self {
        self.hardware = Some(hw);
        self
    }

    /// Restricts the pipeline to an ablation level (Figure 12(c)).
    pub fn ablation(mut self, level: AblationLevel) -> Self {
        self.ablation = level;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> Alisa {
        Alisa {
            kv_sparsity: self.kv_sparsity,
            plan: None,
            hardware: self.hardware,
            ablation: self.ablation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alisa_tensor::quant::QuantBits;

    #[test]
    fn builder_defaults_match_paper() {
        let a = Alisa::builder().build();
        assert_eq!(a.kv_sparsity(), 0.8);
        let cfg = a.generation_config();
        assert_eq!(cfg.policy, PolicyKind::Swa);
        assert_eq!(cfg.kv_quant, Some(QuantBits::Int8));
    }

    #[test]
    fn ablation_controls_compression_and_recompute() {
        let swa_only = Alisa::builder().ablation(AblationLevel::SwaOnly).build();
        assert_eq!(swa_only.generation_config().kv_quant, None);
        let sched = swa_only.scheduler();
        assert_eq!(sched.plan.beta, 0.0);
        assert!(sched.plan.p2_frac > 1.0);
        assert_eq!(sched.plan.alpha, 0.5, "Figure 12(c)'s eager offload");
        let full = Alisa::builder().ablation(AblationLevel::Full).build();
        assert!(full.scheduler().compresses_kv());
        assert_eq!(AblationLevel::Full.label(), "SWA+DS+INT8");
        // Precision follows the level: INT8 offload only at `Full`, on
        // both paths; FP16 everywhere below it.
        for level in AblationLevel::ALL {
            let a = Alisa::builder().ablation(level).build();
            let full = level == AblationLevel::Full;
            let expected = if full {
                PrecisionPolicy::int8()
            } else {
                PrecisionPolicy::fp16()
            };
            assert_eq!(a.kv_precision(), expected, "{level:?}");
            assert_eq!(a.scheduler().precision, expected, "{level:?}");
            assert_eq!(
                a.generation_config().kv_quant,
                full.then_some(QuantBits::Int8),
                "{level:?}"
            );
        }
    }

    #[test]
    fn simulate_picks_paper_hardware() {
        let a = Alisa::builder().build();
        let r = a.simulate(&ModelConfig::opt_6_7b(), &Workload::new(4, 64, 32));
        assert!(r.outcome.is_completed());
        // 6.7B pairs with V100-16GB: peak GPU memory must fit under 16 GiB.
        assert!(r.timeline.peak_gpu_mem() <= 16 * (1 << 30));
    }

    #[test]
    fn optimized_plan_is_applied() {
        let a = Alisa::builder().build();
        let wl = Workload::new(16, 64, 64);
        let (tuned, report) = a.optimized_for(&ModelConfig::opt_6_7b(), &wl);
        assert!(report.outcome.is_completed());
        assert!(tuned.plan.is_some());
        let again = tuned.simulate(&ModelConfig::opt_6_7b(), &wl);
        assert!((again.total_time() - report.total_time()).abs() < 1e-9);
    }

    #[test]
    fn functional_model_scales_concentration() {
        let a = Alisa::builder().build();
        let small = a.functional_model(&ModelConfig::opt_6_7b());
        let large = a.functional_model(&ModelConfig::opt_30b());
        assert!(
            large.init_spec().concentration > small.init_spec().concentration,
            "larger emulated models must be sharper (Figure 3)"
        );
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn builder_rejects_bad_sparsity() {
        let _ = Alisa::builder().kv_sparsity(1.5);
    }
}
