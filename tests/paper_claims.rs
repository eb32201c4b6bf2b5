//! Executable checks of the paper's headline claims, at test-sized
//! scales. Each test names the claim and the paper section it comes
//! from. The figure binaries in `crates/bench` print the full-scale
//! numbers beside the paper's; a ledger comparing the two is an open
//! item in ROADMAP.md.

use alisa_attention::policy::PolicyKind;
use alisa_memsim::HardwareSpec;
use alisa_model::assoc::{AssocModel, AssocSpec};
use alisa_model::engine::{run_with_capture, GenerationConfig};
use alisa_model::{InitSpec, ModelConfig, TinyTransformer};
use alisa_sched::{
    AlisaScheduler, DeepSpeedZeroScheduler, GpuOnlyScheduler, InferenceSystem, VllmScheduler,
    Workload,
};
use alisa_tensor::stats::causal_attention_sparsity;
use alisa_workloads::{evaluate_qa, Dataset, QaTask};

/// §III-B / Figure 3: attention weights are highly sparse, and larger
/// models are sparser.
#[test]
fn claim_attention_is_sparse_and_scales() {
    let mut means = Vec::new();
    for params in [6_700_000_000u64, 30_000_000_000] {
        let init = InitSpec::default().with_concentration_for_params(params);
        let model = TinyTransformer::structured(ModelConfig::tiny_4l(), init);
        let corpus = Dataset::WikiText2.spec(
            model.config().vocab_size,
            init.anchor_count(model.config().vocab_size),
        );
        let tokens = corpus.sequence(0, 160);
        let cap = run_with_capture(&model, &tokens, &GenerationConfig::default());
        let mean: f32 = (0..model.config().num_layers)
            .map(|l| causal_attention_sparsity(&cap.layer_map(l), 0.01, 8))
            .sum::<f32>()
            / model.config().num_layers as f32;
        means.push(mean);
    }
    assert!(
        means[0] > 0.7,
        "6.7B-scale sparsity {:.2} too low",
        means[0]
    );
    assert!(
        means[1] > means[0],
        "30B-scale must be sparser: {:.2} vs {:.2}",
        means[1],
        means[0]
    );
}

/// §VI-B / Figure 8: at 80% KV sparsity, SWA retains QA accuracy where
/// strided attention collapses.
#[test]
fn claim_swa_retains_qa_accuracy_at_80pct() {
    let model = AssocModel::build(&AssocSpec::default());
    let eps = QaTask::Copa.spec().episodes(&model, 12);
    let swa = evaluate_qa(
        &model,
        &eps,
        &GenerationConfig::default().with_policy(PolicyKind::Swa, 0.8),
    );
    let strided = evaluate_qa(
        &model,
        &eps,
        &GenerationConfig::default().with_policy(PolicyKind::Strided, 0.8),
    );
    assert!(swa.accuracy >= 0.8, "SWA accuracy {}", swa.accuracy);
    assert!(
        swa.accuracy > strided.accuracy,
        "SWA {} must beat strided {}",
        swa.accuracy,
        strided.accuracy
    );
}

/// §II-A / Figure 2(c): KV caching keeps decode-step time flat; without
/// it the step time grows with the sequence.
#[test]
fn claim_kv_caching_flattens_step_time() {
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_32gb();
    let wl = Workload::new(4, 32, 128);
    let cached = GpuOnlyScheduler::with_kv_cache().run(&model, &hw, &wl);
    let uncached = GpuOnlyScheduler::without_kv_cache().run(&model, &hw, &wl);
    let c = cached.timeline.records();
    let u = uncached.timeline.records();
    let c_growth = c[128].total_time() / c[1].total_time();
    let u_growth = u[128].total_time() / u[1].total_time();
    assert!(c_growth < 1.3, "cached growth {c_growth:.2}");
    assert!(
        u_growth > c_growth + 0.5,
        "uncached growth {u_growth:.2} must clearly exceed cached {c_growth:.2}"
    );
}

/// §VI-C / Figure 9: DeepSpeed-ZeRO OOMs at large batch; ALISA completes
/// and outperforms it where both complete.
#[test]
fn claim_zero_ooms_where_alisa_survives() {
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    let big = Workload::alpaca(64);
    let zero = DeepSpeedZeroScheduler.run(&model, &hw, &big);
    assert!(!zero.outcome.is_completed(), "ZeRO should OOM at b=64");
    let alisa = AlisaScheduler::new(0.8, true).run(&model, &hw, &big);
    assert!(alisa.outcome.is_completed(), "{}", alisa.summary());

    let small = Workload::new(8, 128, 64);
    let zero_s = DeepSpeedZeroScheduler.run(&model, &hw, &small);
    let alisa_s = AlisaScheduler::new(0.8, true).run(&model, &hw, &small);
    assert!(zero_s.outcome.is_completed());
    assert!(alisa_s.throughput() > zero_s.throughput());
}

/// §VI-C: vLLM outperforms ALISA at small batch (fits on GPU, fused
/// kernels); ALISA wins at large batch.
#[test]
fn claim_vllm_small_batch_alisa_large_batch() {
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    let small = Workload::new(4, 128, 128);
    let v_small = VllmScheduler.run(&model, &hw, &small);
    let a_small = AlisaScheduler::new(0.8, true).run(&model, &hw, &small);
    assert!(
        v_small.throughput() > a_small.throughput(),
        "vLLM must win at b=4: {:.0} vs {:.0}",
        v_small.throughput(),
        a_small.throughput()
    );

    let large = Workload::new(64, 128, 256);
    let v_large = VllmScheduler.run(&model, &hw, &large);
    let a_large = AlisaScheduler::new(0.8, true).run(&model, &hw, &large);
    assert!(
        a_large.throughput() > v_large.throughput(),
        "ALISA must win at b=64: {:.0} vs {:.0}",
        a_large.throughput(),
        v_large.throughput()
    );
}

/// §V-A / Figure 12(b): recomputation reduces total execution time in
/// the memory-pressured regime.
#[test]
fn claim_recomputation_pays_off() {
    let model = ModelConfig::opt_30b();
    let hw = HardwareSpec::h100_80gb();
    let wl = Workload::new(64, 128, 256);
    let on = AlisaScheduler::new(0.4, true).run(&model, &hw, &wl);
    let off = AlisaScheduler::new(0.4, true)
        .without_recompute()
        .run(&model, &hw, &wl);
    assert!(on.outcome.is_completed() && off.outcome.is_completed());
    assert!(
        on.total_time() < off.total_time(),
        "recompute ON {:.1}s must beat OFF {:.1}s",
        on.total_time(),
        off.total_time()
    );
}

/// Figure 1: the b=64, s=512, n=512 workload OOMs GPU-only on a 32 GB
/// V100 but completes under ALISA.
#[test]
fn claim_fig1_oom_resolved_by_alisa() {
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_32gb();
    let wl = Workload::fig1_workload2();
    let gpu_only = GpuOnlyScheduler::with_kv_cache().run(&model, &hw, &wl);
    assert!(!gpu_only.outcome.is_completed());
    let alisa = AlisaScheduler::new(0.8, true).run(&model, &hw, &wl);
    assert!(alisa.outcome.is_completed(), "{}", alisa.summary());
}
