//! Cross-crate integration tests: the full pipeline from corpus to
//! generation to simulation, exercised through the public `alisa` API.

use alisa::{AblationLevel, Alisa};
use alisa_attention::policy::PolicyKind;
use alisa_memsim::HardwareSpec;
use alisa_model::engine::{generate, score_sequence, GenerationConfig};
use alisa_model::ModelConfig;
use alisa_sched::{FlexGenScheduler, InferenceSystem, Workload};
use alisa_workloads::Dataset;

#[test]
fn functional_generation_under_every_policy() {
    let alisa = Alisa::builder().kv_sparsity(0.6).build();
    let model = alisa.functional_model(&ModelConfig::opt_6_7b());
    let spec = model.init_spec();
    let corpus = Dataset::WikiText2.spec(
        model.config().vocab_size,
        spec.anchor_count(model.config().vocab_size),
    );
    let prompt = corpus.sequence(0, 32);
    for kind in PolicyKind::ALL {
        let cfg = GenerationConfig {
            max_new_tokens: 12,
            ..GenerationConfig::default().with_policy(kind, 0.6)
        };
        let out = generate(&model, &prompt, &cfg);
        assert_eq!(out.tokens.len(), 12, "{kind} must emit all tokens");
        assert!(
            out.tokens.iter().all(|&t| t < model.config().vocab_size),
            "{kind} emitted out-of-vocab tokens"
        );
    }
}

#[test]
fn simulation_and_functional_paths_share_configuration() {
    let alisa = Alisa::builder().kv_sparsity(0.8).build();
    // Performance path.
    let report = alisa.simulate(&ModelConfig::opt_6_7b(), &Workload::new(8, 64, 32));
    assert!(report.outcome.is_completed());
    // Functional path under the same configuration.
    let model = alisa.functional_model(&ModelConfig::opt_6_7b());
    let cfg = alisa.generation_config();
    let tokens: Vec<usize> = (0..48)
        .map(|i| (i * 7) % model.config().vocab_size)
        .collect();
    let score = score_sequence(&model, &tokens, 1, &cfg);
    assert!(score.perplexity().is_finite());
}

#[test]
fn ablation_levels_are_ordered_on_heavy_workloads() {
    // On a memory-pressured workload the full stack must not lose to
    // the ablated variants (Figure 12(c)'s ordering).
    let model = ModelConfig::opt_6_7b();
    let wl = Workload::new(32, 128, 128);
    let hw = HardwareSpec::v100_16gb();
    let mut throughputs = Vec::new();
    for level in AblationLevel::ALL {
        let a = Alisa::builder()
            .kv_sparsity(0.8)
            .hardware(hw.clone())
            .ablation(level)
            .build();
        let r = a.simulate(&model, &wl);
        assert!(
            r.outcome.is_completed(),
            "{}: {}",
            level.label(),
            r.summary()
        );
        throughputs.push(r.throughput());
    }
    assert!(
        throughputs[2] >= throughputs[0],
        "full ALISA ({:.0}) must beat SWA-only ({:.0})",
        throughputs[2],
        throughputs[0]
    );
}

#[test]
fn alisa_beats_flexgen_under_memory_pressure() {
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    let wl = Workload::new(32, 128, 256);
    let alisa = Alisa::builder()
        .kv_sparsity(0.8)
        .hardware(hw.clone())
        .build();
    let a = alisa.simulate(&model, &wl);
    let fg = FlexGenScheduler::new().run(&model, &hw, &wl);
    assert!(a.outcome.is_completed() && fg.outcome.is_completed());
    assert!(
        a.throughput() > fg.throughput(),
        "ALISA {:.0} tok/s must beat FlexGen {:.0} tok/s here",
        a.throughput(),
        fg.throughput()
    );
}

#[test]
fn quantized_run_reduces_cpu_footprint() {
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    let wl = Workload::new(32, 128, 256);
    // `Full` is `SwaDynamicSched` plus INT8 KV compression.
    let at = |level| {
        Alisa::builder()
            .kv_sparsity(0.8)
            .hardware(hw.clone())
            .ablation(level)
            .build()
            .simulate(&model, &wl)
    };
    let plain = at(AblationLevel::SwaDynamicSched);
    let compressed = at(AblationLevel::Full);
    assert!(
        compressed.timeline.peak_cpu_mem() < plain.timeline.peak_cpu_mem(),
        "INT8 must halve CPU-resident KV bytes"
    );
}

#[test]
fn determinism_across_runs() {
    let alisa = Alisa::builder().kv_sparsity(0.8).build();
    let wl = Workload::new(8, 64, 64);
    let a = alisa.simulate(&ModelConfig::llama_7b(), &wl);
    let b = alisa.simulate(&ModelConfig::llama_7b(), &wl);
    assert_eq!(a.timeline, b.timeline, "simulation must be deterministic");

    let m = alisa.functional_model(&ModelConfig::llama_7b());
    let cfg = GenerationConfig {
        max_new_tokens: 8,
        ..alisa.generation_config()
    };
    let g1 = generate(&m, &[1, 2, 3, 4], &cfg);
    let g2 = generate(&m, &[1, 2, 3, 4], &cfg);
    assert_eq!(g1.tokens, g2.tokens, "generation must be deterministic");
}
