//! Design-choice ablations beyond the paper's figures:
//!
//! 1. **Local/global budget split** — the paper fixes an even split
//!    (Algorithm 1); we sweep the local fraction from pure heavy-hitter
//!    selection (0.0) to pure recency (1.0).
//! 2. **History depth** — how many preceding steps feed the local
//!    attention sum (the paper's "multiple preceding steps" hypothesis).
//! 3. **INT8 vs INT4 KV compression** — the paper cites \[14\] for OPT
//!    surviving INT4; we measure both accuracy and traffic.
//! 4. **Offload-order quality vs the Belady oracle** — §III-C cites
//!    Belady as the impractical optimum; we measure how close ALISA's
//!    oldest-first heuristic gets on realistic working-set traces.

use alisa_attention::policy::PolicyKind;
use alisa_bench::{banner, f, row};
use alisa_kvcache::policies::{belady_misses, simulate_misses, EvictionOrder};
use alisa_model::assoc::{AssocModel, AssocSpec};
use alisa_model::engine::GenerationConfig;
use alisa_model::{InitSpec, ModelConfig, TinyTransformer};
use alisa_sched::alisa::GlobalSetModel;
use alisa_tensor::quant::QuantBits;
use alisa_workloads::{evaluate_qa, score_lm, Dataset, QaTask, TeacherTexts};

fn main() {
    let quick = alisa_bench::quick_mode();
    banner(
        "Ablations",
        "SWA design choices (beyond the paper's figures)",
    );
    let (num_seqs, prompt_len, seq_len) = if quick { (2, 8, 64) } else { (3, 16, 160) };
    let episodes_n = if quick { 8 } else { 24 };

    let init = InitSpec::default().with_concentration_for_params(13_000_000_000);
    let model = TinyTransformer::structured(ModelConfig::tiny_4l(), init);
    let corpus = Dataset::WikiText2.spec(
        model.config().vocab_size,
        init.anchor_count(model.config().vocab_size),
    );
    // Every LM row below scores the same dense teacher text.
    let teacher = TeacherTexts::generate(&model, &corpus, num_seqs, prompt_len, seq_len);
    let assoc = AssocModel::build(&AssocSpec::default());
    let qa_eps = QaTask::OpenBookQa.spec().episodes(&assoc, episodes_n);

    // ---- 1. local/global split at 80% KV sparsity.
    println!("\n--- local/global budget split (KV sparsity 80%) ---");
    row("local fraction", ["LM perplexity", "QA accuracy"]);
    for frac in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
        // The policy enum always uses the even split; sweep via a direct
        // policy is functional-path only, so emulate with Local (1.0)
        // and H2O-ish extremes through the split-capable SWA.
        let cfg = GenerationConfig {
            swa_local_fraction: frac,
            ..GenerationConfig::default().with_policy(PolicyKind::Swa, 0.8)
        };
        let lm = score_lm(&model, &teacher, &cfg);
        let qa = evaluate_qa(&assoc, &qa_eps, &cfg);
        row(
            &format!("{frac:.2}"),
            [f(lm.perplexity as f64), f(qa.accuracy as f64)],
        );
    }
    println!("paper's choice: 0.50 (even split, Algorithm 1)");

    // ---- 2. history depth.
    println!("\n--- local-attention-sum history depth (KV sparsity 80%) ---");
    row("depth", ["LM perplexity", "QA accuracy"]);
    for depth in [1usize, 2, 4, 8, 16] {
        let cfg = GenerationConfig {
            history_depth: depth,
            ..GenerationConfig::default().with_policy(PolicyKind::Swa, 0.8)
        };
        let lm = score_lm(&model, &teacher, &cfg);
        let qa = evaluate_qa(&assoc, &qa_eps, &cfg);
        row(
            &depth.to_string(),
            [f(lm.perplexity as f64), f(qa.accuracy as f64)],
        );
    }
    println!("depth 1 = single-step hints; the paper hypothesizes multi-step is better (§IV-B)");

    // ---- 3. INT8 vs INT4 KV compression.
    println!("\n--- KV compression precision (SWA @ 60% sparsity) ---");
    row("precision", ["LM perplexity", "QA accuracy", "bytes/elem"]);
    for (label, quant) in [
        ("FP16 (none)", None),
        ("INT8", Some(QuantBits::Int8)),
        ("INT4", Some(QuantBits::Int4)),
    ] {
        let cfg = GenerationConfig {
            kv_quant: quant,
            ..GenerationConfig::default().with_policy(PolicyKind::Swa, 0.6)
        };
        let lm = score_lm(&model, &teacher, &cfg);
        let qa = evaluate_qa(&assoc, &qa_eps, &cfg);
        let bytes = match quant {
            None => "2".to_string(),
            Some(q) => format!("{:.1}", q.bits() as f32 / 8.0),
        };
        row(
            label,
            [f(lm.perplexity as f64), f(qa.accuracy as f64), bytes],
        );
    }

    // ---- 4. eviction order vs the Belady oracle on SWA working-set
    // traces from the performance model.
    println!("\n--- CPU-offload policy vs Belady oracle (miss counts) ---");
    let globals = GlobalSetModel::new(42);
    let steps = if quick { 64 } else { 256 };
    let trace: Vec<Vec<usize>> = (1..steps)
        .map(|j| {
            let seq = 128 + j;
            globals.pick(12, seq - 13, j, seq)
        })
        .collect();
    row("cache capacity", ["oldest-first", "newest-first", "belady"]);
    for cap in [8usize, 16, 32] {
        let fifo = simulate_misses(&trace, cap, EvictionOrder::OldestFirst);
        let anti = simulate_misses(&trace, cap, EvictionOrder::NewestFirst);
        let opt = belady_misses(&trace, cap);
        row(
            &cap.to_string(),
            [fifo.to_string(), anti.to_string(), opt.to_string()],
        );
    }
    println!("oldest-first tracks the oracle closely on drifting heavy-hitter traces (§III-C)");
}
