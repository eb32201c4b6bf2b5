//! Offline batch inference on Alpaca-like prompts with a *real*
//! (executable) transformer: generate with dense attention, then with
//! ALISA's Sparse Window Attention, and compare outputs and KV usage.
//!
//! ```sh
//! cargo run --release --example offline_batch_inference
//! ```

use alisa::Alisa;
use alisa_attention::policy::PolicyKind;
use alisa_model::engine::{generate, GenerationConfig};
use alisa_model::ModelConfig;
use alisa_workloads::Dataset;

fn main() {
    let alisa = Alisa::builder().kv_sparsity(0.7).build();
    // A laptop-scale functional model whose attention statistics emulate
    // OPT-6.7B.
    let model = alisa.functional_model(&ModelConfig::opt_6_7b());
    let spec = model.init_spec();
    let corpus = Dataset::Alpaca.spec(
        model.config().vocab_size,
        spec.anchor_count(model.config().vocab_size),
    );

    let batch = 4;
    let prompt_len = 48;
    let new_tokens = 32;
    println!(
        "batch of {batch} Alpaca-like prompts ({prompt_len} tokens) -> {new_tokens} new tokens\n"
    );

    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..batch {
        let prompt = corpus.sequence(i, prompt_len);
        let dense = generate(
            &model,
            &prompt,
            &GenerationConfig {
                max_new_tokens: new_tokens,
                ..GenerationConfig::default()
            },
        );
        let swa_cfg = GenerationConfig {
            max_new_tokens: new_tokens,
            ..alisa.generation_config()
        };
        let swa = generate(&model, &prompt, &swa_cfg);
        // Greedy decoding diverges permanently after one differing
        // token, so the meaningful fidelity metric is the length of the
        // shared prefix.
        let prefix = dense
            .tokens
            .iter()
            .zip(&swa.tokens)
            .take_while(|(a, b)| a == b)
            .count();
        agree += prefix;
        total += new_tokens;
        println!(
            "seq {i}: dense kept all {} tokens/step; SWA kept {:.1} avg; shared prefix {}/{}",
            prompt_len + new_tokens,
            swa.mean_kept,
            prefix,
            new_tokens
        );
    }
    println!(
        "\nmean greedy shared-prefix dense vs SWA@70%: {:.0}% of the continuation\n\
         (KV footprint ~30% of dense; teacher-forced fidelity is what Figure 8 scores)",
        100.0 * agree as f64 / total as f64
    );

    // The builder's default is full ALISA, INT8 KV compression on top:
    let prompt = corpus.sequence(0, prompt_len);
    let gen = generate(
        &model,
        &prompt,
        &GenerationConfig {
            max_new_tokens: new_tokens,
            ..alisa.generation_config()
        },
    );
    println!(
        "with INT8 KV compression: generated {} tokens, mean kept {:.1} ({})",
        gen.tokens.len(),
        gen.mean_kept,
        PolicyKind::Swa
    );
}
