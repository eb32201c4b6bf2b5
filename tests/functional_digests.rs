//! The functional path's numbers, pinned bit for bit by digest.
//!
//! Every figure of the accuracy side (Figs. 3, 4, 5, 8, 10 and the
//! ablations) runs `TinyTransformer::decode_step` through the engine's
//! loops, and prints rounded summaries of what comes out. This test pins
//! the unrounded values in `tests/golden/functional_digests.txt`: one
//! line per run with its name and an FNV-1a-64 over the bits of every
//! logit, NLL and captured attention row the run produces.
//!
//! The grid is dense attention at KV sparsity 0 and the four sparse
//! policies at 0.8, with the KV rows stored at full precision, INT8 and
//! INT4, on four models:
//! `tiny_2l`, `tiny_4l`, the default associative-retrieval model and an
//! odd-width model (`hidden_dim` 36, vocabulary 100) whose projections
//! are not multiples of 16 wide. Each configuration makes four runs:
//!
//! * `greedy` and `sampled`: `generate` from a short prompt; the line
//!   hashes the emitted tokens, the mean kept-set size, and the logits
//!   of every step, recovered by replaying the prompt and the emitted
//!   tokens through `decode_step` under the same step policies;
//! * `score`: `score_sequence` over a fixed text, hashing every NLL;
//! * `capture`: `run_with_capture` over the same text, hashing every
//!   attention row of every layer.
//!
//! The other pairs add no bits: dense ignores its budget, and at
//! sparsity 0 every policy keeps every token, so those runs equal
//! dense's digest for digest (all 480 lines of the full grid were
//! compared when it was cut to this one). The sequences are short
//! enough that the debug build checks the 240 runs in a few seconds,
//! and long enough that the 80% budget binds (from the fifth token on).

use alisa_attention::policy::PolicyKind;
use alisa_model::assoc::{AssocModel, AssocSpec};
use alisa_model::engine::{generate, run_with_capture, score_sequence, GenerationConfig};
use alisa_model::{InitSpec, ModelConfig, TinyTransformer};
use alisa_tensor::quant::QuantBits;

/// Tokens of the scored and captured text.
const TEXT_LEN: usize = 20;
/// Prompt tokens of the generate runs.
const PROMPT_LEN: usize = 6;
/// Tokens each generate run emits.
const NEW_TOKENS: usize = 8;

/// The pinned models, with the names their lines carry.
fn models() -> Vec<(&'static str, TinyTransformer)> {
    vec![
        (
            "tiny-2l",
            TinyTransformer::structured(ModelConfig::tiny_2l(), InitSpec::default()),
        ),
        (
            "tiny-4l",
            TinyTransformer::structured(ModelConfig::tiny_4l(), InitSpec::default()),
        ),
        (
            "assoc",
            AssocModel::build(&AssocSpec::default()).model().clone(),
        ),
        (
            "odd",
            TinyTransformer::structured(
                ModelConfig::tiny("odd", 2, 36, 3, 100),
                InitSpec::default(),
            ),
        ),
    ]
}

/// The policy and KV sparsity pairs, dense first.
fn policies() -> [(PolicyKind, f32); 5] {
    [
        (PolicyKind::Dense, 0.0),
        (PolicyKind::Local, 0.8),
        (PolicyKind::Strided, 0.8),
        (PolicyKind::Swa, 0.8),
        (PolicyKind::H2o, 0.8),
    ]
}

/// The KV storage precisions, with their labels.
fn precisions() -> [(&'static str, Option<QuantBits>); 3] {
    [
        ("fp", None),
        ("int8", Some(QuantBits::Int8)),
        ("int4", Some(QuantBits::Int4)),
    ]
}

/// A fixed token string over the model's vocabulary that visits ids
/// across the whole range.
fn text(vocab: usize, len: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 37 + 11) % vocab).collect()
}

/// 64-bit FNV-1a, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f32]) {
        for x in xs {
            self.word(u64::from(x.to_bits()));
        }
    }
}

/// `generate`'s emitted tokens and mean kept-set size, then the logits
/// of every step it took, replayed through `decode_step`.
fn generate_digest(model: &TinyTransformer, prompt: &[usize], cfg: &GenerationConfig) -> u64 {
    let out = generate(model, prompt, cfg);
    let mut h = Fnv::new();
    for &t in &out.tokens {
        h.word(t as u64);
    }
    h.word(u64::from(out.mean_kept.to_bits()));
    let mut state = model.new_state(cfg.history_depth);
    for &t in prompt.iter().chain(&out.tokens) {
        let policy = cfg.step_policy(state.seq_len() + 1);
        h.floats(&model.decode_step(t, &mut state, policy).logits);
    }
    h.0
}

/// One line per (model, policy, sparsity, precision, run), in that
/// nesting.
fn lines() -> String {
    let mut out = String::new();
    for (model_name, model) in &models() {
        let vocab = model.config().vocab_size;
        let tokens = text(vocab, TEXT_LEN);
        let prompt = &tokens[..PROMPT_LEN];
        for (policy, sparsity) in policies() {
            for (label, kv_quant) in precisions() {
                let cfg = GenerationConfig {
                    kv_quant,
                    max_new_tokens: NEW_TOKENS,
                    ..GenerationConfig::default().with_policy(policy, sparsity)
                };
                let sampled = GenerationConfig {
                    greedy: false,
                    temperature: 0.9,
                    seed: 3,
                    ..cfg
                };
                let mut runs = vec![
                    ("greedy", generate_digest(model, prompt, &cfg)),
                    ("sampled", generate_digest(model, prompt, &sampled)),
                ];
                let mut h = Fnv::new();
                h.floats(&score_sequence(model, &tokens, 1, &cfg).nll);
                runs.push(("score", h.0));
                let mut h = Fnv::new();
                for step in run_with_capture(model, &tokens, &cfg).rows {
                    for row in step {
                        h.floats(&row);
                    }
                }
                runs.push(("capture", h.0));
                for (run, digest) in runs {
                    out.push_str(&format!(
                        "{model_name}/{}/sp{sparsity}/{label}/{run} {digest:016x}\n",
                        policy.label()
                    ));
                }
            }
        }
    }
    out
}

fn golden_path() -> String {
    format!(
        "{}/tests/golden/functional_digests.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

const HEADER: &str = "# run, FNV-1a-64 of every logit, NLL and attention row's bits; \
                      regenerate with `cargo test --test functional_digests -- --ignored`\n";

#[test]
fn every_functional_run_matches_its_digest() {
    let golden = std::fs::read_to_string(golden_path()).expect("missing functional_digests.txt");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let got = lines();
    let got: Vec<&str> = got.lines().collect();
    assert_eq!(got.len(), want.len(), "run count changed");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g, w,
            "run drifted from the committed digest \
             (regenerate with `cargo test --test functional_digests -- --ignored` if intentional)"
        );
    }
}

/// Rewrites `tests/golden/functional_digests.txt` from the current
/// implementation. Ignored so a normal test run can never bless its own
/// regression; run explicitly after an intentional output change:
/// `cargo test --test functional_digests -- --ignored`.
#[test]
#[ignore]
fn regenerate_functional_digests() {
    std::fs::write(golden_path(), format!("{HEADER}{}", lines())).expect("write digest fixture");
}
