//! Model-architecture configurations.
//!
//! Carries the true dimensions of every model in the paper's evaluation
//! (§VI-A): OPT-6.7B/13B/30B, LLaMA-7B/13B/33B, Pythia-6.9B/12B. The
//! performance path prices memory and compute straight off these
//! numbers; the functional path instantiates the `tiny_*` presets.

use serde::{Deserialize, Serialize};

/// Which published model family a configuration describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelFamily {
    /// Meta's OPT family \[42\].
    Opt,
    /// Meta's LLaMA family \[34\].
    Llama,
    /// EleutherAI's Pythia family \[4\].
    Pythia,
    /// Laptop-scale functional models used for accuracy experiments.
    Synthetic,
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelFamily::Opt => write!(f, "OPT"),
            ModelFamily::Llama => write!(f, "LLaMA"),
            ModelFamily::Pythia => write!(f, "Pythia"),
            ModelFamily::Synthetic => write!(f, "Synthetic"),
        }
    }
}

/// A decoder-only transformer architecture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Display name, e.g. `"OPT-6.7B"`.
    pub name: String,
    /// Model family.
    pub family: ModelFamily,
    /// Number of transformer layers `l`.
    pub num_layers: usize,
    /// Hidden dimension `h`.
    pub hidden_dim: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// FFN inner dimension.
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Maximum context length.
    pub max_context: usize,
}

impl ModelConfig {
    // ----- paper models (real dimensions) --------------------------------

    /// OPT-6.7B: 32 layers, 4096 hidden, 32 heads (paper Figure 11 quotes
    /// `[4096, 32]`).
    pub fn opt_6_7b() -> Self {
        Self::paper("OPT-6.7B", ModelFamily::Opt, 32, 4096, 32, 16384, 50272)
    }

    /// OPT-13B: 40 layers, 5120 hidden, 40 heads.
    pub fn opt_13b() -> Self {
        Self::paper("OPT-13B", ModelFamily::Opt, 40, 5120, 40, 20480, 50272)
    }

    /// OPT-30B: 48 layers, 7168 hidden, 56 heads (paper quotes
    /// `[7168, 56]`).
    pub fn opt_30b() -> Self {
        Self::paper("OPT-30B", ModelFamily::Opt, 48, 7168, 56, 28672, 50272)
    }

    /// LLaMA-7B: 32 layers, 4096 hidden, 32 heads.
    pub fn llama_7b() -> Self {
        Self::paper("LLaMA-7B", ModelFamily::Llama, 32, 4096, 32, 11008, 32000)
    }

    /// LLaMA-13B: 40 layers, 5120 hidden, 40 heads.
    pub fn llama_13b() -> Self {
        Self::paper("LLaMA-13B", ModelFamily::Llama, 40, 5120, 40, 13824, 32000)
    }

    /// LLaMA-33B: 60 layers, 6656 hidden, 52 heads.
    pub fn llama_33b() -> Self {
        Self::paper("LLaMA-33B", ModelFamily::Llama, 60, 6656, 52, 17920, 32000)
    }

    /// Pythia-6.9B (the paper rounds to "6.7B"): 32 layers, 4096 hidden.
    pub fn pythia_6_9b() -> Self {
        Self::paper(
            "Pythia-6.9B",
            ModelFamily::Pythia,
            32,
            4096,
            32,
            16384,
            50304,
        )
    }

    /// Pythia-12B: 36 layers, 5120 hidden, 40 heads.
    pub fn pythia_12b() -> Self {
        Self::paper(
            "Pythia-12B",
            ModelFamily::Pythia,
            36,
            5120,
            40,
            20480,
            50304,
        )
    }

    /// Every paper model, in the order of Figures 8 and 9.
    pub fn paper_models() -> Vec<ModelConfig> {
        vec![
            Self::opt_6_7b(),
            Self::opt_13b(),
            Self::opt_30b(),
            Self::llama_7b(),
            Self::llama_13b(),
            Self::llama_33b(),
            Self::pythia_6_9b(),
            Self::pythia_12b(),
        ]
    }

    fn paper(
        name: &str,
        family: ModelFamily,
        num_layers: usize,
        hidden_dim: usize,
        num_heads: usize,
        ffn_dim: usize,
        vocab_size: usize,
    ) -> Self {
        ModelConfig {
            name: name.to_string(),
            family,
            num_layers,
            hidden_dim,
            num_heads,
            ffn_dim,
            vocab_size,
            max_context: 2048,
        }
    }

    // ----- functional (laptop-scale) models ------------------------------

    /// Two-layer functional model: the quickest substrate for unit tests.
    pub fn tiny_2l() -> Self {
        Self::tiny("tiny-2l", 2, 32, 2, 128)
    }

    /// Four-layer functional model used by most accuracy experiments.
    pub fn tiny_4l() -> Self {
        Self::tiny("tiny-4l", 4, 64, 4, 256)
    }

    /// Custom functional model.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads`.
    pub fn tiny(name: &str, layers: usize, hidden: usize, heads: usize, vocab: usize) -> Self {
        assert!(
            heads > 0 && hidden > 0 && hidden.is_multiple_of(heads),
            "hidden_dim must divide into heads (and both must be positive)"
        );
        ModelConfig {
            name: name.to_string(),
            family: ModelFamily::Synthetic,
            num_layers: layers,
            hidden_dim: hidden,
            num_heads: heads,
            ffn_dim: hidden * 4,
            vocab_size: vocab,
            max_context: 4096,
        }
    }

    // ----- derived quantities --------------------------------------------

    /// Per-head dimension `h / heads`.
    pub fn head_dim(&self) -> usize {
        self.hidden_dim / self.num_heads
    }

    /// Approximate parameter count: embeddings + per-layer attention
    /// (4h²) and FFN — two projection matrices for OPT/Pythia, three for
    /// LLaMA's gated SiLU FFN. Within ~10% of published sizes for every
    /// paper model.
    pub fn params(&self) -> u64 {
        let h = self.hidden_dim as u64;
        let l = self.num_layers as u64;
        let f = self.ffn_dim as u64;
        let v = self.vocab_size as u64;
        let ffn_mats = if self.family == ModelFamily::Llama {
            3
        } else {
            2
        };
        v * h + l * (4 * h * h + ffn_mats * h * f)
    }

    /// Bytes of model weights at `bytes_per_elem` precision (paper runs
    /// FP16, so 2).
    pub fn weight_bytes(&self, bytes_per_elem: usize) -> u64 {
        self.params() * bytes_per_elem as u64
    }

    /// KV-cache bytes *per token per sequence*: `2 · l · h ·
    /// bytes_per_elem` — K and V, every layer. The paper's Eq. 3 writes
    /// the FP16 case as `4 · b · l · h` bytes for a batch of `b`.
    pub fn kv_bytes_per_token(&self, bytes_per_elem: usize) -> u64 {
        2 * (self.num_layers * self.hidden_dim * bytes_per_elem) as u64
    }

    /// Approximate activation workspace bytes per sequence during
    /// decoding (a few live `h`- and `ffn`-wide buffers per layer
    /// pipeline stage; the paper keeps activations in GPU).
    pub fn activation_bytes_per_seq(&self, bytes_per_elem: usize) -> u64 {
        (4 * self.hidden_dim + 2 * self.ffn_dim) as u64 * bytes_per_elem as u64
    }
}

impl std::fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} layers, h={}, {} heads, {:.1}B params)",
            self.name,
            self.num_layers,
            self.hidden_dim,
            self.num_heads,
            self.params() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_param_counts_are_close() {
        // Published sizes: 6.7B, 13B, 30B, 6.7/7B, 13B, 32.5B, 6.9B, 11.8B.
        let within = |cfg: ModelConfig, expect_b: f64, tol: f64| {
            let got = cfg.params() as f64 / 1e9;
            assert!(
                (got - expect_b).abs() / expect_b < tol,
                "{}: got {:.2}B, expected ~{:.1}B",
                cfg.name,
                got,
                expect_b
            );
        };
        within(ModelConfig::opt_6_7b(), 6.7, 0.10);
        within(ModelConfig::opt_13b(), 13.0, 0.10);
        within(ModelConfig::opt_30b(), 30.0, 0.10);
        within(ModelConfig::llama_7b(), 6.7, 0.10);
        within(ModelConfig::llama_13b(), 13.0, 0.10);
        within(ModelConfig::llama_33b(), 32.5, 0.10);
        within(ModelConfig::pythia_6_9b(), 6.9, 0.10);
        within(ModelConfig::pythia_12b(), 11.8, 0.10);
    }

    #[test]
    fn kv_bytes_match_paper_formula() {
        // Paper §V-A: "With FP16 format, the size of KV tensors for each
        // token is 4·b·l·h bytes" — for b=1: 4·l·h.
        let cfg = ModelConfig::opt_6_7b();
        assert_eq!(
            cfg.kv_bytes_per_token(2),
            4 * cfg.num_layers as u64 * cfg.hidden_dim as u64
        );
    }

    #[test]
    fn opt_13b_kv_example_from_paper() {
        // §III-A: OPT-13B, seq 512, batch 64 ⇒ more than 25 GB of KV.
        let cfg = ModelConfig::opt_13b();
        let total = cfg.kv_bytes_per_token(2) * 512 * 64;
        let gib = total as f64 / (1u64 << 30) as f64;
        assert!(gib > 24.0 && gib < 27.0, "got {gib:.1} GiB");
        // …which exceeds the model weight size (~23 GB in the paper).
        assert!(total > cfg.weight_bytes(2) * 95 / 100);
    }

    #[test]
    fn head_dim_divides() {
        for cfg in ModelConfig::paper_models() {
            assert_eq!(cfg.head_dim() * cfg.num_heads, cfg.hidden_dim);
        }
    }

    #[test]
    fn tiny_models_are_small_and_valid() {
        for cfg in [ModelConfig::tiny_2l(), ModelConfig::tiny_4l()] {
            assert_eq!(cfg.family, ModelFamily::Synthetic);
            assert!(cfg.params() < 10_000_000);
            assert_eq!(cfg.hidden_dim % cfg.num_heads, 0);
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn tiny_rejects_bad_head_split() {
        let _ = ModelConfig::tiny("bad", 1, 30, 4, 64);
    }

    #[test]
    fn display_contains_name_and_params() {
        let s = ModelConfig::opt_30b().to_string();
        assert!(s.contains("OPT-30B"));
        assert!(s.contains("layers"));
    }
}
