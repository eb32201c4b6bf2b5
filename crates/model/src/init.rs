//! Structured weight initialization (the trained-checkpoint substitute).
//!
//! Trained LLMs are unavailable offline, so the functional models are
//! *constructed* to exhibit the three attention statistics the paper
//! measures and exploits:
//!
//! 1. **Heavy hitters** — a fraction of the vocabulary ("anchor" tokens:
//!    think `capital`, `France` in the paper's §III-B example) receives a
//!    positive attention-logit *sink bias* from every query. In trained
//!    models this arises through key-projection biases; here the bias is
//!    attached per anchor token directly, which is the same additive
//!    logit term (see the `sink` term of `TinyTransformer::decode_step`'s
//!    attention logits).
//! 2. **Recency** — an ALiBi-style per-head distance penalty
//!    `-slope·(i-j)` concentrates mass on recent tokens.
//! 3. **Scale-dependent concentration** — attention logits are sharpened
//!    by a `concentration` factor that grows with the emulated model's
//!    parameter count, reproducing Figure 3's "larger LLMs exhibit
//!    higher sparsity".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the structured initializer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InitSpec {
    /// RNG seed; every weight is a deterministic function of this.
    pub seed: u64,
    /// Fraction of the vocabulary designated heavy-hitter anchors.
    pub anchor_fraction: f32,
    /// Sink-bias magnitude added to attention logits of anchor keys.
    pub anchor_strength: f32,
    /// ALiBi-style recency slope for the *first* head; later heads use
    /// geometrically-decaying slopes as in the ALiBi construction.
    pub recency_slope: f32,
    /// Multiplier on attention logits. Calibrated per emulated model
    /// scale via [`InitSpec::with_concentration_for_params`].
    pub concentration: f32,
    /// Standard deviation of random weight entries.
    pub weight_std: f32,
}

impl Default for InitSpec {
    /// Defaults calibrated against the paper's attention analyses:
    /// at these settings roughly 60% of a late decoding step's attention
    /// mass sits on (distant) anchor tokens and ~30% on the most recent
    /// ten — matching Figure 5's observation that "tokens with large
    /// attention weights are often far from the current token" — and a
    /// `tiny_*` model lands in the 80–95% attention-weight-sparsity band
    /// of Figure 3.
    fn default() -> Self {
        InitSpec {
            seed: 0x41_4c_49_53_41, // "ALISA"
            anchor_fraction: 0.05,
            anchor_strength: 6.0,
            recency_slope: 0.10,
            concentration: 1.6,
            weight_std: 0.35,
        }
    }
}

impl InitSpec {
    /// Returns a copy with the given seed (convenient in sweeps).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy whose `concentration` emulates a model of
    /// `params` parameters.
    ///
    /// Calibration: Figure 3 reports OPT-6.7B attention density around
    /// 3× that of OPT-30B. A logarithmic ramp in parameter count,
    /// anchored at 1.6 for ~7B and ~2.6 for ~30B, lands the measured
    /// sparsities in the paper's 80–99% band with the right ordering.
    pub fn with_concentration_for_params(mut self, params: u64) -> Self {
        let billions = (params as f64 / 1e9).max(0.1);
        self.concentration = (1.6 + 0.65 * (billions / 6.7).ln().max(-1.5)) as f32;
        self
    }

    /// Per-head ALiBi slopes: `slope · 2^{-head}` (head 0 is the most
    /// local; later heads attend increasingly globally).
    pub fn alibi_slopes(&self, num_heads: usize) -> Vec<f32> {
        (0..num_heads)
            .map(|h| self.recency_slope * 0.5f32.powi(h as i32))
            .collect()
    }

    /// Deterministic RNG for a named weight group, decorrelated from the
    /// other groups.
    pub fn rng_for(&self, group: &str) -> StdRng {
        let mut h = self.seed;
        for b in group.bytes() {
            h = h.wrapping_mul(0x100000001b3).wrapping_add(b as u64);
        }
        StdRng::seed_from_u64(h)
    }

    /// Gaussian-ish matrix entries (sum of uniforms) as a flat buffer.
    pub fn random_buffer(&self, group: &str, len: usize) -> Vec<f32> {
        let mut rng = self.rng_for(group);
        (0..len)
            .map(|_| {
                let u: f32 = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).sum();
                u * 0.5 * self.weight_std
            })
            .collect()
    }

    /// Which tokens of a `vocab_size` vocabulary are anchors: the first
    /// `anchor_fraction` of ids, deterministically. Workload generators
    /// know this layout and plant anchors the way real text plants
    /// topical nouns.
    pub fn anchor_count(&self, vocab_size: usize) -> usize {
        ((vocab_size as f32 * self.anchor_fraction).round() as usize).max(1)
    }

    /// Whether `token` is an anchor under this spec.
    pub fn is_anchor(&self, token: usize, vocab_size: usize) -> bool {
        token < self.anchor_count(vocab_size)
    }

    /// Sink bias for a token: `anchor_strength` for anchors (with a mild
    /// deterministic per-token variation so anchors are not all equal),
    /// 0 otherwise.
    pub fn sink_bias(&self, token: usize, vocab_size: usize) -> f32 {
        if self.is_anchor(token, vocab_size) {
            // Vary ±25% across anchors so heavy hitters have a ranking.
            let jitter = ((token * 2654435761) % 1000) as f32 / 1000.0;
            self.anchor_strength * (0.75 + 0.5 * jitter)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_reasonable() {
        let s = InitSpec::default();
        assert!(s.anchor_fraction > 0.0 && s.anchor_fraction < 0.5);
        assert!(s.anchor_strength > 0.0);
        assert!(s.concentration > 0.0);
    }

    #[test]
    fn concentration_grows_with_scale() {
        let base = InitSpec::default();
        let c7 = base
            .with_concentration_for_params(6_700_000_000)
            .concentration;
        let c13 = base
            .with_concentration_for_params(13_000_000_000)
            .concentration;
        let c30 = base
            .with_concentration_for_params(30_000_000_000)
            .concentration;
        assert!(c7 < c13 && c13 < c30, "{c7} {c13} {c30}");
        assert!((c7 - 1.6).abs() < 0.05, "anchored at ~1.6 for 6.7B");
    }

    #[test]
    fn alibi_slopes_decay_geometrically() {
        let s = InitSpec::default().alibi_slopes(4);
        assert_eq!(s.len(), 4);
        for w in s.windows(2) {
            assert!((w[1] - w[0] * 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn rng_is_deterministic_and_group_dependent() {
        let spec = InitSpec::default();
        let a1 = spec.random_buffer("wq.0", 16);
        let a2 = spec.random_buffer("wq.0", 16);
        let b = spec.random_buffer("wk.0", 16);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = InitSpec::default().random_buffer("x", 8);
        let b = InitSpec::default().with_seed(7).random_buffer("x", 8);
        assert_ne!(a, b);
    }

    #[test]
    fn anchors_are_prefix_of_vocab() {
        let spec = InitSpec::default();
        let n = spec.anchor_count(256);
        assert!(n >= 1);
        assert!(spec.is_anchor(0, 256));
        assert!(!spec.is_anchor(255, 256));
        assert!(spec.sink_bias(0, 256) > 0.0);
        assert_eq!(spec.sink_bias(255, 256), 0.0);
    }

    #[test]
    fn sink_bias_varies_across_anchors() {
        let spec = InitSpec::default();
        let n = spec.anchor_count(1024);
        assert!(n >= 3);
        let biases: Vec<f32> = (0..n).map(|t| spec.sink_bias(t, 1024)).collect();
        let distinct = biases
            .iter()
            .filter(|&&b| (b - biases[0]).abs() > 1e-6)
            .count();
        assert!(distinct > 0, "anchors must not all share one bias");
    }

    #[test]
    fn weight_buffer_statistics() {
        let spec = InitSpec::default();
        let buf = spec.random_buffer("stats", 10_000);
        let mean: f32 = buf.iter().sum::<f32>() / buf.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        let var: f32 = buf.iter().map(|x| x * x).sum::<f32>() / buf.len() as f32;
        assert!(var > 0.0);
    }
}
