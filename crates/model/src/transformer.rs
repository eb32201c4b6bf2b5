//! An executable multi-head transformer decoder with pluggable KV
//! sparsity.
//!
//! Mirrors the paper's Figure 2(b) pipeline exactly: per decoding step
//! the new token's K/V rows are appended to the per-layer cache, a
//! sparsity policy picks which cached tokens stay *usable* (Algorithm 1),
//! attention runs over the gathered dense subset, and the head-averaged
//! attention-weight row is pushed into the rolling history that drives
//! the next step's selection.
//!
//! Unselected tokens are **not** erased from the functional cache — in
//! the real system they live in CPU memory (Phase II) or are recomputed
//! (Phase III), both of which are value-preserving. Placement and its
//! cost are simulated in `alisa-sched`; here only *selection* affects
//! the math, which is exactly the paper's accuracy/performance split.

use alisa_attention::policy::{AttentionHistory, PolicyKind, SelectionContext};
use alisa_tensor::nn::{layernorm, relu_inplace, softmax_inplace};
use alisa_tensor::ops::{dot, vecmat};
use alisa_tensor::quant::{fake_quantize_row, QuantBits};
use alisa_tensor::Matrix;

use crate::config::ModelConfig;
use crate::init::InitSpec;

/// Weights of one transformer layer.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Query/key/value/output projections, stored input-major
    /// (`h_in × h_out`, one row per input element, the layout
    /// [`vecmat`] reads), applied as `y = x·W + b`.
    pub wq: Matrix,
    pub wk: Matrix,
    pub wv: Matrix,
    pub wo: Matrix,
    pub bq: Vec<f32>,
    pub bk: Vec<f32>,
    pub bv: Vec<f32>,
    pub bo: Vec<f32>,
    /// Pre-attention layernorm gain/bias.
    pub ln1_gain: Vec<f32>,
    pub ln1_bias: Vec<f32>,
    /// Pre-FFN layernorm gain/bias.
    pub ln2_gain: Vec<f32>,
    pub ln2_bias: Vec<f32>,
    /// FFN up-projection (`h × ffn`) and down-projection (`ffn × h`),
    /// input-major like the projections above.
    pub w1: Matrix,
    pub b1: Vec<f32>,
    pub w2: Matrix,
    pub b2: Vec<f32>,
}

/// KV cache for one layer plus the attention history driving selection.
#[derive(Debug, Clone)]
pub struct LayerKv {
    /// Cached keys, one row per token (`seq × h`).
    pub k: Matrix,
    /// Cached values, one row per token.
    pub v: Matrix,
    /// Rolling head-averaged attention-weight history (Algorithm 1's
    /// `AW` input).
    pub history: AttentionHistory,
}

/// Full generation state: per-layer KV plus the token ids seen so far
/// (needed for the per-token sink bias and for recomputation).
#[derive(Debug, Clone)]
pub struct KvState {
    /// Per-layer caches.
    pub layers: Vec<LayerKv>,
    /// All token ids processed so far, in order.
    pub token_ids: Vec<usize>,
}

impl KvState {
    /// Number of cached tokens.
    pub fn seq_len(&self) -> usize {
        self.token_ids.len()
    }
}

/// Result of one decoding step.
#[derive(Debug, Clone)]
pub struct StepOutput {
    /// Next-token logits over the vocabulary.
    pub logits: Vec<f32>,
    /// Head-averaged attention weights per layer, scattered to full
    /// sequence length (zeros at unselected positions).
    pub attention_rows: Vec<Vec<f32>>,
    /// Indices kept by the policy at this step (per layer they are
    /// identical by construction — one selection per module drives all
    /// heads, as in Algorithm 1's head-reduced sums).
    pub kept: Vec<usize>,
}

/// Per-step sparsity controls, resolved by the engine from a
/// [`crate::engine::GenerationConfig`].
#[derive(Debug, Clone, Copy)]
pub struct StepPolicy {
    /// Which selection rule to run.
    pub kind: PolicyKind,
    /// KV budget for this step (tokens the policy may keep).
    pub budget: usize,
    /// Optional reduced-precision storage for newly cached KV rows.
    pub kv_quant: Option<QuantBits>,
    /// Local share of the SWA budget (0.5 = the paper's even split;
    /// only consulted when `kind == PolicyKind::Swa`).
    pub swa_local_fraction: f32,
}

/// A laptop-scale decoder-only transformer (see crate docs).
#[derive(Debug, Clone)]
pub struct TinyTransformer {
    config: ModelConfig,
    init: InitSpec,
    /// Token embeddings, weight-tied with the LM head and stored once,
    /// input-major for the head (`h × vocab`): token `t`'s embedding is
    /// column `t`.
    embedding: Matrix,
    /// Learned positional embeddings (`max_context × h`).
    pos: Matrix,
    layers: Vec<LayerWeights>,
    final_ln_gain: Vec<f32>,
    final_ln_bias: Vec<f32>,
    /// Per-vocab-token attention sink bias (heavy hitters).
    sink_bias: Vec<f32>,
    /// Per-head ALiBi recency slopes.
    alibi_slopes: Vec<f32>,
    /// Attention-logit sharpness (scale-dependent concentration).
    concentration: f32,
    apply_layernorm: bool,
    apply_ffn: bool,
}

impl TinyTransformer {
    /// Builds a model with the structured random initializer.
    ///
    /// # Panics
    ///
    /// Panics if the config is not laptop-scale (> 16M parameters): the
    /// functional path must never be instantiated at paper scale by
    /// accident — that is the simulator's job.
    pub fn structured(config: ModelConfig, init: InitSpec) -> Self {
        assert!(
            config.params() < 16_000_000,
            "functional models must stay laptop-scale; use alisa-sched for {}",
            config.name
        );
        let h = config.hidden_dim;
        let v = config.vocab_size;
        let embedding = Matrix::from_vec(v, h, init.random_buffer("embedding", v * h))
            .expect("shape")
            .transpose();
        let pos = Matrix::from_vec(
            config.max_context,
            h,
            init.random_buffer("pos", config.max_context * h),
        )
        .expect("shape");
        let layers = (0..config.num_layers)
            .map(|l| Self::structured_layer(&config, &init, l))
            .collect();
        let sink_bias = (0..v).map(|t| init.sink_bias(t, v)).collect();
        let alibi_slopes = init.alibi_slopes(config.num_heads);
        TinyTransformer {
            final_ln_gain: vec![1.0; h],
            final_ln_bias: vec![0.0; h],
            concentration: init.concentration,
            embedding,
            pos,
            layers,
            sink_bias,
            alibi_slopes,
            config,
            init,
            apply_layernorm: true,
            apply_ffn: true,
        }
    }

    /// Builds a model from explicit parts — used by the hand-constructed
    /// associative model in [`crate::assoc`]. `embedding` holds one row
    /// per token (`vocab × h`) and is transposed here, once, into the
    /// LM head's input-major layout; `layers` are already input-major.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        config: ModelConfig,
        init: InitSpec,
        embedding: Matrix,
        pos: Matrix,
        layers: Vec<LayerWeights>,
        sink_bias: Vec<f32>,
        alibi_slopes: Vec<f32>,
        concentration: f32,
        apply_layernorm: bool,
        apply_ffn: bool,
    ) -> Self {
        let h = config.hidden_dim;
        TinyTransformer {
            final_ln_gain: vec![1.0; h],
            final_ln_bias: vec![0.0; h],
            config,
            init,
            embedding: embedding.transpose(),
            pos,
            layers,
            sink_bias,
            alibi_slopes,
            concentration,
            apply_layernorm,
            apply_ffn,
        }
    }

    fn structured_layer(cfg: &ModelConfig, init: &InitSpec, l: usize) -> LayerWeights {
        let h = cfg.hidden_dim;
        let f = cfg.ffn_dim;
        // Each buffer is drawn output-major (`n_out × n_in`) and
        // scattered once into the input-major layout.
        let mk = |name: &str, n_out: usize, n_in: usize| {
            Matrix::from_vec(
                n_out,
                n_in,
                init.random_buffer(&format!("{name}.{l}"), n_out * n_in),
            )
            .expect("shape")
            .transpose()
        };
        LayerWeights {
            wq: mk("wq", h, h),
            wk: mk("wk", h, h),
            wv: mk("wv", h, h),
            wo: mk("wo", h, h),
            bq: init.random_buffer(&format!("bq.{l}"), h),
            bk: init.random_buffer(&format!("bk.{l}"), h),
            bv: init.random_buffer(&format!("bv.{l}"), h),
            bo: init.random_buffer(&format!("bo.{l}"), h),
            ln1_gain: vec![1.0; h],
            ln1_bias: vec![0.0; h],
            ln2_gain: vec![1.0; h],
            ln2_bias: vec![0.0; h],
            w1: mk("w1", f, h),
            b1: init.random_buffer(&format!("b1.{l}"), f),
            w2: mk("w2", h, f),
            b2: init.random_buffer(&format!("b2.{l}"), h),
        }
    }

    /// The architecture this model realizes.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The initializer used to build it.
    pub fn init_spec(&self) -> &InitSpec {
        &self.init
    }

    /// Fresh, empty KV state sized for this model.
    pub fn new_state(&self, history_depth: usize) -> KvState {
        KvState {
            layers: (0..self.config.num_layers)
                .map(|_| LayerKv {
                    k: Matrix::zeros(0, self.config.hidden_dim),
                    v: Matrix::zeros(0, self.config.hidden_dim),
                    history: AttentionHistory::new(history_depth),
                })
                .collect(),
            token_ids: Vec::new(),
        }
    }

    fn maybe_ln(&self, x: &[f32], gain: &[f32], bias: &[f32]) -> Vec<f32> {
        let mut y = x.to_vec();
        if self.apply_layernorm {
            layernorm(&mut y, gain, bias, 1e-5);
        }
        y
    }

    /// Processes one token and returns next-token logits plus attention
    /// telemetry.
    ///
    /// `token` must be `< vocab_size`; its position is
    /// `state.seq_len()` (tokens are processed strictly in order).
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary or the position exceeds
    /// `max_context`.
    pub fn decode_step(&self, token: usize, state: &mut KvState, policy: StepPolicy) -> StepOutput {
        assert!(token < self.config.vocab_size, "token out of vocabulary");
        let pos_idx = state.seq_len();
        assert!(
            pos_idx < self.config.max_context,
            "position exceeds max context"
        );
        state.token_ids.push(token);

        let h = self.config.hidden_dim;
        let heads = self.config.num_heads;
        let dh = self.config.head_dim();

        // Embedding (column `token` of the tied matrix) + positional
        // encoding.
        let vocab = self.config.vocab_size;
        let mut x: Vec<f32> = self
            .embedding
            .as_slice()
            .iter()
            .skip(token)
            .step_by(vocab)
            .zip(self.pos.row(pos_idx))
            .map(|(e, p)| e + p)
            .collect();

        let mut attention_rows = Vec::with_capacity(self.layers.len());
        let mut kept_last: Vec<usize> = Vec::new();

        for (li, lw) in self.layers.iter().enumerate() {
            let h1 = self.maybe_ln(&x, &lw.ln1_gain, &lw.ln1_bias);
            let q = add_bias(vecmat(&h1, &lw.wq).expect("wq"), &lw.bq);
            let mut k = add_bias(vecmat(&h1, &lw.wk).expect("wk"), &lw.bk);
            let mut v = add_bias(vecmat(&h1, &lw.wv).expect("wv"), &lw.bv);
            if let Some(bits) = policy.kv_quant {
                // KV compression: rows are stored reduced-precision and
                // dequantized for compute (paper §V-B).
                fake_quantize_row(&mut k, bits);
                fake_quantize_row(&mut v, bits);
            }
            let layer = &mut state.layers[li];
            layer.k.push_row(&k).expect("k row");
            layer.v.push_row(&v).expect("v row");
            let seq_len = layer.k.rows();

            // One selection per attention module, shared by its heads.
            let selection = policy.kind.select(&SelectionContext {
                seq_len,
                budget: policy.budget,
                history: &layer.history,
                swa_local_fraction: policy.swa_local_fraction,
            });
            let kept = if selection.kept.is_empty() {
                // Degenerate budget: the current token is always usable.
                vec![seq_len - 1]
            } else {
                selection.kept.clone()
            };

            // Multi-head attention over the gathered sparse set.
            let mut attn_out = vec![0.0f32; h];
            let mut avg_weights = vec![0.0f32; seq_len];
            for head in 0..heads {
                let cols = head * dh..(head + 1) * dh;
                let slope = self.alibi_slopes[head];
                let mut logits: Vec<f32> = kept
                    .iter()
                    .map(|&j| {
                        let kr = &layer.k.row(j)[cols.clone()];
                        let sink = self.sink_bias[state.token_ids[j]];
                        let recency = -slope * (pos_idx - j) as f32;
                        dot(&q[cols.clone()], kr) * self.concentration / (dh as f32).sqrt()
                            + sink
                            + recency
                    })
                    .collect();
                softmax_inplace(&mut logits);
                for (&j, &w) in kept.iter().zip(&logits) {
                    let vr = &layer.v.row(j)[cols.clone()];
                    for (o, &vv) in attn_out[cols.clone()].iter_mut().zip(vr) {
                        *o += w * vv;
                    }
                    avg_weights[j] += w / heads as f32;
                }
            }
            layer.history.push(&avg_weights);
            attention_rows.push(avg_weights);
            kept_last = kept;

            let o = add_bias(vecmat(&attn_out, &lw.wo).expect("wo"), &lw.bo);
            for (xi, oi) in x.iter_mut().zip(&o) {
                *xi += oi;
            }

            if self.apply_ffn {
                let h2 = self.maybe_ln(&x, &lw.ln2_gain, &lw.ln2_bias);
                let mut u = add_bias(vecmat(&h2, &lw.w1).expect("w1"), &lw.b1);
                relu_inplace(&mut u);
                let y = add_bias(vecmat(&u, &lw.w2).expect("w2"), &lw.b2);
                for (xi, yi) in x.iter_mut().zip(&y) {
                    *xi += yi;
                }
            }
        }

        let xf = self.maybe_ln(&x, &self.final_ln_gain, &self.final_ln_bias);
        let logits = vecmat(&xf, &self.embedding).expect("lm head");
        StepOutput {
            logits,
            attention_rows,
            kept: kept_last,
        }
    }
}

fn add_bias(mut v: Vec<f32>, b: &[f32]) -> Vec<f32> {
    for (x, &bb) in v.iter_mut().zip(b) {
        *x += bb;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use alisa_attention::policy::PolicyKind;

    fn dense_policy() -> StepPolicy {
        StepPolicy {
            kind: PolicyKind::Dense,
            budget: usize::MAX,
            kv_quant: None,
            swa_local_fraction: 0.5,
        }
    }

    fn model() -> TinyTransformer {
        TinyTransformer::structured(ModelConfig::tiny_2l(), InitSpec::default())
    }

    #[test]
    fn decode_step_produces_vocab_logits() {
        let m = model();
        let mut st = m.new_state(4);
        let out = m.decode_step(3, &mut st, dense_policy());
        assert_eq!(out.logits.len(), m.config().vocab_size);
        assert!(out.logits.iter().all(|l| l.is_finite()));
        assert_eq!(st.seq_len(), 1);
    }

    #[test]
    fn attention_rows_are_probabilities_over_kept() {
        let m = model();
        let mut st = m.new_state(4);
        for t in [1usize, 2, 3, 4, 5] {
            let out = m.decode_step(t, &mut st, dense_policy());
            for row in &out.attention_rows {
                let s: f32 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-4, "head-avg row sums to 1, got {s}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m1 = model();
        let m2 = model();
        let mut s1 = m1.new_state(4);
        let mut s2 = m2.new_state(4);
        let o1 = m1.decode_step(7, &mut s1, dense_policy());
        let o2 = m2.decode_step(7, &mut s2, dense_policy());
        assert_eq!(o1.logits, o2.logits);
    }

    #[test]
    fn different_tokens_give_different_logits() {
        let m = model();
        let mut s1 = m.new_state(4);
        let mut s2 = m.new_state(4);
        let o1 = m.decode_step(1, &mut s1, dense_policy());
        let o2 = m.decode_step(2, &mut s2, dense_policy());
        assert_ne!(o1.logits, o2.logits);
    }

    #[test]
    fn sparse_policy_restricts_kept_set() {
        let m = model();
        let mut st = m.new_state(4);
        let sparse = StepPolicy {
            kind: PolicyKind::Swa,
            budget: 4,
            kv_quant: None,
            swa_local_fraction: 0.5,
        };
        for t in 0..10 {
            let out = m.decode_step(t % 8, &mut st, sparse);
            assert!(out.kept.len() <= 4);
            // Current token always attendable.
            assert!(out.kept.contains(&(st.seq_len() - 1)));
        }
    }

    #[test]
    fn swa_matches_dense_until_budget_binds() {
        let m = model();
        let mut dense_state = m.new_state(4);
        let mut swa_state = m.new_state(4);
        let swa = StepPolicy {
            kind: PolicyKind::Swa,
            budget: 64,
            kv_quant: None,
            swa_local_fraction: 0.5,
        };
        // With budget >> seq_len the two paths must agree exactly.
        for t in [3usize, 1, 4, 1, 5] {
            let od = m.decode_step(t, &mut dense_state, dense_policy());
            let os = m.decode_step(t, &mut swa_state, swa);
            for (a, b) in od.logits.iter().zip(&os.logits) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn quantized_kv_changes_little() {
        let m = model();
        let mut s_fp = m.new_state(4);
        let mut s_q = m.new_state(4);
        let q = StepPolicy {
            kind: PolicyKind::Dense,
            budget: usize::MAX,
            kv_quant: Some(QuantBits::Int8),
            swa_local_fraction: 0.5,
        };
        let mut last_fp = Vec::new();
        let mut last_q = Vec::new();
        for t in [2usize, 9, 4, 7] {
            last_fp = m.decode_step(t, &mut s_fp, dense_policy()).logits;
            last_q = m.decode_step(t, &mut s_q, q).logits;
        }
        // INT8 storage perturbs logits only slightly relative to range.
        let range = last_fp
            .iter()
            .fold(0.0f32, |a, &b| a.max(b.abs()))
            .max(1e-6);
        let max_rel = last_fp
            .iter()
            .zip(&last_q)
            .map(|(a, b)| (a - b).abs() / range)
            .fold(0.0f32, f32::max);
        assert!(max_rel < 0.05, "relative drift {max_rel}");
        assert!(max_rel > 0.0, "quantization must not be a silent no-op");
    }

    #[test]
    fn anchors_attract_attention() {
        // Token 0 is an anchor (sink); after a while it should hold more
        // head-averaged attention than a same-position non-anchor run.
        let m = model();
        let mut st = m.new_state(4);
        let seq = [0usize, 30, 31, 32, 33, 34, 35];
        let mut last = None;
        for &t in &seq {
            last = Some(m.decode_step(t, &mut st, dense_policy()));
        }
        let row = &last.unwrap().attention_rows[0];
        let anchor_w = row[0];
        let mean_w: f32 = row.iter().sum::<f32>() / row.len() as f32;
        assert!(
            anchor_w > mean_w,
            "anchor weight {anchor_w} should exceed mean {mean_w}"
        );
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_out_of_vocab_token() {
        let m = model();
        let mut st = m.new_state(4);
        let _ = m.decode_step(10_000, &mut st, dense_policy());
    }

    #[test]
    #[should_panic(expected = "laptop-scale")]
    fn rejects_paper_scale_functional_models() {
        let _ = TinyTransformer::structured(ModelConfig::opt_6_7b(), InitSpec::default());
    }
}
