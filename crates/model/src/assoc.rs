//! Hand-constructed associative-retrieval model for QA-style accuracy
//! experiments.
//!
//! The paper evaluates 4-shot question answering, where the answer
//! requires retrieving information stated earlier in the prompt. We
//! reproduce that dependency structure with a single-attention-layer
//! model whose weights are *constructed*, not trained:
//!
//! * A **fact token** `f_i` binds key symbol `i` to value symbol
//!   `m(i)`: its embedding is `[α·keyvec_i | β·valvec_{m(i)}]` in two
//!   orthogonal subspaces.
//! * A **query token** `q_i` carries only `[α·keyvec_i | 0]`.
//! * With identity Q/K/V projections, the query's attention logits are
//!   `∝ α²·(keyvec_i · keyvec_j)` — maximal exactly at the matching
//!   fact — and the attended value subspace decodes (via the weight-tied
//!   LM head) to the bound value token.
//!
//! Retrieval therefore succeeds **iff the fact's KV entry is still in
//! the usable set** when the query arrives — precisely the property that
//! separates SWA/H2O (keep heavy hitters) from local/strided attention
//! (keep a geometric pattern) in Figure 8. Fact tokens carry an
//! attention sink bias, reproducing the empirical heavy-hitter behaviour
//! of content words in trained LLMs.

use alisa_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::config::{ModelConfig, ModelFamily};
use crate::init::InitSpec;
use crate::transformer::{LayerWeights, TinyTransformer};

/// Specification of the associative-retrieval model and task vocabulary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssocSpec {
    /// Number of key symbols (and fact/query token pairs).
    pub n_keys: usize,
    /// Number of value symbols.
    pub n_vals: usize,
    /// Number of filler (non-content) tokens in the vocabulary.
    pub n_filler: usize,
    /// RNG seed for the symbol vectors and bindings.
    pub seed: u64,
    /// Attention sink bias on fact tokens (heavy-hitter strength).
    pub sink_strength: f32,
    /// Embedding magnitude of the key subspace (`α`).
    pub key_gain: f32,
    /// Embedding magnitude of the value subspace (`β`).
    pub val_gain: f32,
}

impl Default for AssocSpec {
    fn default() -> Self {
        AssocSpec {
            n_keys: 16,
            n_vals: 16,
            n_filler: 64,
            seed: 17,
            sink_strength: 2.0,
            key_gain: 4.0,
            val_gain: 2.0,
        }
    }
}

/// Vocabulary layout of the associative task (fixed, documented order).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssocVocab {
    /// Number of key symbols.
    pub n_keys: usize,
    /// Number of value symbols.
    pub n_vals: usize,
    /// Total vocabulary size.
    pub vocab_size: usize,
}

impl AssocVocab {
    /// Token id of the fact token binding key `i`.
    pub fn fact(&self, i: usize) -> usize {
        assert!(i < self.n_keys, "key index out of range");
        i
    }

    /// Token id of the query token asking for key `i`.
    pub fn query(&self, i: usize) -> usize {
        assert!(i < self.n_keys, "key index out of range");
        self.n_keys + i
    }

    /// Token id of value symbol `j`.
    pub fn value(&self, j: usize) -> usize {
        assert!(j < self.n_vals, "value index out of range");
        2 * self.n_keys + j
    }

    /// Token id of filler token `t` (wraps modulo the filler pool).
    pub fn filler(&self, t: usize) -> usize {
        let base = 2 * self.n_keys + self.n_vals;
        base + t % (self.vocab_size - base)
    }
}

/// The constructed model plus its task metadata.
#[derive(Debug, Clone)]
pub struct AssocModel {
    model: TinyTransformer,
    vocab: AssocVocab,
    /// `binding[i]` = the value symbol bound to key `i`.
    binding: Vec<usize>,
}

impl AssocModel {
    /// Builds the model: 1 layer, 1 head, no FFN, no layernorm, hidden
    /// dimension split into a key half and a value half.
    pub fn build(spec: &AssocSpec) -> Self {
        let dk = 32usize;
        let dv = 32usize;
        let h = dk + dv;
        let vocab_size = 2 * spec.n_keys + spec.n_vals + spec.n_filler;
        let config = ModelConfig {
            name: format!("assoc-{}k{}v", spec.n_keys, spec.n_vals),
            family: ModelFamily::Synthetic,
            num_layers: 1,
            hidden_dim: h,
            num_heads: 1,
            ffn_dim: h,
            vocab_size,
            max_context: 4096,
        };

        let mut rng = StdRng::seed_from_u64(spec.seed);
        let unit = |rng: &mut StdRng, d: usize| -> Vec<f32> {
            let v: Vec<f32> = (0..d)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let n = (d as f32).sqrt();
            v.into_iter().map(|x| x / n).collect()
        };
        let keyvecs: Vec<Vec<f32>> = (0..spec.n_keys).map(|_| unit(&mut rng, dk)).collect();
        let valvecs: Vec<Vec<f32>> = (0..spec.n_vals).map(|_| unit(&mut rng, dv)).collect();
        let binding: Vec<usize> = (0..spec.n_keys)
            .map(|_| rng.gen_range(0..spec.n_vals))
            .collect();

        let vocab = AssocVocab {
            n_keys: spec.n_keys,
            n_vals: spec.n_vals,
            vocab_size,
        };

        let mut embedding = Matrix::zeros(vocab_size, h);
        for i in 0..spec.n_keys {
            // fact_i = [α·keyvec_i | β·valvec_{m(i)}]
            let row = embedding.row_mut(vocab.fact(i));
            for (c, &kv) in keyvecs[i].iter().enumerate() {
                row[c] = spec.key_gain * kv;
            }
            for (c, &vv) in valvecs[binding[i]].iter().enumerate() {
                row[dk + c] = spec.val_gain * vv;
            }
        }
        for (i, keyvec) in keyvecs.iter().enumerate().take(spec.n_keys) {
            // query_i = [α·keyvec_i | 0]
            let row = embedding.row_mut(vocab.query(i));
            for (c, &kv) in keyvec.iter().enumerate() {
                row[c] = spec.key_gain * kv;
            }
        }
        for (j, valvec) in valvecs.iter().enumerate().take(spec.n_vals) {
            // value_j = [0 | valvec_j] — the LM head (tied weights)
            // scores exactly the value subspace.
            let row = embedding.row_mut(vocab.value(j));
            for (c, &vv) in valvec.iter().enumerate() {
                row[dk + c] = vv;
            }
        }
        for t in 2 * spec.n_keys + spec.n_vals..vocab_size {
            // Filler tokens: small noise that neither matches keys nor
            // decodes to values.
            let row = embedding.row_mut(t);
            for cell in row.iter_mut() {
                *cell = rng.gen_range(-0.05..0.05);
            }
        }

        // Identity and zero weights read the same in the input-major
        // layout `LayerWeights` takes as in the output-major one.
        let identity = Matrix::identity(h);
        let layer = LayerWeights {
            wq: identity.clone(),
            wk: identity.clone(),
            wv: identity.clone(),
            wo: identity.clone(),
            bq: vec![0.0; h],
            bk: vec![0.0; h],
            bv: vec![0.0; h],
            bo: vec![0.0; h],
            ln1_gain: vec![1.0; h],
            ln1_bias: vec![0.0; h],
            ln2_gain: vec![1.0; h],
            ln2_bias: vec![0.0; h],
            w1: Matrix::zeros(h, h),
            b1: vec![0.0; h],
            w2: Matrix::zeros(h, h),
            b2: vec![0.0; h],
        };

        let mut sink_bias = vec![0.0f32; vocab_size];
        for i in 0..spec.n_keys {
            sink_bias[vocab.fact(i)] = spec.sink_strength;
        }

        // Positions contribute nothing: retrieval must come from content.
        let pos = Matrix::zeros(config.max_context, h);
        let init = InitSpec::default().with_seed(spec.seed);
        let model = TinyTransformer::from_parts(
            config,
            init,
            embedding,
            pos,
            vec![layer],
            sink_bias,
            vec![0.0], // no recency bias — distance must not help
            1.0,
            false,
            false,
        );
        AssocModel {
            model,
            vocab,
            binding,
        }
    }

    /// The underlying transformer (run it through `alisa-model::engine`).
    pub fn model(&self) -> &TinyTransformer {
        &self.model
    }

    /// Vocabulary layout.
    pub fn vocab(&self) -> &AssocVocab {
        &self.vocab
    }

    /// The ground-truth value symbol bound to key `i`.
    pub fn answer(&self, key: usize) -> usize {
        self.binding[key]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::StepPolicy;
    use alisa_attention::policy::PolicyKind;

    fn dense() -> StepPolicy {
        StepPolicy {
            kind: PolicyKind::Dense,
            budget: usize::MAX,
            kv_quant: None,
            swa_local_fraction: 0.5,
        }
    }

    /// Feed `prompt` then return logits after the final token.
    fn final_logits(m: &AssocModel, prompt: &[usize]) -> Vec<f32> {
        let mut st = m.model().new_state(4);
        let mut out = None;
        for &t in prompt {
            out = Some(m.model().decode_step(t, &mut st, dense()));
        }
        out.expect("nonempty prompt").logits
    }

    #[test]
    fn vocab_layout_is_disjoint() {
        let v = AssocVocab {
            n_keys: 4,
            n_vals: 3,
            vocab_size: 20,
        };
        let mut ids = vec![];
        for i in 0..4 {
            ids.push(v.fact(i));
            ids.push(v.query(i));
        }
        for j in 0..3 {
            ids.push(v.value(j));
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 11, "fact/query/value ids must not collide");
        assert!(v.filler(0) >= 11);
        assert!(v.filler(100) < 20);
    }

    #[test]
    fn dense_retrieval_succeeds() {
        let m = AssocModel::build(&AssocSpec::default());
        let v = m.vocab().clone();
        // Prompt: fact_3, some filler, then query_3.
        let mut prompt = vec![v.fact(3)];
        for t in 0..10 {
            prompt.push(v.filler(t));
        }
        prompt.push(v.query(3));
        let logits = final_logits(&m, &prompt);
        let correct = v.value(m.answer(3));
        // The correct value must outscore every other value token.
        for j in 0..v.n_vals {
            if v.value(j) != correct {
                assert!(
                    logits[correct] > logits[v.value(j)],
                    "value {} should lose to the bound value",
                    j
                );
            }
        }
    }

    #[test]
    fn retrieval_works_for_every_key() {
        let m = AssocModel::build(&AssocSpec::default());
        let v = m.vocab().clone();
        let mut correct = 0;
        for key in 0..v.n_keys {
            let prompt = vec![v.fact(key), v.filler(0), v.filler(1), v.query(key)];
            let logits = final_logits(&m, &prompt);
            let best = (0..v.n_vals)
                .max_by(|&a, &b| logits[v.value(a)].partial_cmp(&logits[v.value(b)]).unwrap())
                .unwrap();
            if best == m.answer(key) {
                correct += 1;
            }
        }
        assert!(
            correct >= v.n_keys * 9 / 10,
            "dense retrieval accuracy too low: {correct}/{}",
            v.n_keys
        );
    }

    #[test]
    fn distractor_facts_do_not_confuse() {
        let m = AssocModel::build(&AssocSpec::default());
        let v = m.vocab().clone();
        // Several facts in context; query a middle one.
        let prompt = vec![v.fact(0), v.fact(5), v.fact(9), v.filler(3), v.query(5)];
        let logits = final_logits(&m, &prompt);
        let correct = v.value(m.answer(5));
        let best_val = (0..v.n_vals)
            .map(|j| v.value(j))
            .max_by(|&a, &b| logits[a].partial_cmp(&logits[b]).unwrap());
        assert_eq!(best_val, Some(correct));
    }

    #[test]
    fn evicting_the_fact_breaks_retrieval() {
        // A tight local window that cannot reach back to the fact.
        let m = AssocModel::build(&AssocSpec::default());
        let v = m.vocab().clone();
        let mut prompt = vec![v.fact(2)];
        for t in 0..20 {
            prompt.push(v.filler(t));
        }
        prompt.push(v.query(2));

        let local = StepPolicy {
            kind: PolicyKind::Local,
            budget: 4,
            kv_quant: None,
            swa_local_fraction: 0.5,
        };
        let mut st = m.model().new_state(4);
        let mut out = None;
        for &t in &prompt {
            out = Some(m.model().decode_step(t, &mut st, local));
        }
        let logits = out.unwrap().logits;
        let correct = v.value(m.answer(2));
        let margin_ok = (0..v.n_vals)
            .filter(|&j| v.value(j) != correct)
            .all(|j| logits[correct] > logits[v.value(j)] + 0.5);
        assert!(
            !margin_ok,
            "with the fact evicted, retrieval must lose its confident margin"
        );
    }

    #[test]
    fn swa_keeps_the_fact_alive() {
        // Same long prompt, same budget — SWA's heavy-hitter half should
        // retain the fact because its sink bias attracts attention mass.
        let m = AssocModel::build(&AssocSpec::default());
        let v = m.vocab().clone();
        let mut prompt = vec![v.fact(2)];
        for t in 0..20 {
            prompt.push(v.filler(t));
        }
        prompt.push(v.query(2));

        let swa = StepPolicy {
            kind: PolicyKind::Swa,
            budget: 6,
            kv_quant: None,
            swa_local_fraction: 0.5,
        };
        let mut st = m.model().new_state(4);
        let mut out = None;
        for &t in &prompt {
            out = Some(m.model().decode_step(t, &mut st, swa));
        }
        let logits = out.unwrap().logits;
        let correct = v.value(m.answer(2));
        let best_val = (0..v.n_vals)
            .map(|j| v.value(j))
            .max_by(|&a, &b| logits[a].partial_cmp(&logits[b]).unwrap());
        assert_eq!(
            best_val,
            Some(correct),
            "SWA must retain the heavy-hitter fact"
        );
    }

    #[test]
    fn binding_is_deterministic_per_seed() {
        let a = AssocModel::build(&AssocSpec::default());
        let b = AssocModel::build(&AssocSpec::default());
        assert_eq!(a.binding, b.binding);
        let c = AssocModel::build(&AssocSpec {
            seed: 99,
            ..AssocSpec::default()
        });
        assert_ne!(a.binding, c.binding);
    }
}
