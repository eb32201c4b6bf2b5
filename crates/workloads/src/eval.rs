//! The evaluation harness: Figure 8's metrics.
//!
//! Language modeling follows a relative-fidelity methodology: the
//! *dense* model writes the reference text
//! (teacher-forced continuations of corpus prompts), so dense attention
//! is optimal by construction and each sparse method's perplexity
//! degradation measures exactly how far its attention diverged.
//! Question answering is scored like `lm-eval`: each candidate
//! continuation's likelihood is computed under the model and the
//! lowest-NLL choice is the prediction; accuracy is measured against
//! task ground truth (the associative model's key→value binding).

use alisa_model::assoc::AssocModel;
use alisa_model::engine::{generate, score_continuation, score_sequence, GenerationConfig};
use alisa_model::TinyTransformer;
use serde::{Deserialize, Serialize};

use crate::corpus::CorpusSpec;
use crate::qa::QaEpisode;

/// Result of a language-modeling evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LmResult {
    /// `exp(mean_nll)`: the exponential of the mean NLL pooled over every
    /// scored token of every sequence (lower is better; Figure 8 plots
    /// the negative so higher is better).
    pub perplexity: f32,
    /// Mean per-token negative log-likelihood (nats).
    pub mean_nll: f32,
    /// Sequences evaluated.
    pub sequences: usize,
}

/// Result of a QA evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QaResult {
    /// Fraction of episodes answered correctly.
    pub accuracy: f32,
    /// Episodes evaluated.
    pub episodes: usize,
}

/// The reference text of a language-modeling evaluation: per sequence,
/// a corpus prompt continued by the model under the *dense* reference
/// configuration. It depends on the model and the corpus only, so one
/// set serves every policy evaluated on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeacherTexts {
    /// Each sequence: its `prompt_len` prompt tokens, then the dense
    /// continuation.
    sequences: Vec<Vec<usize>>,
    /// Prompt tokens at the head of every sequence; scoring skips them.
    prompt_len: usize,
}

impl TeacherTexts {
    /// Writes `num_seqs` texts: `prompt_len` corpus tokens seed each
    /// sequence, and the dense model continues it to `seq_len` total
    /// tokens, sampling at temperature 0.9 with the sequence index as
    /// its seed.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_len` is 0 or not below `seq_len`.
    pub fn generate(
        model: &TinyTransformer,
        corpus: &CorpusSpec,
        num_seqs: usize,
        prompt_len: usize,
        seq_len: usize,
    ) -> Self {
        assert!(seq_len > prompt_len, "need room for a continuation");
        let teacher_cfg = GenerationConfig {
            max_new_tokens: seq_len - prompt_len,
            greedy: false,
            temperature: 0.9,
            ..GenerationConfig::default()
        };
        let sequences = (0..num_seqs)
            .map(|i| {
                let mut text = corpus.sequence(i, prompt_len);
                let teacher = generate(
                    model,
                    &text,
                    &GenerationConfig {
                        seed: i as u64,
                        ..teacher_cfg
                    },
                );
                text.extend(&teacher.tokens);
                text
            })
            .collect();
        TeacherTexts {
            sequences,
            prompt_len,
        }
    }
}

/// Language-modeling perplexity of `eval_cfg` (the policy under test)
/// on `teacher`'s texts, written by the same `model`, skipping each
/// prompt.
pub fn score_lm(
    model: &TinyTransformer,
    teacher: &TeacherTexts,
    eval_cfg: &GenerationConfig,
) -> LmResult {
    let mut total_nll = 0.0f64;
    let mut total_tokens = 0usize;
    for text in &teacher.sequences {
        let score = score_sequence(model, text, teacher.prompt_len, eval_cfg);
        total_nll += score.nll.iter().map(|&x| x as f64).sum::<f64>();
        total_tokens += score.nll.len();
    }
    let mean = if total_tokens == 0 {
        f32::NAN
    } else {
        (total_nll / total_tokens as f64) as f32
    };
    LmResult {
        perplexity: mean.exp(),
        mean_nll: mean,
        sequences: teacher.sequences.len(),
    }
}

/// Evaluates language-modeling perplexity of `eval_cfg` on teacher text
/// written by the same model under the *dense* reference configuration:
/// [`TeacherTexts::generate`], then [`score_lm`]. Callers that evaluate
/// several policies on one model and corpus write the texts once and
/// call [`score_lm`] for each.
///
/// `prompt_len` corpus tokens seed each sequence; the dense model
/// continues it to `seq_len` total tokens; scoring skips the prompt.
pub fn evaluate_lm(
    model: &TinyTransformer,
    corpus: &CorpusSpec,
    eval_cfg: &GenerationConfig,
    num_seqs: usize,
    prompt_len: usize,
    seq_len: usize,
) -> LmResult {
    let teacher = TeacherTexts::generate(model, corpus, num_seqs, prompt_len, seq_len);
    score_lm(model, &teacher, eval_cfg)
}

/// Evaluates multiple-choice QA accuracy of `eval_cfg` over episodes.
pub fn evaluate_qa(
    model: &AssocModel,
    episodes: &[QaEpisode],
    eval_cfg: &GenerationConfig,
) -> QaResult {
    let mut correct = 0usize;
    for ep in episodes {
        let scores: Vec<f32> = ep
            .choices
            .iter()
            .map(|choice| score_continuation(model.model(), &ep.prompt, choice, eval_cfg))
            .collect();
        let pred = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if pred == ep.correct {
            correct += 1;
        }
    }
    QaResult {
        accuracy: if episodes.is_empty() {
            0.0
        } else {
            correct as f32 / episodes.len() as f32
        },
        episodes: episodes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Dataset;
    use crate::qa::QaTask;
    use alisa_attention::policy::PolicyKind;
    use alisa_model::assoc::AssocSpec;
    use alisa_model::{InitSpec, ModelConfig};

    fn lm_model() -> TinyTransformer {
        TinyTransformer::structured(ModelConfig::tiny_2l(), InitSpec::default())
    }

    #[test]
    fn dense_lm_perplexity_beats_local_at_high_sparsity() {
        let model = lm_model();
        let spec = InitSpec::default();
        let corpus = Dataset::WikiText2.spec(
            model.config().vocab_size,
            spec.anchor_count(model.config().vocab_size),
        );
        let dense = evaluate_lm(&model, &corpus, &GenerationConfig::default(), 2, 8, 48);
        let local = evaluate_lm(
            &model,
            &corpus,
            &GenerationConfig::default().with_policy(PolicyKind::Local, 0.8),
            2,
            8,
            48,
        );
        assert!(dense.perplexity.is_finite() && dense.perplexity >= 1.0);
        assert!(
            dense.perplexity <= local.perplexity + 1e-3,
            "dense {:.3} must beat local {:.3}",
            dense.perplexity,
            local.perplexity
        );
    }

    #[test]
    fn swa_lm_tracks_dense_closely() {
        let model = lm_model();
        let spec = InitSpec::default();
        let corpus = Dataset::Alpaca.spec(
            model.config().vocab_size,
            spec.anchor_count(model.config().vocab_size),
        );
        // The separation regime of Figure 8: high sparsity over a
        // sequence long enough that a recency window cannot reach the
        // anchors (at 50% sparsity every method is near-dense).
        let dense = evaluate_lm(&model, &corpus, &GenerationConfig::default(), 3, 8, 96);
        let swa = evaluate_lm(
            &model,
            &corpus,
            &GenerationConfig::default().with_policy(PolicyKind::Swa, 0.8),
            3,
            8,
            96,
        );
        let local = evaluate_lm(
            &model,
            &corpus,
            &GenerationConfig::default().with_policy(PolicyKind::Local, 0.8),
            3,
            8,
            96,
        );
        let swa_gap = (swa.mean_nll - dense.mean_nll).abs();
        let local_gap = (local.mean_nll - dense.mean_nll).abs();
        assert!(
            swa_gap <= local_gap + 1e-4,
            "swa gap {swa_gap:.4} must be <= local gap {local_gap:.4}"
        );
    }

    #[test]
    fn one_teacher_text_scores_like_evaluate_lm() {
        let model = lm_model();
        let spec = InitSpec::default();
        let corpus = Dataset::WikiText2.spec(
            model.config().vocab_size,
            spec.anchor_count(model.config().vocab_size),
        );
        let teacher = TeacherTexts::generate(&model, &corpus, 2, 8, 32);
        for cfg in [
            GenerationConfig::default(),
            GenerationConfig::default().with_policy(PolicyKind::Swa, 0.8),
        ] {
            let shared = score_lm(&model, &teacher, &cfg);
            let fresh = evaluate_lm(&model, &corpus, &cfg, 2, 8, 32);
            assert_eq!(shared.perplexity.to_bits(), fresh.perplexity.to_bits());
            assert_eq!(shared.mean_nll.to_bits(), fresh.mean_nll.to_bits());
            assert_eq!(shared.sequences, 2);
        }
    }

    #[test]
    fn qa_dense_accuracy_is_high() {
        let model = AssocModel::build(&AssocSpec::default());
        let eps = QaTask::Copa.spec().episodes(&model, 12);
        let res = evaluate_qa(&model, &eps, &GenerationConfig::default());
        assert!(
            res.accuracy >= 0.8,
            "dense retrieval accuracy {} too low",
            res.accuracy
        );
        assert_eq!(res.episodes, 12);
    }

    #[test]
    fn qa_accuracy_ordering_swa_vs_local() {
        let model = AssocModel::build(&AssocSpec::default());
        let eps = QaTask::OpenBookQa.spec().episodes(&model, 12);
        let swa = evaluate_qa(
            &model,
            &eps,
            &GenerationConfig::default().with_policy(PolicyKind::Swa, 0.7),
        );
        let local = evaluate_qa(
            &model,
            &eps,
            &GenerationConfig::default().with_policy(PolicyKind::Local, 0.7),
        );
        assert!(
            swa.accuracy >= local.accuracy,
            "swa {} must be >= local {}",
            swa.accuracy,
            local.accuracy
        );
        // Local attention with a tight window must actually fail on
        // distant facts (the test question asks about the first fact).
        assert!(
            local.accuracy < 0.9,
            "local {} suspiciously high",
            local.accuracy
        );
    }

    #[test]
    fn empty_qa_returns_zero() {
        let model = AssocModel::build(&AssocSpec::default());
        let res = evaluate_qa(&model, &[], &GenerationConfig::default());
        assert_eq!(res.accuracy, 0.0);
        assert_eq!(res.episodes, 0);
    }
}
