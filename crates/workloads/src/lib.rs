//! Synthetic workloads and the evaluation harness (paper §VI-A).
//!
//! The paper evaluates on seven datasets through `lm-eval-harness`:
//! language modeling on WikiText-2 / Penn Treebank / Alpaca, and 4-shot
//! question answering on PIQA / COPA / OpenBookQA / Winogrande. Real
//! datasets and trained checkpoints are unavailable offline, so this
//! crate generates corpora with the *statistical structure* those
//! evaluations stress and mirrors the harness's
//! metrics:
//!
//! * [`corpus`] — Zipf-distributed token streams with per-sequence topic
//!   anchors that recur over long ranges (the heavy-hitter structure),
//! * [`qa`] — few-shot retrieval episodes over the hand-constructed
//!   associative model (fact → query → value),
//! * [`eval`] — perplexity and multiple-choice accuracy sweeps across
//!   policies and KV-sparsity levels: the Figure 8 harness,
//! * [`sessions`] — multi-turn conversation models ([`SessionModel`]):
//!   heavy-tailed turn counts and per-turn lengths with think-time
//!   gaps, the workload shape that stresses cross-request prefix KV
//!   reuse.

pub mod corpus;
pub mod eval;
pub mod qa;
pub mod serving;
pub mod sessions;

pub use corpus::{CorpusSpec, Dataset};
pub use eval::{evaluate_lm, evaluate_qa, score_lm, LmResult, QaResult, TeacherTexts};
pub use qa::{QaEpisode, QaSpec, QaTask};
pub use serving::LengthModel;
pub use sessions::SessionModel;
