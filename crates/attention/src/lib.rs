//! Attention sparsity policies: the paper's Sparse Window Attention and
//! every baseline it is compared against.
//!
//! A *policy* answers one question each decoding step: **which prior
//! tokens' KV entries are worth keeping?** (paper §IV). This crate keeps
//! that decision pure — a function of the attention-weight history —
//! and [`PolicyKind::select`] runs it; the functional transformer
//! (`alisa-model`) calls it once per attention module per step:
//!
//! * [`PolicyKind::Dense`] — keep everything (exact attention),
//! * [`PolicyKind::Local`] — sliding window over recent tokens
//!   (Longformer \[3\]),
//! * [`PolicyKind::Strided`] — fixed-stride mask (SparseTransformer \[8\]),
//! * [`PolicyKind::Swa`] — **ALISA's Sparse Window Attention**
//!   (Algorithm 1): half the budget on the most recent tokens, half on
//!   the tokens with the largest *local* attention sum,
//! * [`PolicyKind::H2o`] — heavy hitters by *global* attention sum
//!   (H2O \[43\]), the closest prior work.
//!
//! [`metrics`] scores a policy's fidelity against dense attention
//! (Spearman ρ of the score distributions) — the quantity plotted in
//! Figure 4.

pub mod metrics;
pub mod policy;

pub use policy::{AttentionHistory, PolicyKind, SelectionContext, TokenSelection};
