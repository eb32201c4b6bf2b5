//! Token-selection policies (paper §IV, Algorithm 1).
//!
//! [`PolicyKind::select`] runs one policy on a [`SelectionContext`] —
//! how many prior tokens exist, the KV budget, and the recent
//! attention-weight history — and returns the [`TokenSelection`] of
//! indices whose KV entries remain usable for the next step. Everything
//! else (KV placement, transfer scheduling) happens downstream in
//! `alisa-sched`.

use alisa_tensor::topk::top_k_indices_within;
use serde::{Deserialize, Serialize};

/// Rolling attention-weight history for one attention module.
///
/// Row `t` holds the attention weights produced at decoding step `t`
/// over the prior positions that existed then (older steps saw fewer),
/// and is already averaged ("reduced along the head dimension",
/// Algorithm 1).
/// Only the most recent `depth` rows are retained: SWA's local attention
/// sum needs just those, and keeping the full history would reintroduce
/// the quadratic memory the paper's §IV-B criticizes SpAtten/H2O for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttentionHistory {
    depth: usize,
    seq_len: usize,
    rows: Vec<Vec<f32>>,
    /// Running per-position sum over *all* steps (for the H2O baseline).
    global_sums: Vec<f32>,
}

impl AttentionHistory {
    /// Creates an empty history that retains the last `depth` steps.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` — a zero-depth history can never drive
    /// SWA's local attention sum.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "history depth must be positive");
        AttentionHistory {
            depth,
            seq_len: 0,
            rows: Vec::new(),
            global_sums: Vec::new(),
        }
    }

    /// Records the attention-weight row produced at the current step.
    /// `weights[j]` is the (head-averaged) weight on prior position `j`.
    pub fn push(&mut self, weights: &[f32]) {
        self.seq_len = self.seq_len.max(weights.len());
        if self.global_sums.len() < self.seq_len {
            self.global_sums.resize(self.seq_len, 0.0);
        }
        for (j, &w) in weights.iter().enumerate() {
            self.global_sums[j] += w;
        }
        self.rows.push(weights.to_vec());
        if self.rows.len() > self.depth {
            self.rows.remove(0);
        }
    }

    /// Number of steps currently held (≤ depth).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether any step has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Local attention sum over the retained rows (Algorithm 1 line 2):
    /// `S[j] = Σ_recent-steps AW[step, j]`, one entry per position up to
    /// [`AttentionHistory::seq_len`]. Rows are added oldest first; a row
    /// shorter than `seq_len` contributes nothing past its end.
    pub fn local_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.seq_len];
        for row in &self.rows {
            for (s, &w) in sums.iter_mut().zip(row) {
                *s += w;
            }
        }
        sums
    }

    /// Accumulated attention per position since the beginning — the
    /// H2O \[43\] criterion the paper contrasts with its local sum.
    pub fn global_sums(&self) -> &[f32] {
        &self.global_sums
    }

    /// Largest position index observed plus one.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }
}

/// Everything a policy may consult when choosing tokens for one step.
#[derive(Debug)]
pub struct SelectionContext<'a> {
    /// Number of prior tokens (cached KV rows) to choose from.
    pub seq_len: usize,
    /// Total number of tokens the policy may keep (`⌊n·r⌉·2k` framing of
    /// Algorithm 1 folded into a single budget; computed by the caller
    /// from the caching ratio).
    pub budget: usize,
    /// Recent attention-weight history for this attention module.
    pub history: &'a AttentionHistory,
    /// Fraction of the budget SWA spends on its locally-static window,
    /// in `[0, 1]`. The paper "evenly splits" (0.5); the `ablation_swa`
    /// bin sweeps it. `1.0` degenerates to local attention, `0.0` to
    /// pure heavy-hitter selection. Only [`PolicyKind::Swa`] reads it.
    pub swa_local_fraction: f32,
}

/// The outcome of a selection: which prior positions stay usable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenSelection {
    /// All kept positions, ascending, no duplicates.
    pub kept: Vec<usize>,
    /// The subset kept for locality (the static window) — ALISA pins
    /// these to GPU memory (§V-A "we choose to keep the KV tensors for
    /// the locally static tokens in the GPU").
    pub local: Vec<usize>,
    /// The subset kept for global importance (dynamic heavy hitters).
    pub global: Vec<usize>,
}

impl TokenSelection {
    /// A selection keeping every position `0..seq_len`.
    pub fn all(seq_len: usize) -> Self {
        TokenSelection {
            kept: (0..seq_len).collect(),
            local: (0..seq_len).collect(),
            global: Vec::new(),
        }
    }

    /// Number of kept tokens.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Whether nothing was kept.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Fraction of prior tokens *dropped* — the achieved KV sparsity.
    pub fn kv_sparsity(&self, seq_len: usize) -> f32 {
        if seq_len == 0 {
            0.0
        } else {
            1.0 - self.kept.len() as f32 / seq_len as f32
        }
    }

    fn from_parts(mut local: Vec<usize>, mut global: Vec<usize>) -> Self {
        local.sort_unstable();
        local.dedup();
        global.sort_unstable();
        global.dedup();
        global.retain(|g| !local.contains(g));
        let mut kept: Vec<usize> = local.iter().chain(global.iter()).copied().collect();
        kept.sort_unstable();
        TokenSelection {
            kept,
            local,
            global,
        }
    }
}

/// The token-selection policies compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Exact attention: every prior token is kept (the paper's accuracy
    /// reference).
    Dense,
    /// Longformer-style local attention \[3\]: keep only the most recent
    /// `budget` tokens (a fixed-size sliding window).
    Local,
    /// SparseTransformer-style strided attention \[8\]: keep every
    /// `stride`-th token counting back from the current position, up to
    /// the budget, with the stride that spreads the budget across the
    /// whole sequence (the paper's Figure 4(c) pattern).
    Strided,
    /// **ALISA's Sparse Window Attention** (Algorithm 1).
    ///
    /// The budget is split between *locally static* tokens (the most
    /// recent positions, preserving sequential semantics; a
    /// [`SelectionContext::swa_local_fraction`] share, rounded up) and
    /// *globally dynamic* tokens — the positions with the largest
    /// **local attention sum**, i.e. the attention mass received over
    /// just the retained history steps (line 2: `S = Σ AW[n−k : n−1]`).
    ///
    /// The multi-step local sum is the paper's key hypothesis:
    /// *"multiple preceding steps can provide better hints on which
    /// tokens are more important than a single step"* — and unlike H2O's
    /// global sum it needs only O(depth · seq) state.
    Swa,
    /// H2O-style heavy-hitter selection \[43\]: SWA's window at the even
    /// split, but the dynamic tokens are ranked by the **global**
    /// attention sum accumulated since step 0. The paper (§II-B)
    /// contrasts this directly with SWA's local sum; globally
    /// accumulated mass favours early tokens and decays slowly when
    /// topics shift.
    H2o,
}

impl PolicyKind {
    /// All kinds, in the order the paper's figures list them.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Dense,
        PolicyKind::Local,
        PolicyKind::Strided,
        PolicyKind::Swa,
        PolicyKind::H2o,
    ];

    /// Chooses which prior positions remain usable for the next step.
    ///
    /// Contract (checked by the property tests in this crate):
    /// * returned indices are strictly ascending and `< ctx.seq_len`;
    /// * at most `ctx.budget` indices are returned (dense ignores this);
    /// * the selection is a pure function of `self` and `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is [`PolicyKind::Swa`] and
    /// `ctx.swa_local_fraction` is outside `[0, 1]`.
    pub fn select(self, ctx: &SelectionContext<'_>) -> TokenSelection {
        let seq_len = ctx.seq_len;
        let total = ctx.budget.min(seq_len);
        match self {
            PolicyKind::Dense => TokenSelection::all(seq_len),
            PolicyKind::Local => {
                TokenSelection::from_parts((seq_len - total..seq_len).collect(), Vec::new())
            }
            PolicyKind::Strided => {
                let stride = seq_len.checked_div(ctx.budget).unwrap_or(1).max(1);
                let kept = (0..seq_len).rev().step_by(stride).take(total).collect();
                TokenSelection::from_parts(kept, Vec::new())
            }
            PolicyKind::Swa => {
                let frac = ctx.swa_local_fraction;
                assert!((0.0..=1.0).contains(&frac), "fraction must be in [0, 1]");
                // The local window keeps at least one token whenever the
                // budget allows: the current one must stay attendable.
                let k_local = ((total as f32 * frac).ceil() as usize).max(1).min(total);
                window_plus_top_k(seq_len, total, k_local, &ctx.history.local_sums())
            }
            PolicyKind::H2o => {
                window_plus_top_k(seq_len, total, total.div_ceil(2), ctx.history.global_sums())
            }
        }
    }

    /// Display name used across figures.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Dense => "dense",
            PolicyKind::Local => "local",
            PolicyKind::Strided => "strided",
            PolicyKind::Swa => "swa",
            PolicyKind::H2o => "h2o",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// SWA's and H2O's shared shape: the `k_local` most recent of
/// `seq_len` positions, plus the `total − k_local` earlier positions
/// with the largest `sums` (Algorithm 1 line 4: candidates lie outside
/// the static window).
fn window_plus_top_k(seq_len: usize, total: usize, k_local: usize, sums: &[f32]) -> TokenSelection {
    let window_start = seq_len - k_local;
    let candidates: Vec<usize> = (0..window_start.min(sums.len())).collect();
    let global = top_k_indices_within(sums, &candidates, total - k_local);
    TokenSelection::from_parts((window_start..seq_len).collect(), global)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history_with(rows: &[&[f32]]) -> AttentionHistory {
        let mut h = AttentionHistory::new(4);
        for r in rows {
            h.push(r);
        }
        h
    }

    fn ctx<'a>(seq_len: usize, budget: usize, h: &'a AttentionHistory) -> SelectionContext<'a> {
        SelectionContext {
            seq_len,
            budget,
            history: h,
            swa_local_fraction: 0.5,
        }
    }

    #[test]
    fn dense_keeps_everything() {
        let h = history_with(&[&[0.5, 0.5]]);
        let sel = PolicyKind::Dense.select(&ctx(5, 2, &h));
        assert_eq!(sel.kept, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn local_keeps_most_recent() {
        let h = history_with(&[&[0.5, 0.5]]);
        let sel = PolicyKind::Local.select(&ctx(10, 3, &h));
        assert_eq!(sel.kept, vec![7, 8, 9]);
        assert_eq!(sel.local, vec![7, 8, 9]);
        assert!(sel.global.is_empty());
    }

    #[test]
    fn strided_spreads_budget() {
        let h = history_with(&[&[0.0; 12]]);
        let sel = PolicyKind::Strided.select(&ctx(12, 3, &h)); // stride 4
        assert_eq!(sel.kept, vec![3, 7, 11]);
    }

    #[test]
    fn strided_stride_one_is_local() {
        // A budget over half the sequence covers it with stride 1.
        let h = history_with(&[&[0.0; 5]]);
        let c = ctx(5, 3, &h);
        let sel = PolicyKind::Strided.select(&c);
        assert_eq!(sel.kept, vec![2, 3, 4]);
        assert_eq!(sel, PolicyKind::Local.select(&c));
    }

    #[test]
    fn swa_splits_budget_local_and_global() {
        // History: token 1 has a huge local attention sum.
        let mut h = AttentionHistory::new(2);
        h.push(&[0.1, 0.8, 0.1]); // step over 3 positions
        h.push(&[0.05, 0.85, 0.05, 0.05]); // step over 4 positions
        let sel = PolicyKind::Swa.select(&ctx(8, 4, &h));
        // 2 local (6, 7) + 2 global from positions 0..6 ranked by local sum.
        assert_eq!(sel.local, vec![6, 7]);
        assert_eq!(sel.global.len(), 2);
        assert!(sel.global.contains(&1), "heavy hitter 1 must be kept");
        assert_eq!(sel.kept.len(), 4);
    }

    #[test]
    fn swa_odd_budget_gives_extra_to_local() {
        let h = history_with(&[&[0.2, 0.2, 0.2, 0.2, 0.2]]);
        let sel = PolicyKind::Swa.select(&ctx(10, 5, &h));
        assert_eq!(sel.local.len(), 3);
        assert_eq!(sel.global.len(), 2);
    }

    #[test]
    fn swa_with_empty_history_still_keeps_local() {
        let h = AttentionHistory::new(2);
        let sel = PolicyKind::Swa.select(&ctx(6, 4, &h));
        assert_eq!(sel.local, vec![4, 5]);
        // No history ⇒ no informed global picks; selection may be short.
        assert!(sel.kept.len() >= 2);
    }

    #[test]
    fn swa_zero_budget_keeps_nothing() {
        let h = history_with(&[&[1.0]]);
        let sel = PolicyKind::Swa.select(&ctx(5, 0, &h));
        assert!(sel.is_empty());
        assert_eq!(sel.kv_sparsity(5), 1.0);
    }

    #[test]
    fn swa_budget_larger_than_seq_keeps_all() {
        let h = history_with(&[&[0.25; 4]]);
        let sel = PolicyKind::Swa.select(&ctx(4, 100, &h));
        assert_eq!(sel.kept, vec![0, 1, 2, 3]);
    }

    #[test]
    fn swa_split_fraction_extremes() {
        let mut h = AttentionHistory::new(2);
        h.push(&[0.9, 0.05, 0.05]);
        h.push(&[0.85, 0.05, 0.05, 0.05]);
        let with_frac = |swa_local_fraction| SelectionContext {
            swa_local_fraction,
            ..ctx(10, 4, &h)
        };
        // frac 1.0 degenerates to a pure recency window.
        let all_local = PolicyKind::Swa.select(&with_frac(1.0));
        assert_eq!(all_local.kept, vec![6, 7, 8, 9]);
        assert!(all_local.global.is_empty());
        // frac near 0 keeps one local token (the current one) and fills
        // the rest with heavy hitters.
        let mostly_global = PolicyKind::Swa.select(&with_frac(0.0));
        assert_eq!(mostly_global.local, vec![9]);
        assert_eq!(mostly_global.global.len(), 3);
        assert!(mostly_global.global.contains(&0), "heavy hitter 0 kept");
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn swa_split_rejects_bad_fraction() {
        let h = history_with(&[&[1.0]]);
        let _ = PolicyKind::Swa.select(&SelectionContext {
            swa_local_fraction: 1.5,
            ..ctx(5, 2, &h)
        });
    }

    #[test]
    fn h2o_uses_global_sums() {
        // Step 1 hammered position 0; recent steps favour position 2.
        let mut h = AttentionHistory::new(1); // depth 1: local sum sees only last row
        h.push(&[2.0, 0.0, 0.0]);
        h.push(&[0.0, 0.0, 1.0, 0.0]);
        let c = ctx(8, 2, &h);
        let swa = PolicyKind::Swa.select(&c);
        let h2o = PolicyKind::H2o.select(&c);
        // budget 2 → 1 local (position 7) + 1 global.
        assert_eq!(swa.local, vec![7]);
        assert_eq!(h2o.local, vec![7]);
        assert_eq!(swa.global, vec![2], "SWA follows the recent step");
        assert_eq!(h2o.global, vec![0], "H2O follows accumulated mass");
    }

    #[test]
    fn selection_deduplicates_overlap() {
        let sel = TokenSelection::from_parts(vec![3, 4], vec![4, 1]);
        assert_eq!(sel.kept, vec![1, 3, 4]);
        assert_eq!(sel.global, vec![1]);
    }

    #[test]
    fn kv_sparsity_fraction() {
        let sel = TokenSelection::from_parts(vec![8, 9], vec![0, 1]);
        assert!((sel.kv_sparsity(10) - 0.6).abs() < 1e-6);
        assert_eq!(TokenSelection::all(0).kv_sparsity(0), 0.0);
    }

    #[test]
    fn history_rolls_and_pads() {
        let mut h = AttentionHistory::new(2);
        h.push(&[1.0]);
        h.push(&[0.5, 0.5]);
        h.push(&[0.2, 0.3, 0.5]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.seq_len(), 3);
        // The shorter retained row counts as zero past its end.
        assert_eq!(h.local_sums(), vec![0.7, 0.8, 0.5]);
        // Global sums still include the evicted first row.
        assert!((h.global_sums()[0] - 1.7).abs() < 1e-6);
    }

    #[test]
    fn history_local_sums_window_only() {
        let mut h = AttentionHistory::new(1);
        h.push(&[9.0, 0.0]);
        h.push(&[0.0, 1.0]);
        // Depth 1: only the last row counts.
        assert_eq!(h.local_sums(), vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_history_panics() {
        let _ = AttentionHistory::new(0);
    }

    #[test]
    fn policy_kind_selects_all() {
        let h = history_with(&[&[0.25; 4]]);
        for kind in PolicyKind::ALL {
            assert!(!kind.select(&ctx(8, 4, &h)).kept.is_empty(), "{kind}");
        }
        assert_eq!(PolicyKind::Swa.to_string(), "swa");
    }
}
