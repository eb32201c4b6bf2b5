//! Token-selection policies (paper §IV, Algorithm 1).
//!
//! Each policy receives a [`SelectionContext`] — how many prior tokens
//! exist, the KV budget, and the recent attention-weight history — and
//! returns the [`TokenSelection`] of indices whose KV entries remain
//! usable for the next step. Everything else (KV placement, transfer
//! scheduling) happens downstream in `alisa-sched`.

use alisa_tensor::ops::col_sums_range;
use alisa_tensor::topk::top_k_indices_within;
use alisa_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Rolling attention-weight history for one attention module.
///
/// Row `t` holds the attention weights produced at decoding step `t`
/// over all `seq_len` prior positions (zero-padded on the right), and is
/// already averaged ("reduced along the head dimension", Algorithm 1).
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

    /// The retained rows as a dense `(steps × seq_len)` matrix,
    /// zero-padding short rows (older steps saw fewer positions).
    pub fn as_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows.len(), self.seq_len);
        for (r, row) in self.rows.iter().enumerate() {
            m.row_mut(r)[..row.len()].copy_from_slice(row);
        }
        m
    }

    /// Local attention sum over the retained rows (Algorithm 1 line 2):
    /// `S[j] = Σ_recent-steps AW[step, j]`.
    pub fn local_sums(&self) -> Vec<f32> {
        let m = self.as_matrix();
        col_sums_range(&m, 0, m.rows())
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

/// A token-selection policy. Implementations must be deterministic.
pub trait SparsityPolicy: std::fmt::Debug {
    /// Chooses which prior positions remain usable for the next step.
    ///
    /// Contract (checked by the property tests in this crate):
    /// * returned indices are strictly ascending and `< ctx.seq_len`;
    /// * at most `ctx.budget` indices are returned (dense ignores this);
    /// * the selection is a pure function of `ctx`.
    fn select(&self, ctx: &SelectionContext<'_>) -> TokenSelection;

    /// Short name used in reports and figures.
    fn name(&self) -> &'static str;

    /// Whether this policy ever drops tokens (false only for dense).
    fn is_sparse(&self) -> bool {
        true
    }
}

/// Exact attention: every prior token is kept (the paper's accuracy
/// reference).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DensePolicy;

impl SparsityPolicy for DensePolicy {
    fn select(&self, ctx: &SelectionContext<'_>) -> TokenSelection {
        TokenSelection::all(ctx.seq_len)
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn is_sparse(&self) -> bool {
        false
    }
}

/// Longformer-style local attention \[3\]: keep only the most recent
/// `budget` tokens (a fixed-size sliding window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalPolicy;

impl SparsityPolicy for LocalPolicy {
    fn select(&self, ctx: &SelectionContext<'_>) -> TokenSelection {
        let k = ctx.budget.min(ctx.seq_len);
        let local: Vec<usize> = (ctx.seq_len - k..ctx.seq_len).collect();
        TokenSelection::from_parts(local, Vec::new())
    }

    fn name(&self) -> &'static str {
        "local"
    }
}

/// SparseTransformer-style strided attention \[8\]: keep every `stride`-th
/// token counting back from the current position, up to the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedPolicy {
    /// Distance between kept tokens. A stride of 1 degenerates to local
    /// attention.
    pub stride: usize,
}

impl StridedPolicy {
    /// Creates a strided policy; the paper's figures use the stride that
    /// spreads the budget across the whole sequence, which callers get
    /// via [`StridedPolicy::covering`].
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        StridedPolicy { stride }
    }

    /// The stride that spreads `budget` kept tokens over `seq_len`
    /// positions (≥ 1).
    pub fn covering(seq_len: usize, budget: usize) -> Self {
        let stride = seq_len.checked_div(budget).unwrap_or(1).max(1);
        StridedPolicy { stride }
    }
}

impl SparsityPolicy for StridedPolicy {
    fn select(&self, ctx: &SelectionContext<'_>) -> TokenSelection {
        let k = ctx.budget.min(ctx.seq_len);
        if k == 0 || ctx.seq_len == 0 {
            return TokenSelection::from_parts(Vec::new(), Vec::new());
        }
        let mut kept = Vec::with_capacity(k);
        let mut pos = ctx.seq_len as isize - 1;
        while pos >= 0 && kept.len() < k {
            kept.push(pos as usize);
            pos -= self.stride as isize;
        }
        TokenSelection::from_parts(kept, Vec::new())
    }

    fn name(&self) -> &'static str {
        "strided"
    }
}

/// **ALISA's Sparse Window Attention** (Algorithm 1).
///
/// The budget is split evenly: `k = ⌊budget/2⌋` *locally static* tokens
/// (the most recent positions, preserving sequential semantics) and `k`
/// *globally dynamic* tokens — the positions with the largest **local
/// attention sum**, i.e. the attention mass received over just the last
/// `history_depth` steps (line 2: `S = Σ AW[n−k : n−1]`).
///
/// The multi-step local sum is the paper's key hypothesis: *"multiple
/// preceding steps can provide better hints on which tokens are more
/// important than a single step"* — and unlike H2O's global sum it needs
/// only O(depth · seq) state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwaPolicy {
    /// Fraction of the budget spent on the locally-static window. The
    /// paper "evenly splits" (0.5); the ablation bench sweeps this.
    local_fraction: f32,
}

impl SwaPolicy {
    /// Creates the SWA policy with the paper's even split (stateless;
    /// the history lives in the caller's [`AttentionHistory`]).
    pub fn new() -> Self {
        SwaPolicy {
            local_fraction: 0.5,
        }
    }

    /// An SWA variant spending `frac ∈ [0, 1]` of the budget on the
    /// local window and the rest on globally dynamic tokens — the
    /// design-choice ablation the `ablation_swa` bin sweeps. `frac = 1.0`
    /// degenerates to local attention, `frac → 0` to pure heavy-hitter
    /// selection.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `[0, 1]`.
    pub fn with_local_fraction(frac: f32) -> Self {
        assert!((0.0..=1.0).contains(&frac), "fraction must be in [0, 1]");
        SwaPolicy {
            local_fraction: frac,
        }
    }

    /// The configured local share of the budget.
    pub fn local_fraction(&self) -> f32 {
        self.local_fraction
    }
}

impl Default for SwaPolicy {
    fn default() -> Self {
        SwaPolicy::new()
    }
}

impl SparsityPolicy for SwaPolicy {
    fn select(&self, ctx: &SelectionContext<'_>) -> TokenSelection {
        let total = ctx.budget.min(ctx.seq_len);
        if total == 0 {
            return TokenSelection::from_parts(Vec::new(), Vec::new());
        }
        // Algorithm 1 with the paper's even split as the default: the
        // local window always keeps at least one token (the current
        // one must stay attendable).
        let k_local = ((total as f32 * self.local_fraction).ceil() as usize).clamp(1, total);
        let k_global = total - k_local;
        let local: Vec<usize> = (ctx.seq_len - k_local..ctx.seq_len).collect();

        // Local attention sum over the retained history rows (line 2),
        // restricted to candidates outside the static window (line 4).
        let sums = ctx.history.local_sums();
        let window_start = ctx.seq_len - k_local;
        let candidates: Vec<usize> = (0..window_start.min(sums.len())).collect();
        let global = top_k_indices_within(&sums, &candidates, k_global);
        TokenSelection::from_parts(local, global)
    }

    fn name(&self) -> &'static str {
        "swa"
    }
}

/// H2O-style heavy-hitter selection \[43\]: same local window, but the
/// dynamic tokens are ranked by the **global** attention sum accumulated
/// since step 0. The paper (§II-B) contrasts this directly with SWA's
/// local sum; globally accumulated mass favours early tokens and decays
/// slowly when topics shift.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct H2oPolicy;

impl SparsityPolicy for H2oPolicy {
    fn select(&self, ctx: &SelectionContext<'_>) -> TokenSelection {
        let total = ctx.budget.min(ctx.seq_len);
        if total == 0 {
            return TokenSelection::from_parts(Vec::new(), Vec::new());
        }
        let k_local = total.div_ceil(2);
        let k_global = total - k_local;
        let local: Vec<usize> = (ctx.seq_len - k_local..ctx.seq_len).collect();
        let sums = ctx.history.global_sums();
        let window_start = ctx.seq_len - k_local;
        let candidates: Vec<usize> = (0..window_start.min(sums.len())).collect();
        let global = top_k_indices_within(sums, &candidates, k_global);
        TokenSelection::from_parts(local, global)
    }

    fn name(&self) -> &'static str {
        "h2o"
    }
}

/// Enumerates the policies compared throughout the evaluation, so
/// experiment configs can name them in data-driven sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// [`DensePolicy`].
    Dense,
    /// [`LocalPolicy`].
    Local,
    /// [`StridedPolicy`] (stride chosen per-context via `covering`).
    Strided,
    /// [`SwaPolicy`].
    Swa,
    /// [`H2oPolicy`].
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

    /// Instantiates the policy. Strided spreads its budget across
    /// `seq_len` positions, matching the paper's Figure 4(c) pattern.
    pub fn instantiate(self, seq_len: usize, budget: usize) -> Box<dyn SparsityPolicy> {
        match self {
            PolicyKind::Dense => Box::new(DensePolicy),
            PolicyKind::Local => Box::new(LocalPolicy),
            PolicyKind::Strided => Box::new(StridedPolicy::covering(seq_len, budget)),
            PolicyKind::Swa => Box::new(SwaPolicy::new()),
            PolicyKind::H2o => Box::new(H2oPolicy),
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
        }
    }

    #[test]
    fn dense_keeps_everything() {
        let h = history_with(&[&[0.5, 0.5]]);
        let sel = DensePolicy.select(&ctx(5, 2, &h));
        assert_eq!(sel.kept, vec![0, 1, 2, 3, 4]);
        assert!(!DensePolicy.is_sparse());
    }

    #[test]
    fn local_keeps_most_recent() {
        let h = history_with(&[&[0.5, 0.5]]);
        let sel = LocalPolicy.select(&ctx(10, 3, &h));
        assert_eq!(sel.kept, vec![7, 8, 9]);
        assert_eq!(sel.local, vec![7, 8, 9]);
        assert!(sel.global.is_empty());
    }

    #[test]
    fn strided_spreads_budget() {
        let h = history_with(&[&[0.0; 12]]);
        let p = StridedPolicy::covering(12, 3); // stride 4
        let sel = p.select(&ctx(12, 3, &h));
        assert_eq!(sel.kept, vec![3, 7, 11]);
    }

    #[test]
    fn strided_stride_one_is_local() {
        let h = history_with(&[&[0.0; 6]]);
        let sel = StridedPolicy::new(1).select(&ctx(6, 3, &h));
        assert_eq!(sel.kept, vec![3, 4, 5]);
    }

    #[test]
    fn swa_splits_budget_local_and_global() {
        // History: token 1 has a huge local attention sum.
        let mut h = AttentionHistory::new(2);
        h.push(&[0.1, 0.8, 0.1]); // step over 3 positions
        h.push(&[0.05, 0.85, 0.05, 0.05]); // step over 4 positions
        let sel = SwaPolicy::new().select(&ctx(8, 4, &h));
        // 2 local (6, 7) + 2 global from positions 0..6 ranked by local sum.
        assert_eq!(sel.local, vec![6, 7]);
        assert_eq!(sel.global.len(), 2);
        assert!(sel.global.contains(&1), "heavy hitter 1 must be kept");
        assert_eq!(sel.kept.len(), 4);
    }

    #[test]
    fn swa_odd_budget_gives_extra_to_local() {
        let h = history_with(&[&[0.2, 0.2, 0.2, 0.2, 0.2]]);
        let sel = SwaPolicy::new().select(&ctx(10, 5, &h));
        assert_eq!(sel.local.len(), 3);
        assert_eq!(sel.global.len(), 2);
    }

    #[test]
    fn swa_with_empty_history_still_keeps_local() {
        let h = AttentionHistory::new(2);
        let sel = SwaPolicy::new().select(&ctx(6, 4, &h));
        assert_eq!(sel.local, vec![4, 5]);
        // No history ⇒ no informed global picks; selection may be short.
        assert!(sel.kept.len() >= 2);
    }

    #[test]
    fn swa_zero_budget_keeps_nothing() {
        let h = history_with(&[&[1.0]]);
        let sel = SwaPolicy::new().select(&ctx(5, 0, &h));
        assert!(sel.is_empty());
        assert_eq!(sel.kv_sparsity(5), 1.0);
    }

    #[test]
    fn swa_budget_larger_than_seq_keeps_all() {
        let h = history_with(&[&[0.25; 4]]);
        let sel = SwaPolicy::new().select(&ctx(4, 100, &h));
        assert_eq!(sel.kept, vec![0, 1, 2, 3]);
    }

    #[test]
    fn swa_split_fraction_extremes() {
        let mut h = AttentionHistory::new(2);
        h.push(&[0.9, 0.05, 0.05]);
        h.push(&[0.85, 0.05, 0.05, 0.05]);
        let c = ctx(10, 4, &h);
        // frac 1.0 degenerates to a pure recency window.
        let all_local = SwaPolicy::with_local_fraction(1.0).select(&c);
        assert_eq!(all_local.kept, vec![6, 7, 8, 9]);
        assert!(all_local.global.is_empty());
        // frac near 0 keeps one local token (the current one) and fills
        // the rest with heavy hitters.
        let mostly_global = SwaPolicy::with_local_fraction(0.0).select(&c);
        assert_eq!(mostly_global.local, vec![9]);
        assert_eq!(mostly_global.global.len(), 3);
        assert!(mostly_global.global.contains(&0), "heavy hitter 0 kept");
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn swa_split_rejects_bad_fraction() {
        let _ = SwaPolicy::with_local_fraction(1.5);
    }

    #[test]
    fn h2o_uses_global_sums() {
        // Step 1 hammered position 0; recent steps favour position 2.
        let mut h = AttentionHistory::new(1); // depth 1: local sum sees only last row
        h.push(&[2.0, 0.0, 0.0]);
        h.push(&[0.0, 0.0, 1.0, 0.0]);
        let c = ctx(8, 2, &h);
        let swa = SwaPolicy::new().select(&c);
        let h2o = H2oPolicy.select(&c);
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
        let m = h.as_matrix();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 0.0); // padded
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
    fn policy_kind_instantiates_all() {
        let h = history_with(&[&[0.25; 4]]);
        for kind in PolicyKind::ALL {
            let p = kind.instantiate(8, 4);
            let sel = p.select(&ctx(8, 4, &h));
            assert!(!sel.kept.is_empty());
            assert_eq!(kind.label(), p.name());
        }
        assert_eq!(PolicyKind::Swa.to_string(), "swa");
    }
}
