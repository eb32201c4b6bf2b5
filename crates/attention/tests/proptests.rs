//! Property-based tests of the selection contract every policy must
//! uphold (see `PolicyKind::select`'s docs), and of the local attention
//! sum SWA selects on.

use alisa_attention::policy::{AttentionHistory, PolicyKind, SelectionContext};
use proptest::prelude::*;

fn ctx(seq_len: usize, budget: usize, history: &AttentionHistory) -> SelectionContext<'_> {
    SelectionContext {
        seq_len,
        budget,
        history,
        swa_local_fraction: 0.5,
    }
}

fn arbitrary_history() -> impl Strategy<Value = AttentionHistory> {
    (1usize..6, 1usize..40).prop_map(|(depth, seq)| {
        let mut h = AttentionHistory::new(depth);
        for step in 0..depth {
            let len = (seq - depth.min(seq) + step + 1).min(seq);
            let row: Vec<f32> = (0..len)
                .map(|j| ((j * 31 + step * 7) % 101) as f32 / 101.0)
                .collect();
            h.push(&row);
        }
        h
    })
}

proptest! {
    /// Every policy returns ascending, deduplicated, in-range indices
    /// within budget, and always keeps the current (last) token when it
    /// keeps anything at all.
    #[test]
    fn policy_contract(
        h in arbitrary_history(),
        seq_len in 1usize..64,
        budget in 0usize..64,
    ) {
        for kind in PolicyKind::ALL {
            let sel = kind.select(&ctx(seq_len, budget, &h));
            // Ascending and unique.
            for w in sel.kept.windows(2) {
                prop_assert!(w[0] < w[1], "{kind}: indices must ascend");
            }
            // In range.
            for &i in &sel.kept {
                prop_assert!(i < seq_len, "{kind}: index {i} out of range");
            }
            // Within budget (dense exempt).
            if kind != PolicyKind::Dense {
                prop_assert!(sel.kept.len() <= budget, "{kind}: budget exceeded");
            }
            // local ∪ global == kept, disjoint.
            let mut union: Vec<usize> =
                sel.local.iter().chain(sel.global.iter()).copied().collect();
            union.sort_unstable();
            prop_assert_eq!(&union, &sel.kept, "{} parts must partition kept", kind);
            // Non-empty selections include the newest token for local-
            // window-carrying policies.
            if !sel.kept.is_empty() && matches!(kind, PolicyKind::Local | PolicyKind::Swa | PolicyKind::H2o) {
                prop_assert!(sel.kept.contains(&(seq_len - 1)), "{kind}: newest token dropped");
            }
        }
    }

    /// Selection is a pure function of the context (determinism).
    #[test]
    fn selection_is_deterministic(
        h in arbitrary_history(),
        seq_len in 1usize..48,
        budget in 1usize..48,
    ) {
        for kind in PolicyKind::ALL {
            let ctx = ctx(seq_len, budget, &h);
            prop_assert_eq!(kind.select(&ctx), kind.select(&ctx));
        }
    }

    /// SWA's local fraction monotonically trades global slots for local
    /// ones.
    #[test]
    fn swa_split_is_monotone(
        h in arbitrary_history(),
        seq_len in 4usize..48,
        budget in 2usize..24,
    ) {
        let mut last_local = 0usize;
        for frac in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
            let ctx = SelectionContext { swa_local_fraction: frac, ..ctx(seq_len, budget, &h) };
            let sel = PolicyKind::Swa.select(&ctx);
            prop_assert!(sel.local.len() >= last_local, "local share must grow with frac");
            last_local = sel.local.len();
        }
    }

    /// `local_sums` equals, bit for bit, the column sum of the retained
    /// rows zero-padded to `seq_len` — the dense computation it replaces.
    #[test]
    fn local_sums_match_padded_column_sums(
        depth in 1usize..=6,
        rows in proptest::collection::vec(
            proptest::collection::vec(
                // Mostly finite weights, with signed zeros mixed in.
                (0u8..8, -1.0e3f32..1.0e3f32).prop_map(|(pick, w)| match pick {
                    0 => 0.0,
                    1 => -0.0,
                    _ => w,
                }),
                0..24,
            ),
            0..12,
        ),
    ) {
        let mut h = AttentionHistory::new(depth);
        for row in &rows {
            h.push(row);
        }
        let seq_len = rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut padded_sums = vec![0.0f32; seq_len];
        for row in &rows[rows.len().saturating_sub(depth)..] {
            let mut padded = row.clone();
            padded.resize(seq_len, 0.0);
            for (acc, &w) in padded_sums.iter_mut().zip(&padded) {
                *acc += w;
            }
        }
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&h.local_sums()), bits(&padded_sums));
    }
}
