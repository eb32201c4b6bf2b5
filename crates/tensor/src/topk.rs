//! Index-selection helpers: arg-max and candidate-restricted top-k.
//!
//! Algorithm 1 line 4 (`I_g = argmaxₖ S`) selects the `k` globally dynamic
//! tokens with the largest local attention sums. Ties are broken toward
//! the **more recent** token (larger index), matching the recency prior
//! the rest of the algorithm encodes; the choice is deterministic so every
//! experiment is reproducible.

/// Index of the maximum element, ties broken toward the larger index.
/// Returns `None` for an empty slice.
pub fn argmax(xs: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in xs.iter().enumerate() {
        match best {
            Some((_, bv)) if v < bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Indices of the `k` largest `xs[i]` among `candidates`, **sorted
/// ascending by index**; all candidates if `k >= candidates.len()`.
///
/// SWA only draws global tokens from positions *outside* its local
/// window, and H2O likewise; passing those positions as candidates keeps
/// the selection logic in one place. Ascending index order keeps the
/// kept set in temporal order.
///
/// The winners are found by partial selection and only they are sorted.
/// Ranking is by value descending, ties toward the larger (more recent)
/// index: on finite values that is a strict total order, so the `k`
/// winners are the same set a full sort would put first.
pub fn top_k_indices_within(xs: &[f32], candidates: &[usize], k: usize) -> Vec<usize> {
    let k = k.min(candidates.len());
    if k == 0 {
        return Vec::new();
    }
    let mut cand: Vec<usize> = candidates.to_vec();
    cand.select_nth_unstable_by(k - 1, |&a, &b| {
        xs[b]
            .partial_cmp(&xs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.cmp(&a))
    });
    cand.truncate(k);
    cand.sort_unstable();
    cand
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every position of `xs` as a candidate.
    fn all(xs: &[f32]) -> Vec<usize> {
        (0..xs.len()).collect()
    }

    #[test]
    fn argmax_basic_and_empty() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_tie_prefers_recent() {
        assert_eq!(argmax(&[5.0, 5.0, 1.0]), Some(1));
    }

    #[test]
    fn top_k_returns_sorted_indices_of_largest() {
        let xs = [0.1, 0.9, 0.3, 0.7];
        assert_eq!(top_k_indices_within(&xs, &all(&xs), 2), vec![1, 3]);
    }

    #[test]
    fn top_k_handles_oversized_k() {
        let xs = [1.0, 2.0];
        assert_eq!(top_k_indices_within(&xs, &all(&xs), 10), vec![0, 1]);
        assert!(top_k_indices_within(&xs, &all(&xs), 0).is_empty());
    }

    #[test]
    fn top_k_tie_prefers_recent_token() {
        // Two equal values — the later position should win the single slot.
        let xs = [4.0, 4.0, 0.0];
        assert_eq!(top_k_indices_within(&xs, &all(&xs), 1), vec![1]);
    }

    #[test]
    fn top_k_within_restricts_candidates() {
        let xs = [10.0, 1.0, 5.0, 3.0];
        // Even though index 0 is globally max, it is not a candidate.
        assert_eq!(top_k_indices_within(&xs, &[1, 2, 3], 2), vec![2, 3]);
    }
}
