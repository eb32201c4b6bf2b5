//! Head-level static split — the FlexGen substrate (Table I:
//! "Head-level (static)", Figure 7(a)).
//!
//! FlexGen \[31\] solves an offline linear program once and then keeps a
//! *fixed percentage* of every token's KV tensor on the GPU (split along
//! the head dimension) for the entire run. The CPU-resident fraction of
//! **every cached token** must stream across the link at **every**
//! decoding step — this recurring traffic, growing linearly with
//! sequence length, is the bottleneck ALISA's Figure 12(a) shows it
//! paying in phases II/III.

use serde::{Deserialize, Serialize};

/// Static head-split KV store.
///
/// # Example
///
/// ```
/// use alisa_kvcache::HeadSplitStore;
///
/// // 25% of each token's KV lives on CPU.
/// let mut s = HeadSplitStore::new(100, 0.25);
/// s.append_tokens(8);
/// assert_eq!(s.gpu_bytes(), 600);
/// assert_eq!(s.cpu_bytes(), 200);
/// // Each step streams the CPU fraction of all tokens:
/// assert_eq!(s.per_step_load_bytes(), 200);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadSplitStore {
    bytes_per_token: u64,
    cpu_fraction: f64,
    tokens: usize,
}

impl HeadSplitStore {
    /// Creates a store sending `cpu_fraction ∈ [0, 1]` of each token's
    /// bytes to the CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_fraction` is outside `[0, 1]` or not finite.
    pub fn new(bytes_per_token: u64, cpu_fraction: f64) -> Self {
        assert!(
            cpu_fraction.is_finite() && (0.0..=1.0).contains(&cpu_fraction),
            "cpu_fraction must be in [0, 1]"
        );
        HeadSplitStore {
            bytes_per_token,
            cpu_fraction,
            tokens: 0,
        }
    }

    /// The static CPU fraction chosen offline.
    pub fn cpu_fraction(&self) -> f64 {
        self.cpu_fraction
    }

    /// Appends `n` new tokens (their bytes split at the static ratio).
    pub fn append_tokens(&mut self, n: usize) {
        self.tokens += n;
    }

    /// Bytes of one token's CPU-resident share.
    pub fn cpu_bytes_per_token(&self) -> u64 {
        (self.bytes_per_token as f64 * self.cpu_fraction).round() as u64
    }

    /// GPU-resident bytes across all tokens.
    pub fn gpu_bytes(&self) -> u64 {
        self.tokens as u64 * (self.bytes_per_token - self.cpu_bytes_per_token())
    }

    /// CPU-resident bytes across all tokens.
    pub fn cpu_bytes(&self) -> u64 {
        self.tokens as u64 * self.cpu_bytes_per_token()
    }

    /// Link traffic one decoding step incurs: the CPU share of **all**
    /// cached tokens streams to the GPU for attention (FlexGen does not
    /// cache it — GPU memory is already the scarce resource).
    pub fn per_step_load_bytes(&self) -> u64 {
        self.cpu_bytes()
    }

    /// Link traffic for storing the newest token's CPU share after the
    /// step.
    pub fn per_step_store_bytes(&self) -> u64 {
        self.cpu_bytes_per_token()
    }

    /// The smallest CPU fraction (in 1% steps) that fits `budget_bytes`
    /// of GPU KV memory once `total_tokens` are cached — the offline
    /// "linear program" FlexGen solves before the run.
    pub fn solve_fraction(bytes_per_token: u64, total_tokens: usize, budget_bytes: u64) -> f64 {
        let total = bytes_per_token * total_tokens as u64;
        if total <= budget_bytes {
            return 0.0;
        }
        let needed = (total - budget_bytes) as f64 / total as f64;
        // Round *up* to the next percent so the plan always fits.
        (needed * 100.0).ceil() / 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_bytes() {
        let mut s = HeadSplitStore::new(1000, 0.3);
        s.append_tokens(10);
        assert_eq!(s.cpu_bytes_per_token(), 300);
        assert_eq!(s.gpu_bytes(), 7000);
        assert_eq!(s.cpu_bytes(), 3000);
    }

    #[test]
    fn per_step_traffic_grows_with_sequence() {
        let mut s = HeadSplitStore::new(100, 0.5);
        s.append_tokens(4);
        let early = s.per_step_load_bytes();
        s.append_tokens(4);
        assert_eq!(s.per_step_load_bytes(), 2 * early, "linear in seq len");
        assert_eq!(s.per_step_store_bytes(), 50);
    }

    #[test]
    fn zero_fraction_means_all_gpu() {
        let mut s = HeadSplitStore::new(100, 0.0);
        s.append_tokens(5);
        assert_eq!(s.cpu_bytes(), 0);
        assert_eq!(s.per_step_load_bytes(), 0);
        assert_eq!(s.gpu_bytes(), 500);
    }

    #[test]
    fn full_fraction_means_all_cpu() {
        let mut s = HeadSplitStore::new(100, 1.0);
        s.append_tokens(5);
        assert_eq!(s.gpu_bytes(), 0);
        assert_eq!(s.cpu_bytes(), 500);
    }

    #[test]
    fn solve_fraction_fits_budget() {
        // 1000 tokens × 100 B = 100 kB total; budget 40 kB ⇒ 60% to CPU.
        let f = HeadSplitStore::solve_fraction(100, 1000, 40_000);
        assert!((f - 0.6).abs() < 0.011);
        let mut s = HeadSplitStore::new(100, f);
        s.append_tokens(1000);
        assert!(s.gpu_bytes() <= 40_000);
        // Entirely fits ⇒ fraction 0.
        assert_eq!(HeadSplitStore::solve_fraction(100, 10, 10_000), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn rejects_bad_fraction() {
        let _ = HeadSplitStore::new(100, 1.5);
    }
}
