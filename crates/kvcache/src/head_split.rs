//! Head-level static split — the FlexGen substrate (Table I:
//! "Head-level (static)", Figure 7(a)).
//!
//! FlexGen \[31\] solves an offline linear program once and then keeps a
//! *fixed percentage* of every token's KV tensor on the GPU (split along
//! the head dimension) for the entire run. The CPU-resident share of
//! **every cached token** is read at **every** decoding step — a
//! recurring cost, growing linearly with sequence length, that ALISA's
//! Figure 12(a) shows FlexGen paying in phases II/III. Two functions
//! hold the rule: [`solve_fraction`] picks the split before the run,
//! and [`cpu_bytes_per_token`] turns it into each token's CPU bytes,
//! which `FlexGenScheduler` charges per token and per step.
//!
//! # Example
//!
//! ```
//! use alisa_kvcache::head_split::{cpu_bytes_per_token, solve_fraction};
//!
//! // 1000 tokens × 100 B do not fit a 40 kB GPU budget: 60% goes to CPU.
//! let frac = solve_fraction(100, 1000, 40_000);
//! assert_eq!(frac, 0.6);
//! // Each token keeps 40 B on the GPU and 60 B on the CPU, and a step
//! // over 8 cached tokens reads 8 × 60 B of CPU-resident KV.
//! assert_eq!(cpu_bytes_per_token(100, frac), 60);
//! ```

/// Bytes of one token's CPU-resident share when `cpu_fraction` of its
/// `bytes_per_token` KV bytes live on the CPU (the rest stay on the
/// GPU).
///
/// # Panics
///
/// Panics if `cpu_fraction` is outside `[0, 1]` or not finite.
pub fn cpu_bytes_per_token(bytes_per_token: u64, cpu_fraction: f64) -> u64 {
    assert!(
        cpu_fraction.is_finite() && (0.0..=1.0).contains(&cpu_fraction),
        "cpu_fraction must be in [0, 1]"
    );
    (bytes_per_token as f64 * cpu_fraction).round() as u64
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_bytes() {
        assert_eq!(cpu_bytes_per_token(1000, 0.3), 300);
        // Rounded to the nearest byte.
        assert_eq!(cpu_bytes_per_token(10, 0.25), 3);
        assert_eq!(cpu_bytes_per_token(10, 0.24), 2);
    }

    #[test]
    fn per_step_traffic_grows_with_sequence() {
        // Every cached token keeps its own rounded CPU share, so a step
        // over n tokens reads n × share: 1.5 B rounds to 2 B per token,
        // 8 B over 4 tokens rather than 6 B pooled.
        assert_eq!(cpu_bytes_per_token(3, 0.5), 2);
    }

    #[test]
    fn zero_fraction_means_all_gpu() {
        assert_eq!(cpu_bytes_per_token(100, 0.0), 0);
    }

    #[test]
    fn full_fraction_means_all_cpu() {
        assert_eq!(cpu_bytes_per_token(100, 1.0), 100);
    }

    #[test]
    fn solve_fraction_fits_budget() {
        // 1000 tokens × 100 B = 100 kB total; budget 40 kB ⇒ 60% to CPU.
        let f = solve_fraction(100, 1000, 40_000);
        assert!((f - 0.6).abs() < 0.011);
        let gpu_per_token = 100 - cpu_bytes_per_token(100, f);
        assert!(1000 * gpu_per_token <= 40_000);
        // Entirely fits ⇒ fraction 0.
        assert_eq!(solve_fraction(100, 10, 10_000), 0.0);
        // Rounds up to the next percent: 100.25 kB against a 60 kB
        // budget needs 40.15% on the CPU, so the plan takes 41%.
        assert_eq!(solve_fraction(1, 100_250, 60_000), 0.41);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn rejects_bad_fraction() {
        let _ = cpu_bytes_per_token(100, 1.5);
    }
}
