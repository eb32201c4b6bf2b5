//! Multi-turn conversation models for serving traces.
//!
//! Single-shot traces understate the locality real serving traffic has:
//! a follow-up turn re-submits the whole conversation so far, so its KV
//! prefix is *already known* to the system that served the previous
//! turn. [`SessionModel`] generates that shape: seeded conversations
//! whose turn counts and per-turn lengths come from heavy-tailed
//! mixtures (most sessions are short; a tail of deep multi-turn
//! conversations carries a disproportionate share of the tokens —
//! the shape production conversation traces report), with think-time
//! gaps between turns. The serving crate turns these samples into
//! validated session traces (`Trace::generate_sessions`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::serving::{lognormal, LengthModel};

/// Samples the multi-turn structure of conversation `s`: how many
/// turns, each turn's new-user-text and answer lengths, and the gap to
/// the next turn. Everything is a pure function of `(seed, session,
/// turn)`, so traces built from it replay bit-exactly.
///
/// The distributions are two-component mixtures: a `deep_frac` share of
/// sessions draw their turn count from a heavier log-normal
/// (`deep_turn_median`), and a `long_frac` share of individual turns
/// scale their lengths by `long_mult` — the heavy tails that stress
/// KV retention far more than the mean does.
///
/// ```
/// use alisa_workloads::SessionModel;
///
/// let m = SessionModel::chat();
/// let turns = m.turns(3, 42);
/// assert!((1..=m.max_turns).contains(&turns));
/// assert_eq!(turns, m.turns(3, 42), "deterministic per (seed, session)");
///
/// let (new_tokens, output) = m.turn_lengths(3, 0, 42);
/// assert!(new_tokens >= 1 && output >= 1);
/// assert!(m.think_gap_s(3, 0, 42) > 0.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionModel {
    /// Length model for first-turn prompts and every turn's output.
    pub lengths: LengthModel,
    /// Median turns per session (shallow component).
    pub turn_median: f64,
    /// Log-normal sigma of the turn count.
    pub turn_sigma: f64,
    /// Probability a session is "deep" (heavy-tail component).
    pub deep_frac: f64,
    /// Median turns of a deep session.
    pub deep_turn_median: f64,
    /// Hard cap on turns per session.
    pub max_turns: usize,
    /// Median new-user-text length of follow-up turns, tokens (first
    /// turns use the full `lengths` prompt draw).
    pub followup_median: f64,
    /// Log-normal sigma of the follow-up length.
    pub followup_sigma: f64,
    /// Probability an individual turn is "long" (lengths scaled by
    /// `long_mult`).
    pub long_frac: f64,
    /// Length multiplier of a long turn.
    pub long_mult: f64,
    /// Median think time between an answer and the next question (s).
    pub think_median_s: f64,
    /// Log-normal sigma of the think time.
    pub think_sigma: f64,
    /// Conversations stop before their context would exceed this many
    /// tokens (prompt + output of the next turn).
    pub max_context: usize,
}

impl SessionModel {
    /// A chat-assistant preset over the Alpaca-style length model:
    /// median ~2 turns with a deep tail (median 6), follow-ups shorter
    /// than openers, ~8 s think times, 4k context ceiling.
    pub fn chat() -> Self {
        SessionModel {
            lengths: LengthModel::alpaca(),
            turn_median: 2.0,
            turn_sigma: 0.6,
            deep_frac: 0.25,
            deep_turn_median: 6.0,
            max_turns: 12,
            followup_median: 48.0,
            followup_sigma: 0.6,
            long_frac: 0.1,
            long_mult: 3.0,
            think_median_s: 8.0,
            think_sigma: 0.8,
            max_context: 4096,
        }
    }

    /// Overrides the turn cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_turns` is zero.
    pub fn with_max_turns(mut self, max_turns: usize) -> Self {
        assert!(max_turns > 0, "max_turns must be positive");
        self.max_turns = max_turns;
        self
    }

    /// Number of turns of session `s` — a clamped log-normal mixture:
    /// with probability `deep_frac` the draw uses the heavy
    /// `deep_turn_median` component.
    pub fn turns(&self, session: usize, seed: u64) -> usize {
        let mut rng = self.rng(session, usize::MAX, seed, 0);
        let deep: f64 = rng.gen();
        let median = if deep < self.deep_frac {
            self.deep_turn_median
        } else {
            self.turn_median
        };
        let draw = lognormal(&mut rng, median, self.turn_sigma);
        (draw.round() as usize).clamp(1, self.max_turns)
    }

    /// `(new_user_tokens, output_tokens)` of turn `turn` of session
    /// `session`. Turn 0's user text is a full `lengths` prompt draw;
    /// follow-ups draw from the shorter `followup_median` component. A
    /// `long_frac` share of turns scale both lengths by `long_mult`
    /// (clamped to the length model's caps).
    pub fn turn_lengths(&self, session: usize, turn: usize, seed: u64) -> (usize, usize) {
        let (prompt, output) = self.lengths.sample(session * 131 + turn, seed);
        let mut rng = self.rng(session, turn, seed, 1);
        let new_base = if turn == 0 {
            prompt as f64
        } else {
            lognormal(&mut rng, self.followup_median, self.followup_sigma)
        };
        let long: f64 = rng.gen();
        let mult = if long < self.long_frac {
            self.long_mult
        } else {
            1.0
        };
        let new_tokens = ((new_base * mult).round() as usize).clamp(1, self.lengths.max_prompt);
        let output_tokens =
            ((output as f64 * mult).round() as usize).clamp(1, self.lengths.max_output);
        (new_tokens, output_tokens)
    }

    /// Seconds between turn `turn`'s answer and turn `turn + 1`'s
    /// question (log-normal, strictly positive).
    pub fn think_gap_s(&self, session: usize, turn: usize, seed: u64) -> f64 {
        let mut rng = self.rng(session, turn, seed, 2);
        lognormal(&mut rng, self.think_median_s, self.think_sigma).max(1e-3)
    }

    fn rng(&self, session: usize, turn: usize, seed: u64, salt: u64) -> StdRng {
        StdRng::seed_from_u64(
            seed ^ (session as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (turn as u64).wrapping_mul(0xD1B54A32D192ED03)
                ^ salt.wrapping_mul(0x2545F4914F6CDD1D),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let m = SessionModel::chat();
        for s in 0..100 {
            let t = m.turns(s, 7);
            assert_eq!(t, m.turns(s, 7));
            assert!((1..=m.max_turns).contains(&t));
            for turn in 0..t {
                let (new, out) = m.turn_lengths(s, turn, 7);
                assert_eq!((new, out), m.turn_lengths(s, turn, 7));
                assert!(new >= 1 && out >= 1);
                assert!(new <= m.lengths.max_prompt && out <= m.lengths.max_output);
                assert!(m.think_gap_s(s, turn, 7) > 0.0);
            }
        }
        assert_ne!(
            (0..64).map(|s| m.turns(s, 1)).collect::<Vec<_>>(),
            (0..64).map(|s| m.turns(s, 2)).collect::<Vec<_>>(),
            "seed must matter"
        );
    }

    #[test]
    fn turn_distribution_is_heavy_tailed() {
        let m = SessionModel::chat();
        let turns: Vec<usize> = (0..600).map(|s| m.turns(s, 11)).collect();
        let shallow = turns.iter().filter(|&&t| t <= 2).count();
        let deep = turns.iter().filter(|&&t| t >= 5).count();
        assert!(
            shallow > turns.len() / 3,
            "most sessions are short ({shallow}/600 <= 2 turns)"
        );
        assert!(
            deep > turns.len() / 20,
            "a real tail of deep sessions must exist ({deep}/600 >= 5 turns)"
        );
        // The deep tail carries a disproportionate share of the turns.
        let total: usize = turns.iter().sum();
        let deep_turns: usize = turns.iter().filter(|&&t| t >= 5).sum();
        assert!(deep_turns * 2 > total.saturating_sub(deep_turns));
    }

    #[test]
    fn followups_are_shorter_than_openers_on_average() {
        let m = SessionModel::chat();
        let mean = |turn: usize| {
            (0..300)
                .map(|s| m.turn_lengths(s, turn, 3).0 as f64)
                .sum::<f64>()
                / 300.0
        };
        assert!(
            mean(1) < mean(0),
            "follow-up user text ({:.0}) must be shorter than openers ({:.0})",
            mean(1),
            mean(0)
        );
    }

    #[test]
    fn long_turns_appear_at_roughly_the_configured_rate() {
        let m = SessionModel::chat();
        // A "long" turn scales output by 3x; count outliers indirectly
        // by comparing against the same draw with long_frac = 0.
        let mut plain = m.clone();
        plain.long_frac = 0.0;
        let scaled = (0..500)
            .filter(|&s| m.turn_lengths(s, 1, 5) != plain.turn_lengths(s, 1, 5))
            .count();
        let frac = scaled as f64 / 500.0;
        assert!(
            (0.05..0.2).contains(&frac),
            "~10% of turns should be long, got {frac:.2}"
        );
    }

    #[test]
    fn builders_validate() {
        let m = SessionModel::chat().with_max_turns(3);
        assert_eq!(m.max_turns, 3);
        assert!((0..50).all(|s| m.turns(s, 1) <= 3));
    }

    #[test]
    #[should_panic(expected = "max_turns")]
    fn zero_turn_cap_rejected() {
        let _ = SessionModel::chat().with_max_turns(0);
    }
}
