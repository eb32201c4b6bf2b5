//! Arrival-time generators for online serving traces.
//!
//! Three processes cover the load shapes the KV-management serving
//! literature evaluates under: memoryless open-loop traffic
//! ([`ArrivalProcess::Poisson`]), on/off bursty traffic whose burst
//! phase multiplies the rate ([`ArrivalProcess::Bursty`]), and
//! closed-loop clients that wait for their previous answer plus a think
//! time ([`ArrivalProcess::ClosedLoop`] — the inter-request gaps are
//! produced here; the completion-gating happens in the engine, which is
//! the only place completions are known). All generators are
//! deterministic per seed and emit non-decreasing timestamps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A stochastic arrival process (fully determined by a seed).
///
/// ```
/// use alisa_serve::ArrivalProcess;
///
/// let poisson = ArrivalProcess::Poisson { rate: 4.0 };
/// let times = poisson.arrival_times(100, 42);
/// assert_eq!(times.len(), 100);
/// assert!(times.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
/// assert_eq!(times, poisson.arrival_times(100, 42), "seeded == replayable");
///
/// let bursty = ArrivalProcess::Bursty { rate: 4.0, burst: 8.0, on_frac: 0.25, period_s: 10.0 };
/// assert_eq!(bursty.name(), "bursty");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate` requests/second.
    Poisson {
        /// Mean arrival rate (req/s).
        rate: f64,
    },
    /// On/off modulated Poisson: within each `period_s`, the first
    /// `on_frac` fraction runs `burst ×` hotter than the rest, with
    /// the two phase rates normalized so the *time-averaged* rate is
    /// exactly `rate` — the same long-run pressure as
    /// [`ArrivalProcess::Poisson`] at `rate`, delivered in waves
    /// (`r_off = rate / (on_frac·burst + 1 − on_frac)`,
    /// `r_on = burst · r_off`).
    Bursty {
        /// Long-run mean rate (req/s).
        rate: f64,
        /// On-phase/off-phase rate ratio (`> 1`).
        burst: f64,
        /// Fraction of each period spent in the on-phase, in `(0, 1)`.
        on_frac: f64,
        /// Period of the on/off cycle in seconds.
        period_s: f64,
    },
    /// Sinusoidally-modulated Poisson — the diurnal load shape fleet
    /// autoscaling is evaluated under. The instantaneous rate is
    /// `λ(t) = rate · (1 + swing · sin(2π·(t/period_s − ¼)))`: a
    /// trough of `rate·(1−swing)` at `t = 0`, a peak of
    /// `rate·(1+swing)` at `t = period_s/2`, and a long-run mean of
    /// exactly `rate` — the same total pressure as
    /// [`ArrivalProcess::Poisson`], breathing instead of flat.
    Diurnal {
        /// Long-run mean rate (req/s).
        rate: f64,
        /// Peak-to-mean modulation depth, in `(0, 1)`.
        swing: f64,
        /// Period of one trough→peak→trough cycle in seconds.
        period_s: f64,
    },
    /// `clients` concurrent users, each submitting its next request
    /// `think_s` seconds (exponentially jittered) after its previous
    /// one *completes*.
    ClosedLoop {
        /// Number of concurrent clients.
        clients: usize,
        /// Mean think time between answer and next question (s).
        think_s: f64,
    },
}

impl ArrivalProcess {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
            ArrivalProcess::ClosedLoop { .. } => "closed-loop",
        }
    }

    /// Generates `n` non-decreasing arrival timestamps.
    ///
    /// For [`ArrivalProcess::ClosedLoop`] the timestamps are a minimal
    /// monotone stagger (entry `i` at `i` microseconds): a closed-loop
    /// client's *real* submission time depends on when its previous
    /// request completed, which only the engine knows — it gates entry
    /// `i` (client `i % clients`) on that completion plus a think-time
    /// draw.
    ///
    /// # Panics
    ///
    /// Panics on non-positive rates, burst factors, periods, clients,
    /// or think times.
    pub fn arrival_times(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA221_7A15);
        match *self {
            ArrivalProcess::Poisson { rate } => {
                assert!(rate > 0.0, "rate must be positive");
                let mut t = 0.0;
                (0..n)
                    .map(|_| {
                        t += exp_draw(&mut rng, rate);
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Bursty {
                rate,
                burst,
                on_frac,
                period_s,
            } => {
                assert!(rate > 0.0 && burst > 1.0, "rate > 0 and burst > 1 required");
                assert!(
                    (0.0..1.0).contains(&on_frac) && on_frac > 0.0,
                    "on_frac in (0,1)"
                );
                assert!(period_s > 0.0, "period must be positive");
                // Normalize the phase rates so the time average is
                // exactly `rate`: on_frac·r_on + (1 − on_frac)·r_off
                // = rate with r_on = burst·r_off. Sampled by
                // Lewis–Shedler thinning at r_on (a draw at the
                // instantaneous rate would skip over on-windows and
                // bias the average low).
                let r_off = rate / (on_frac * burst + 1.0 - on_frac);
                let r_on = burst * r_off;
                let mut t = 0.0;
                (0..n)
                    .map(|_| {
                        loop {
                            t += exp_draw(&mut rng, r_on);
                            let phase = (t / period_s).fract();
                            let r = if phase < on_frac { r_on } else { r_off };
                            if rng.gen::<f64>() * r_on <= r {
                                break;
                            }
                        }
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Diurnal {
                rate,
                swing,
                period_s,
            } => {
                assert!(rate > 0.0, "rate must be positive");
                assert!((0.0..1.0).contains(&swing) && swing > 0.0, "swing in (0,1)");
                assert!(period_s > 0.0, "period must be positive");
                // Lewis–Shedler thinning at the peak rate, accepting
                // each candidate with probability λ(t)/λ_peak — the
                // same sampler the bursty process uses, with a smooth
                // modulation instead of a square wave.
                let r_peak = rate * (1.0 + swing);
                let mut t = 0.0;
                (0..n)
                    .map(|_| {
                        loop {
                            t += exp_draw(&mut rng, r_peak);
                            let phase = std::f64::consts::TAU * (t / period_s - 0.25);
                            let r = rate * (1.0 + swing * phase.sin());
                            if rng.gen::<f64>() * r_peak <= r {
                                break;
                            }
                        }
                        t
                    })
                    .collect()
            }
            ArrivalProcess::ClosedLoop { clients, think_s } => {
                assert!(clients > 0, "need at least one client");
                assert!(think_s > 0.0, "think time must be positive");
                (0..n).map(|i| i as f64 * 1e-6).collect()
            }
        }
    }
}

/// Exponential draw with the given rate via inverse CDF.
fn exp_draw(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_hits_target_rate() {
        let p = ArrivalProcess::Poisson { rate: 4.0 };
        let ts = p.arrival_times(2000, 9);
        let measured = 2000.0 / ts.last().unwrap();
        assert!(
            (measured - 4.0).abs() < 0.4,
            "measured rate {measured:.2} far from 4.0"
        );
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ts, p.arrival_times(2000, 9), "must be deterministic");
        assert_ne!(ts, p.arrival_times(2000, 10), "seed must matter");
    }

    #[test]
    fn bursty_alternates_density_but_preserves_mean_rate() {
        let p = ArrivalProcess::Bursty {
            rate: 2.0,
            burst: 6.0,
            on_frac: 0.3,
            period_s: 10.0,
        };
        let ts = p.arrival_times(3000, 3);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        // Long-run average must match `rate`, so bursty-vs-Poisson
        // comparisons at the same `rate` offer the same total load.
        let measured = 3000.0 / ts.last().unwrap();
        assert!(
            (measured - 2.0).abs() < 0.25,
            "time-averaged rate {measured:.2} far from 2.0"
        );
        // On-phase (first 30% of each period) must hold most arrivals.
        let on = ts.iter().filter(|&&t| (t / 10.0).fract() < 0.3).count() as f64;
        assert!(
            on / ts.len() as f64 > 0.6,
            "only {:.0}% of arrivals in the on-phase",
            100.0 * on / ts.len() as f64
        );
    }

    #[test]
    fn diurnal_breathes_but_preserves_mean_rate() {
        let p = ArrivalProcess::Diurnal {
            rate: 2.0,
            swing: 0.8,
            period_s: 20.0,
        };
        let ts = p.arrival_times(4000, 11);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ts, p.arrival_times(4000, 11), "must be deterministic");
        // Long-run average matches `rate`, so diurnal-vs-Poisson
        // comparisons at the same `rate` offer the same total load.
        let measured = 4000.0 / ts.last().unwrap();
        assert!(
            (measured - 2.0).abs() < 0.25,
            "time-averaged rate {measured:.2} far from 2.0"
        );
        // The peak half-period (phase in [0.25, 0.75), centred on the
        // peak at phase 0.5) must hold well over half the arrivals:
        // with swing 0.8 the analytic share is 1/2 + swing/π ≈ 75%.
        let peak_half = ts
            .iter()
            .filter(|&&t| {
                let ph = (t / 20.0).fract();
                (0.25..0.75).contains(&ph)
            })
            .count() as f64;
        let share = peak_half / ts.len() as f64;
        assert!(
            (share - 0.75).abs() < 0.08,
            "peak half-period share {share:.2} far from 0.75"
        );
    }

    #[test]
    #[should_panic(expected = "swing in (0,1)")]
    fn diurnal_swing_must_modulate() {
        let _ = ArrivalProcess::Diurnal {
            rate: 1.0,
            swing: 1.0,
            period_s: 10.0,
        }
        .arrival_times(1, 0);
    }

    #[test]
    fn closed_loop_emits_minimal_stagger() {
        let p = ArrivalProcess::ClosedLoop {
            clients: 8,
            think_s: 2.0,
        };
        let ts = p.arrival_times(64, 5);
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "strictly monotone");
        assert!(ts.iter().all(|&t| t < 1e-3), "nominal arrivals ~immediate");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalProcess::Poisson { rate: 0.0 }.arrival_times(1, 0);
    }
}
