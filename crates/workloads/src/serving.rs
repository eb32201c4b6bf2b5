//! Request-length models for online serving traces.
//!
//! The offline evaluation fixes `(s, n)` per workload; online serving
//! needs *distributions*. [`LengthModel`] samples per-request prompt and
//! output lengths from a clamped log-normal whose parameters are tied to
//! an evaluation dataset, and modulates the output length by the topic
//! complexity of the corresponding synthetic document: corpus documents
//! that hammer their topic anchors harder stand in for instructions
//! demanding longer answers (the Alpaca-style instruction/response
//! shape the paper's §VI-A serving workload is sampled from).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::corpus::{CorpusSpec, Dataset};

/// Tokens of the corpus document whose anchor count sets a request's
/// topic complexity in [`LengthModel::sample`].
const PROBE_LEN: usize = 48;

/// Samples `(prompt_len, output_len)` pairs for serving traces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LengthModel {
    /// Corpus whose documents modulate per-request output length.
    pub corpus: CorpusSpec,
    /// Median prompt length in tokens.
    pub prompt_median: f64,
    /// Log-normal sigma of the prompt length.
    pub prompt_sigma: f64,
    /// Median output length in tokens.
    pub output_median: f64,
    /// Log-normal sigma of the output length.
    pub output_sigma: f64,
    /// Hard floor on prompt length.
    pub min_prompt: usize,
    /// Hard floor on output length.
    pub min_output: usize,
    /// Hard cap on prompt length.
    pub max_prompt: usize,
    /// Hard cap on output length.
    pub max_output: usize,
    /// Probability a request is a heavy-tail "giant" whose prompt and
    /// output draws are both scaled by `heavy_mult` — the log-normal
    /// mixture machinery of [`crate::SessionModel`]'s `long_frac`,
    /// applied to single-shot requests. Zero (the preset default)
    /// reproduces the plain log-normal byte-for-byte.
    pub heavy_frac: f64,
    /// Length multiplier of a giant request (clamped to the caps).
    pub heavy_mult: f64,
}

impl LengthModel {
    /// Length model for a dataset preset. Alpaca mirrors the paper's
    /// serving workload (`s = 128`, `n = 512` at the medians' scale);
    /// the LM datasets skew longer-prompt/shorter-answer.
    pub fn for_dataset(dataset: Dataset) -> Self {
        let corpus = dataset.spec(4096, 64);
        match dataset {
            Dataset::Alpaca => LengthModel {
                corpus,
                prompt_median: 128.0,
                prompt_sigma: 0.45,
                output_median: 256.0,
                output_sigma: 0.55,
                min_prompt: 16,
                min_output: 16,
                max_prompt: 512,
                max_output: 512,
                heavy_frac: 0.0,
                heavy_mult: 1.0,
            },
            Dataset::WikiText2 | Dataset::PennTreebank => LengthModel {
                corpus,
                prompt_median: 256.0,
                prompt_sigma: 0.5,
                output_median: 128.0,
                output_sigma: 0.5,
                min_prompt: 16,
                min_output: 16,
                max_prompt: 768,
                max_output: 384,
                heavy_frac: 0.0,
                heavy_mult: 1.0,
            },
        }
    }

    /// The paper's serving workload shape (Alpaca-style).
    pub fn alpaca() -> Self {
        Self::for_dataset(Dataset::Alpaca)
    }

    /// A heavy-tailed single-shot mixture: Alpaca-shaped bodies with a
    /// ~10% tail of giant requests whose prompt and output scale 6×
    /// (caps widened so the giants are really giant). On a V100-class
    /// KV budget one giant's dense reservation is a large fraction of
    /// the HBM, so under FCFS a queued giant head-of-line blocks a
    /// stream of cheap requests — the workload shape that separates
    /// size-aware queue disciplines from FCFS.
    pub fn heavy_tailed() -> Self {
        let mut m = Self::alpaca();
        m.max_prompt = 2048;
        m.max_output = 1024;
        m.heavy_frac = 0.1;
        m.heavy_mult = 6.0;
        m
    }

    /// Overrides the heavy-tail mixture parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `heavy_frac` is in `[0, 1]` and `heavy_mult >= 1`.
    pub fn with_heavy_tail(mut self, heavy_frac: f64, heavy_mult: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&heavy_frac),
            "heavy_frac must be in [0, 1]"
        );
        assert!(heavy_mult >= 1.0, "heavy_mult must be >= 1");
        self.heavy_frac = heavy_frac;
        self.heavy_mult = heavy_mult;
        self
    }

    /// Scales the output-length cap (e.g. to keep smoke tests fast).
    /// A cap below the output floor lowers that floor with it, so the
    /// clamp in [`LengthModel::sample`] stays well-formed; the prompt
    /// floor is untouched.
    pub fn with_max_output(mut self, max_output: usize) -> Self {
        assert!(max_output > 0, "max_output must be positive");
        self.max_output = max_output;
        self.min_output = self.min_output.min(max_output);
        self.output_median = self.output_median.min(max_output as f64 / 2.0);
        self
    }

    /// Samples the `(prompt_len, output_len)` of request `idx`,
    /// deterministic per `(seed, idx)`.
    ///
    /// The output median scales with the topic complexity of request
    /// `idx`: the share of anchor tokens in the 48-token corpus
    /// document `idx`, counted without building the document. That
    /// probe is keyed on `(corpus.seed, idx)` only, never on `seed`, so
    /// request `idx` has the same complexity in every trace; `seed`
    /// moves only the length and heavy-tail draws.
    pub fn sample(&self, idx: usize, seed: u64) -> (usize, usize) {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (idx as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ self.corpus.seed,
        );
        let prompt = lognormal(&mut rng, self.prompt_median, self.prompt_sigma);
        // Topic complexity of this request's document: anchor-dense
        // documents (lots of entity recurrence) ask for longer answers.
        let anchor_hits = self.corpus.anchor_hits(idx, PROBE_LEN);
        let complexity = 0.75 + 1.0 * anchor_hits as f64 / PROBE_LEN as f64;
        let output = lognormal(&mut rng, self.output_median * complexity, self.output_sigma);
        // Heavy-tail mixture (mirrors `SessionModel`'s long-turn draw).
        // The extra uniform is only consumed when the mixture is armed,
        // so zero-`heavy_frac` models sample byte-identically to the
        // pre-mixture code.
        let mult = if self.heavy_frac > 0.0 {
            let giant: f64 = rng.gen();
            if giant < self.heavy_frac {
                self.heavy_mult
            } else {
                1.0
            }
        } else {
            1.0
        };
        (
            ((prompt * mult).round() as usize).clamp(self.min_prompt, self.max_prompt),
            ((output * mult).round() as usize).clamp(self.min_output, self.max_output),
        )
    }
}

/// Log-normal draw by Box–Muller over the stub RNG's uniform bits —
/// the one sampling routine shared by [`LengthModel`] and
/// [`crate::SessionModel`], so their distributions cannot drift apart.
pub(crate) fn lognormal(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let m = LengthModel::alpaca();
        for idx in 0..200 {
            let (p1, n1) = m.sample(idx, 42);
            let (p2, n2) = m.sample(idx, 42);
            assert_eq!((p1, n1), (p2, n2));
            assert!((m.min_prompt..=m.max_prompt).contains(&p1));
            assert!((m.min_output..=m.max_output).contains(&n1));
        }
        assert_ne!(m.sample(0, 42), m.sample(0, 43), "seed must matter");
    }

    #[test]
    fn medians_land_near_target() {
        let m = LengthModel::alpaca();
        let mut prompts: Vec<usize> = (0..500).map(|i| m.sample(i, 7).0).collect();
        prompts.sort_unstable();
        let median = prompts[prompts.len() / 2] as f64;
        assert!(
            (median - m.prompt_median).abs() < m.prompt_median * 0.4,
            "median prompt {median} too far from {}",
            m.prompt_median
        );
    }

    #[test]
    fn anchor_dense_documents_answer_longer() {
        // Aggregate effect: the top quartile of anchor-dense documents
        // must skew to longer outputs than the bottom quartile.
        let m = LengthModel::alpaca();
        let mut by_density: Vec<(usize, usize)> = (0..400)
            .map(|i| {
                let probe = m.corpus.sequence(i, PROBE_LEN);
                let hits = probe.iter().filter(|&&t| t < m.corpus.anchor_count).count();
                (hits, m.sample(i, 11).1)
            })
            .collect();
        by_density.sort_unstable();
        let lo: f64 = by_density[..100]
            .iter()
            .map(|&(_, n)| n as f64)
            .sum::<f64>()
            / 100.0;
        let hi: f64 = by_density[300..]
            .iter()
            .map(|&(_, n)| n as f64)
            .sum::<f64>()
            / 100.0;
        assert!(
            hi > lo,
            "anchor-dense docs ({hi:.0}) must out-answer sparse ones ({lo:.0})"
        );
    }

    #[test]
    fn shrunk_cap_shrinks_outputs() {
        let m = LengthModel::alpaca().with_max_output(64);
        for idx in 0..100 {
            assert!(m.sample(idx, 1).1 <= 64);
        }
    }

    #[test]
    fn cap_below_floor_lowers_only_the_output_floor() {
        // A cap under the output floor must not arm a clamp panic in
        // sample(), and must not disturb the prompt distribution.
        let m = LengthModel::alpaca().with_max_output(8);
        assert_eq!(m.min_prompt, 16, "prompt floor untouched");
        for idx in 0..50 {
            let (p, n) = m.sample(idx, 3);
            assert!(n <= 8);
            assert!(p >= m.min_prompt);
        }
    }

    #[test]
    #[should_panic(expected = "max_output")]
    fn zero_cap_rejected() {
        let _ = LengthModel::alpaca().with_max_output(0);
    }

    #[test]
    fn zero_heavy_frac_is_byte_identical_to_plain_alpaca() {
        // The mixture draw must not consume RNG state when disarmed.
        let plain = LengthModel::alpaca();
        let armed_off = LengthModel::alpaca().with_heavy_tail(0.0, 6.0);
        for idx in 0..300 {
            assert_eq!(plain.sample(idx, 17), armed_off.sample(idx, 17));
        }
    }

    #[test]
    fn heavy_tail_giants_appear_at_roughly_the_configured_rate() {
        let heavy = LengthModel::heavy_tailed();
        let plain = {
            let mut m = heavy.clone();
            m.heavy_frac = 0.0;
            m
        };
        let giants = (0..600)
            .filter(|&i| heavy.sample(i, 5) != plain.sample(i, 5))
            .count();
        let frac = giants as f64 / 600.0;
        assert!(
            (0.05..0.2).contains(&frac),
            "~10% of requests should be giants, got {frac:.2}"
        );
        // Giants really are giant: the scaled draws dwarf the medians.
        let (gp, go) = (0..600)
            .map(|i| heavy.sample(i, 5))
            .max_by_key(|&(p, o)| p + o)
            .unwrap();
        assert!(gp + go > 2000, "biggest request ({gp}+{go}) must be giant");
    }

    #[test]
    fn heavy_tail_skews_the_distribution_not_the_body() {
        let heavy = LengthModel::heavy_tailed();
        let mut totals: Vec<usize> = (0..500).map(|i| heavy.sample(i, 23).0).collect();
        totals.sort_unstable();
        let median = totals[250] as f64;
        let p99 = totals[494] as f64;
        assert!(
            p99 > 4.0 * median,
            "tail must dominate the body: p99 {p99} vs median {median}"
        );
        assert!(
            (median - heavy.prompt_median).abs() < heavy.prompt_median,
            "the body stays Alpaca-shaped (median {median})"
        );
    }

    #[test]
    #[should_panic(expected = "heavy_mult")]
    fn sub_unit_heavy_mult_rejected() {
        let _ = LengthModel::alpaca().with_heavy_tail(0.1, 0.5);
    }

    /// `LengthModel::sample` as it was when it built its probe document
    /// and counted the document's anchor tokens, reproduced verbatim.
    fn reference_sample(m: &LengthModel, idx: usize, seed: u64) -> (usize, usize) {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (idx as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ m.corpus.seed,
        );
        let prompt = lognormal(&mut rng, m.prompt_median, m.prompt_sigma);
        let probe = m.corpus.sequence(idx, 48);
        let anchor_hits = probe.iter().filter(|&&t| t < m.corpus.anchor_count).count();
        let complexity = 0.75 + 1.0 * anchor_hits as f64 / probe.len() as f64;
        let output = lognormal(&mut rng, m.output_median * complexity, m.output_sigma);
        let mult = if m.heavy_frac > 0.0 {
            let giant: f64 = rng.gen();
            if giant < m.heavy_frac {
                m.heavy_mult
            } else {
                1.0
            }
        } else {
            1.0
        };
        (
            ((prompt * mult).round() as usize).clamp(m.min_prompt, m.max_prompt),
            ((output * mult).round() as usize).clamp(m.min_output, m.max_output),
        )
    }

    /// The anchor count walks the probe document's draws without
    /// building it. On seeded random models that reach every regime of
    /// the count (no anchors, some, anchors filling the whole
    /// vocabulary, no topics, a front-loaded anchor rate, a one-token
    /// vocabulary, an armed heavy-tail draw; half leave it off), the
    /// count must equal the built document's and `sample` its
    /// reference exactly.
    #[test]
    fn anchor_count_matches_the_built_probe_document() {
        let mut rng = StdRng::seed_from_u64(0xC0FF_EE11);
        // Models per regime, in the order of the doc comment's list.
        let mut reached = [0usize; 7];
        for _ in 0..2_400 {
            let corpus = crate::corpus::random_spec(&mut rng);
            let (vocab_size, anchor_count) = (corpus.vocab_size, corpus.anchor_count);
            let heavy_frac = if rng.gen_bool(0.5) {
                0.0
            } else {
                rng.gen_range(0.01..1.0)
            };
            let m = LengthModel {
                corpus,
                ..LengthModel::alpaca().with_heavy_tail(heavy_frac, rng.gen_range(1.0..6.0))
            };
            for (k, hit) in [
                anchor_count == 0,
                0 < anchor_count && anchor_count < vocab_size,
                anchor_count >= vocab_size,
                corpus.topic_anchors == 0,
                corpus.anchor_front_frac < 1.0,
                vocab_size == 1,
                heavy_frac > 0.0,
            ]
            .into_iter()
            .enumerate()
            {
                reached[k] += usize::from(hit);
            }
            for _ in 0..3 {
                let idx = rng.gen_range(0..1_000_000);
                let seed: u64 = rng.gen();
                let probe = corpus.sequence(idx, PROBE_LEN);
                let want = probe.iter().filter(|&&t| t < anchor_count).count();
                assert_eq!(
                    corpus.anchor_hits(idx, PROBE_LEN),
                    want,
                    "{corpus:?} doc {idx}"
                );
                assert_eq!(
                    m.sample(idx, seed),
                    reference_sample(&m, idx, seed),
                    "{m:?} request {idx} seed {seed}"
                );
            }
        }
        assert!(
            reached.iter().all(|&n| n >= 100),
            "every regime needs coverage: {reached:?}"
        );
    }
}
