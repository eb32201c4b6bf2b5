//! Synthetic corpora with natural-language statistics.
//!
//! Three properties of real text matter to KV-sparsity methods, and the
//! generator reproduces each:
//!
//! 1. **Zipfian unigrams** — token frequencies follow a power law.
//! 2. **Local coherence** — recent tokens recur (n-gram structure),
//!    which recency windows exploit.
//! 3. **Topic anchors** — a handful of content tokens per document
//!    recur across long ranges (the `capital`/`France` example of
//!    §III-B); these become attention heavy hitters and are what SWA's
//!    globally-dynamic half must track.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Precomputed truncated-Zipf weight table: `weights[k] = 1/(k+1)^s`
/// and `norm` their left-to-right sum — exactly the terms, in exactly
/// the order, the inverse-CDF walk in [`CorpusSpec::zipf_sample`] used
/// to recompute per draw. Rebuilding the table cost ~`cap` `powf`
/// calls per sampled token; the cache makes it one build per distinct
/// `(cap, exponent)` per thread, with the sampling arithmetic
/// byte-identical (pinned by the `cached_tables_match_the_recomputed_walk`
/// test below). Trace generation samples no background token
/// (`LengthModel::sample` counts its probe document's anchors through
/// [`CorpusSpec::anchor_hits`], which never resolves one), so the
/// table serves [`CorpusSpec::sequence`]: the functional path's
/// prompts and texts and the figure bins' documents.
struct ZipfTable {
    weights: Vec<f64>,
    norm: f64,
}

thread_local! {
    static ZIPF_TABLES: RefCell<HashMap<(usize, u64), Rc<ZipfTable>>> =
        RefCell::new(HashMap::new());
}

fn zipf_table(cap: usize, s: f64) -> Rc<ZipfTable> {
    ZIPF_TABLES.with(|cache| {
        Rc::clone(
            cache
                .borrow_mut()
                .entry((cap, s.to_bits()))
                .or_insert_with(|| {
                    let weights: Vec<f64> = (1..=cap).map(|k| 1.0 / (k as f64).powf(s)).collect();
                    let norm = weights.iter().sum();
                    Rc::new(ZipfTable { weights, norm })
                }),
        )
    })
}

/// The evaluation datasets of the paper, used as named presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// WikiText-2-like: broad vocabulary, strong topic anchors.
    WikiText2,
    /// Penn Treebank-like: smaller vocabulary, tighter locality.
    PennTreebank,
    /// Alpaca-like: instruction/response structure, bursty anchors.
    Alpaca,
}

impl Dataset {
    /// All language-modeling datasets in Figure 8's order.
    pub const LM_ALL: [Dataset; 3] = [Dataset::WikiText2, Dataset::PennTreebank, Dataset::Alpaca];

    /// The corpus generator parameters this dataset preset uses.
    pub fn spec(self, vocab_size: usize, anchor_count: usize) -> CorpusSpec {
        match self {
            Dataset::WikiText2 => CorpusSpec {
                vocab_size,
                anchor_count,
                zipf_exponent: 1.1,
                topic_anchors: 4,
                p_anchor: 0.12,
                p_repeat: 0.25,
                anchor_front_frac: 1.0,
                seed: 0x3712,
            },
            Dataset::PennTreebank => CorpusSpec {
                vocab_size,
                anchor_count,
                zipf_exponent: 1.3,
                topic_anchors: 3,
                p_anchor: 0.10,
                p_repeat: 0.35,
                anchor_front_frac: 1.0,
                seed: 0x9713,
            },
            Dataset::Alpaca => CorpusSpec {
                vocab_size,
                anchor_count,
                zipf_exponent: 1.0,
                topic_anchors: 5,
                p_anchor: 0.16,
                p_repeat: 0.20,
                anchor_front_frac: 1.0,
                seed: 0xA19A,
            },
        }
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Dataset::WikiText2 => "Wiki-Text-2",
            Dataset::PennTreebank => "PTB",
            Dataset::Alpaca => "Alpaca",
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Parameters of the synthetic corpus generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// Vocabulary size (must match the model's).
    pub vocab_size: usize,
    /// Number of anchor tokens at the front of the vocabulary (must
    /// match the model's `InitSpec::anchor_count`).
    pub anchor_count: usize,
    /// Zipf exponent for the background unigram distribution.
    pub zipf_exponent: f64,
    /// How many distinct anchors a single sequence revolves around.
    pub topic_anchors: usize,
    /// Probability a token is one of the sequence's topic anchors.
    pub p_anchor: f64,
    /// Probability a token repeats one of the last 4 tokens.
    pub p_repeat: f64,
    /// Fraction of the sequence in which topic anchors appear at full
    /// rate; afterwards their rate drops 10×. `1.0` spreads anchors
    /// uniformly; small values model documents that introduce their key
    /// entities early (the paper's "capital of France" pattern), which
    /// is the regime where recency windows lose them entirely.
    pub anchor_front_frac: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl CorpusSpec {
    /// Generates one sequence of `len` tokens; `idx` selects the
    /// document (deterministic per `(seed, idx)`).
    pub fn sequence(&self, idx: usize, len: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::with_capacity(len);
        self.walk(idx, len, |draw| {
            let tok = match draw {
                Draw::Topic(tok) => tok,
                Draw::Repeat(back) => out[out.len() - back],
                Draw::Background(u) => self.zipf_sample(u),
            };
            out.push(tok);
        });
        out
    }

    /// Number of anchor tokens (`t < anchor_count`) in
    /// `sequence(idx, len)`, counted without building the document: the
    /// same walk, each position resolved to an anchor flag instead of a
    /// token. A topic is drawn from `0..anchor_count.max(1)`, so it is an
    /// anchor iff `anchor_count > 0`; a background token's support starts
    /// at `anchor_count.min(vocab_size - 1)`, so it is one iff
    /// `anchor_count >= vocab_size`; a repeat copies the flag it repeats,
    /// so only the last four flags are kept.
    pub(crate) fn anchor_hits(&self, idx: usize, len: usize) -> usize {
        let background = self.anchor_count >= self.vocab_size;
        // Flags of the last four positions, each at its position mod 4.
        let mut recent = [false; 4];
        let (mut pos, mut hits) = (0, 0);
        self.walk(idx, len, |draw| {
            let anchor = match draw {
                Draw::Topic(tok) => tok < self.anchor_count,
                Draw::Repeat(back) => recent[(pos - back) % 4],
                Draw::Background(_) => background,
            };
            recent[pos % 4] = anchor;
            pos += 1;
            hits += usize::from(anchor);
        });
        hits
    }

    /// Walks the draw stream of document `idx`, handing `visit` one
    /// [`Draw`] per position. Every RNG draw a document makes happens
    /// here, in this order: the topic anchors, then per position a
    /// uniform and, by its value, a topic pick, a repeat lag or a
    /// background uniform. [`CorpusSpec::sequence`] and
    /// [`CorpusSpec::anchor_hits`] differ only in how they resolve the
    /// draws.
    fn walk(&self, idx: usize, len: usize, mut visit: impl FnMut(Draw)) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (idx as u64).wrapping_mul(0x9E3779B9));
        // This document's topic anchors, drawn from the anchor region.
        let topics: Vec<usize> = (0..self.topic_anchors)
            .map(|_| rng.gen_range(0..self.anchor_count.max(1)))
            .collect();
        let front_limit = (len as f64 * self.anchor_front_frac) as usize;
        for pos in 0..len {
            let u: f64 = rng.gen();
            let p_anchor = if pos < front_limit {
                self.p_anchor
            } else {
                self.p_anchor * 0.1
            };
            visit(if u < p_anchor && !topics.is_empty() {
                Draw::Topic(topics[rng.gen_range(0..topics.len())])
            } else if u < p_anchor + self.p_repeat && pos >= 2 {
                Draw::Repeat(rng.gen_range(1..=pos.min(4)))
            } else {
                Draw::Background(rng.gen())
            });
        }
    }

    /// Zipf sample over the non-anchor region via inverse-CDF on a
    /// truncated harmonic series (rejection-free), for the uniform `u`
    /// in `[0, 1)`.
    fn zipf_sample(&self, u: f64) -> usize {
        let lo = self.anchor_count.min(self.vocab_size - 1);
        let n = self.vocab_size - lo;
        // Inverse-CDF approximation for Zipf(s): u^( -1/(s-1) ) style is
        // unstable at s ≈ 1, so use a simple cumulative walk over a
        // capped support for determinism and correctness. The weight
        // terms come from the thread-local [`ZipfTable`] cache; the
        // subtract walk below replays the recomputed version exactly.
        let cap = n.min(512);
        let table = zipf_table(cap, self.zipf_exponent);
        let mut u = u * table.norm;
        for (k, &w) in table.weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return lo + k * n / cap;
            }
        }
        lo + n - 1
    }
}

/// A seeded random spec for differential tests: one in ten has a
/// one-token vocabulary, the anchor count is zero, inside the vocabulary
/// or at least its size with equal odds, a sixth have no topics,
/// and half front-load their anchors.
#[cfg(test)]
pub(crate) fn random_spec(rng: &mut StdRng) -> CorpusSpec {
    let vocab_size = if rng.gen_bool(0.1) {
        1
    } else {
        rng.gen_range(1..=700)
    };
    let anchor_count = match rng.gen_range(0..3) {
        0 => 0,
        1 => rng.gen_range(0..vocab_size),
        _ => rng.gen_range(vocab_size..=vocab_size + 4),
    };
    CorpusSpec {
        vocab_size,
        anchor_count,
        zipf_exponent: rng.gen_range(0.6..1.6),
        topic_anchors: rng.gen_range(0..=5),
        p_anchor: rng.gen_range(0.0..0.6),
        p_repeat: rng.gen_range(0.0..0.5),
        anchor_front_frac: if rng.gen_bool(0.5) {
            1.0
        } else {
            rng.gen_range(0.0..1.0)
        },
        seed: rng.gen(),
    }
}

/// What one position of a document walk drew, before it is resolved to
/// a token.
enum Draw {
    /// One of the document's topic anchors.
    Topic(usize),
    /// A copy of the token `back` positions earlier (`1..=4`).
    Repeat(usize),
    /// A background Zipf token, as its uniform.
    Background(f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CorpusSpec {
        Dataset::WikiText2.spec(256, 13)
    }

    #[test]
    fn sequences_are_deterministic() {
        let s = spec();
        assert_eq!(s.sequence(0, 64), s.sequence(0, 64));
        assert_ne!(s.sequence(0, 64), s.sequence(1, 64));
    }

    #[test]
    fn tokens_are_in_vocabulary() {
        let s = spec();
        for idx in 0..4 {
            let seq = s.sequence(idx, 128);
            assert_eq!(seq.len(), 128);
            assert!(seq.iter().all(|&t| t < s.vocab_size));
        }
    }

    #[test]
    fn anchors_recur_over_long_ranges() {
        let s = spec();
        let seq = s.sequence(0, 256);
        // Each topic anchor should appear many times, spread out.
        let anchor_hits: Vec<usize> = seq
            .iter()
            .enumerate()
            .filter(|(_, &t)| t < s.anchor_count)
            .map(|(i, _)| i)
            .collect();
        assert!(
            anchor_hits.len() > 256 / 10,
            "anchors too rare: {}",
            anchor_hits.len()
        );
        let span = anchor_hits.last().unwrap() - anchor_hits.first().unwrap();
        assert!(span > 128, "anchor occurrences must span the sequence");
    }

    #[test]
    fn unigram_distribution_is_skewed() {
        let s = spec();
        let mut counts = vec![0usize; s.vocab_size];
        for idx in 0..8 {
            for t in s.sequence(idx, 256) {
                counts[t] += 1;
            }
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top10: usize = counts.iter().take(10).sum();
        assert!(
            top10 as f64 / total as f64 > 0.3,
            "top-10 tokens must carry >30% of mass (Zipf), got {:.2}",
            top10 as f64 / total as f64
        );
    }

    /// Differential pin of the weight-table cache and the draw walker: a
    /// reference generator that draws inline and recomputes `1/k^s` and
    /// the norm inside every draw (the pre-cache hot path, reproduced
    /// verbatim) must emit the same token at every position of every
    /// document, for every preset and for random specs that reach what
    /// no preset does (no topics, a front fraction below 1, anchors
    /// filling the vocabulary, a one-token vocabulary) — i.e. the cache
    /// and the walker changed where the terms and draws live, not one
    /// bit of the sampled stream.
    #[test]
    fn cached_tables_match_the_recomputed_walk() {
        fn reference_sequence(spec: &CorpusSpec, idx: usize, len: usize) -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ (idx as u64).wrapping_mul(0x9E3779B9));
            let topics: Vec<usize> = (0..spec.topic_anchors)
                .map(|_| rng.gen_range(0..spec.anchor_count.max(1)))
                .collect();
            let mut out: Vec<usize> = Vec::with_capacity(len);
            let front_limit = (len as f64 * spec.anchor_front_frac) as usize;
            for pos in 0..len {
                let u: f64 = rng.gen();
                let p_anchor = if pos < front_limit {
                    spec.p_anchor
                } else {
                    spec.p_anchor * 0.1
                };
                let tok = if u < p_anchor && !topics.is_empty() {
                    topics[rng.gen_range(0..topics.len())]
                } else if u < p_anchor + spec.p_repeat && out.len() >= 2 {
                    let back = rng.gen_range(1..=out.len().min(4));
                    out[out.len() - back]
                } else {
                    // The original per-draw recomputation.
                    let lo = spec.anchor_count.min(spec.vocab_size - 1);
                    let n = spec.vocab_size - lo;
                    let cap = n.min(512);
                    let s = spec.zipf_exponent;
                    let norm: f64 = (1..=cap).map(|k| 1.0 / (k as f64).powf(s)).sum();
                    let mut u: f64 = rng.gen::<f64>() * norm;
                    let mut tok = lo + n - 1;
                    for k in 1..=cap {
                        u -= 1.0 / (k as f64).powf(s);
                        if u <= 0.0 {
                            tok = lo + (k - 1) * n / cap;
                            break;
                        }
                    }
                    tok
                };
                out.push(tok);
            }
            out
        }
        for dataset in Dataset::LM_ALL {
            // Both vocabulary regimes: support wider than the 512-term
            // cap truncation and narrower than it.
            for (vocab, anchors) in [(4096usize, 64usize), (256, 13)] {
                let spec = dataset.spec(vocab, anchors);
                for idx in 0..8 {
                    assert_eq!(
                        spec.sequence(idx, 192),
                        reference_sequence(&spec, idx, 192),
                        "{dataset} vocab={vocab} doc {idx}"
                    );
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(0x5EC5);
        for _ in 0..300 {
            let spec = random_spec(&mut rng);
            let idx = rng.gen_range(0..1_000);
            assert_eq!(
                spec.sequence(idx, 40),
                reference_sequence(&spec, idx, 40),
                "{spec:?} doc {idx}"
            );
        }
    }

    #[test]
    fn presets_differ() {
        let a = Dataset::WikiText2.spec(256, 13);
        let b = Dataset::PennTreebank.spec(256, 13);
        let c = Dataset::Alpaca.spec(256, 13);
        assert_ne!(a.sequence(0, 32), b.sequence(0, 32));
        assert_ne!(b.sequence(0, 32), c.sequence(0, 32));
        assert_eq!(Dataset::WikiText2.label(), "Wiki-Text-2");
    }
}
