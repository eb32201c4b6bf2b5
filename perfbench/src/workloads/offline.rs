//! `offline_swa`: the paper's own path, in two parts timed apart.
//!
//! (a) Fig. 9's ALISA column on OPT-6.7B/V100-16GB at s=128, n=512 over
//!     a few batch sizes: `PlanOptimizer::optimize`, which makes 27 full
//!     `AlisaScheduler` runs, then the tuned run.
//! (b) Fig. 8's functional cell: `evaluate_lm` on `tiny_4l` with SWA+INT8
//!     at 80% KV sparsity, i.e. dense teacher generation followed by SWA
//!     scoring. The benchmark makes `evaluate_lm`'s two calls itself so
//!     they can be timed apart, and checks the result against
//!     `evaluate_lm` once per run.
//!
//! Why: it is the only workload where the `sched` top-K,
//! `kvcache::TokenKvStore` and the `tensor`/`attention`/`model` kernels
//! do the work while `serve` does none. The dense teacher and the SWA
//! scorer use the attention layer in two different ways.

use std::time::Instant;

use alisa_attention::policy::PolicyKind;
use alisa_memsim::HardwareSpec;
use alisa_model::engine::{generate, score_sequence, GenerationConfig};
use alisa_model::{InitSpec, ModelConfig, TinyTransformer};
use alisa_sched::{AlisaScheduler, InferenceSystem, Plan, PlanOptimizer, RunReport};
use alisa_tensor::quant::QuantBits;
use alisa_workloads::{evaluate_lm, CorpusSpec, Dataset};

use crate::digest::Digest;
use crate::harness::{Checked, Parts, Size, Values, Work, Workload};
use crate::spans::Spans;

const SPARSITY: f64 = 0.8;

/// Shape of part (b): sequences, prompt tokens, total tokens each.
#[derive(Debug, Clone, Copy)]
struct Lm {
    seqs: usize,
    prompt_len: usize,
    seq_len: usize,
}

pub struct OfflineSwa {
    target: ModelConfig,
    hw: HardwareSpec,
    batches: Vec<alisa_sched::Workload>,
    model: TinyTransformer,
    corpus: CorpusSpec,
    prompts: Vec<Vec<usize>>,
    lm: Lm,
}

/// Per batch size: the searched plan, the search's best run and the
/// tuned run; then the perplexity of part (b).
pub struct Output {
    searches: Vec<(Plan, RunReport, RunReport)>,
    perplexity: f32,
}

/// ALISA at 80% KV sparsity with the paper's INT8 KV compression.
fn scheduler() -> AlisaScheduler {
    AlisaScheduler::new(SPARSITY, true)
}

/// Fig. 8's "alisa (swa+int8)" method.
fn swa_cfg() -> GenerationConfig {
    GenerationConfig {
        kv_quant: Some(QuantBits::Int8),
        ..GenerationConfig::default().with_policy(PolicyKind::Swa, SPARSITY as f32)
    }
}

/// `evaluate_lm`'s dense teacher for sequence `i`.
fn teacher_cfg(lm: Lm, i: usize) -> GenerationConfig {
    GenerationConfig {
        max_new_tokens: lm.seq_len - lm.prompt_len,
        greedy: false,
        temperature: 0.9,
        seed: i as u64,
        ..GenerationConfig::default()
    }
}

impl OfflineSwa {
    fn plan_search(&self, spans: &mut Spans) -> Vec<(Plan, RunReport, RunReport)> {
        self.batches
            .iter()
            .map(|wl| {
                let (plan, best) = spans.time("sched.plan_search", |_| {
                    PlanOptimizer::default().optimize(&scheduler(), &self.target, &self.hw, wl)
                });
                let tuned = spans.time("sched.run", |_| {
                    scheduler().with_plan(plan).run(&self.target, &self.hw, wl)
                });
                (plan, best, tuned)
            })
            .collect()
    }

    /// `evaluate_lm`'s loop and arithmetic, teacher and scorer timed apart.
    fn perplexity(&self, spans: &mut Spans) -> f32 {
        let (mut nll, mut tokens) = (0.0f64, 0usize);
        for (i, prompt) in self.prompts.iter().enumerate() {
            let teacher = spans.time("model.teacher_gen", |_| {
                generate(&self.model, prompt, &teacher_cfg(self.lm, i))
            });
            let mut text = prompt.clone();
            text.extend(&teacher.tokens);
            let score = spans.time("model.swa_score", |_| {
                score_sequence(&self.model, &text, self.lm.prompt_len, &swa_cfg())
            });
            nll += score.nll.iter().map(|&x| x as f64).sum::<f64>();
            tokens += score.nll.len();
        }
        ((nll / tokens as f64) as f32).exp()
    }
}

impl Workload for OfflineSwa {
    type Output = Output;
    const SETUPS: usize = 31;

    fn setup(seed: u64, size: Size, spans: &mut Spans) -> Self {
        let (batches, output_len, lm) = match size {
            Size::Full => (
                vec![8, 16, 32, 64],
                512,
                Lm {
                    seqs: 3,
                    prompt_len: 16,
                    seq_len: 160,
                },
            ),
            Size::Small => (
                vec![16],
                48,
                Lm {
                    seqs: 1,
                    prompt_len: 8,
                    seq_len: 32,
                },
            ),
        };
        let target = ModelConfig::opt_6_7b();
        let init = InitSpec::default().with_concentration_for_params(target.params());
        let model = spans.time("model.init", |_| {
            TinyTransformer::structured(ModelConfig::tiny_4l(), init)
        });
        let vocab = model.config().vocab_size;
        // The prompts are the workload's generated input: the corpus
        // generator's seed carries the benchmark seed.
        let mut corpus = Dataset::WikiText2.spec(vocab, init.anchor_count(vocab));
        corpus.seed ^= seed;
        let prompts = (0..lm.seqs)
            .map(|i| corpus.sequence(i, lm.prompt_len))
            .collect();
        OfflineSwa {
            target,
            hw: HardwareSpec::v100_16gb(),
            batches: batches
                .into_iter()
                .map(|b| alisa_sched::Workload::new(b, 128, output_len))
                .collect(),
            model,
            corpus,
            prompts,
            lm,
        }
    }

    fn pass(&self, spans: &mut Spans) -> (Output, Option<Parts>) {
        let t0 = Instant::now();
        let searches = self.plan_search(spans);
        let sched_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let perplexity = self.perplexity(spans);
        let gen_s = t1.elapsed().as_secs_f64();
        (
            Output {
                searches,
                perplexity,
            },
            Some(Parts { sched_s, gen_s }),
        )
    }

    fn check(&self, out: Output) -> Checked {
        let mut violations = Vec::new();
        let mut digest = Digest::new();
        for (plan, best, tuned) in &out.searches {
            if !tuned.outcome.is_completed() {
                violations.push(format!("tuned run did not complete: {}", tuned.summary()));
            }
            if tuned.total_time() != best.total_time() {
                violations.push(format!(
                    "tuned run takes {} s, the plan search's best {} s",
                    tuned.total_time(),
                    best.total_time()
                ));
            }
            for v in [plan.alpha, plan.beta, plan.p2_frac] {
                digest.word(v.to_bits());
            }
            digest.run_report(best);
            digest.run_report(tuned);
        }
        if !(out.perplexity.is_finite() && out.perplexity >= 1.0) {
            violations.push(format!("perplexity {} is not a perplexity", out.perplexity));
        }
        digest.word(out.perplexity.to_bits() as u64);
        Checked {
            digest: digest.finish(),
            violations,
        }
    }

    fn count(&self, values: &mut Values) -> Result<Work, String> {
        let mut work = Work::default();
        let (mut runs, mut phase3) = (0u64, 0u64);
        let grid = PlanOptimizer::default();
        for wl in &self.batches {
            // The optimizer's 27 candidates, run one by one to count
            // them, then the tuned run.
            let mut best: Option<(Plan, f64)> = None;
            let mut tally = |report: &RunReport| {
                let steps = report.timeline.len() as u64;
                runs += 1;
                phase3 += report.timeline.phase_records(3).count() as u64;
                work.requests += wl.batch_size as u64;
                work.steps += steps;
                work.sched_tokens += wl.batch_size as u64 * steps.saturating_sub(1);
            };
            for &alpha in &grid.alphas {
                for &beta in &grid.betas {
                    for &p2_frac in &grid.p2s {
                        let plan = Plan {
                            alpha,
                            beta,
                            p2_frac,
                        };
                        let report = scheduler().with_plan(plan).run(&self.target, &self.hw, wl);
                        tally(&report);
                        let t = report.total_time();
                        if report.outcome.is_completed() && best.is_none_or(|(_, b)| t < b) {
                            best = Some((plan, t));
                        }
                    }
                }
            }
            let (plan, _) = grid.optimize(&scheduler(), &self.target, &self.hw, wl);
            if best.map(|(p, _)| p) != Some(plan) {
                return Err(format!(
                    "plan search at batch {} picked {plan:?}, the exhaustive grid {best:?}",
                    wl.batch_size
                ));
            }
            tally(&scheduler().with_plan(plan).run(&self.target, &self.hw, wl));
        }

        let lm = self.lm;
        let ours = self.perplexity(&mut Spans::new(false));
        let reference = evaluate_lm(
            &self.model,
            &self.corpus,
            &swa_cfg(),
            lm.seqs,
            lm.prompt_len,
            lm.seq_len,
        )
        .perplexity;
        if ours.to_bits() != reference.to_bits() {
            return Err(format!(
                "perplexity {ours} differs from evaluate_lm's {reference}"
            ));
        }
        // Each sequence passes seq_len tokens through decode_step twice:
        // once writing the teacher text, once scoring it.
        work.requests += lm.seqs as u64;
        work.gen_tokens = (2 * lm.seqs * lm.seq_len) as u64;

        // Attention work, computed from the step budgets (not measured):
        // every layer attends over the step's budget of K and V rows,
        // FP16 for the dense teacher and INT8 for the SWA+INT8 scorer.
        let cfg = self.model.config();
        let (mut attended, mut bytes) = (0u64, 0u64);
        for (policy, elem_bytes) in [(teacher_cfg(lm, 0), 2u64), (swa_cfg(), 1)] {
            for n in 1..=lm.seq_len {
                let rows = (policy.step_policy(n).budget * cfg.num_layers * lm.seqs) as u64;
                attended += rows;
                bytes += rows * 2 * cfg.hidden_dim as u64 * elem_bytes;
            }
        }
        values.insert("sched.runs", runs as f64);
        values.insert("sched.decode_steps", (work.steps - runs) as f64);
        values.insert("sched.phase3_steps", phase3 as f64);
        values.insert("model.decode_tokens", work.gen_tokens as f64);
        values.insert("attention.attended_tokens", attended as f64);
        values.insert("attention.kv_read_mb", bytes as f64 / (1u64 << 20) as f64);
        Ok(work)
    }
}
