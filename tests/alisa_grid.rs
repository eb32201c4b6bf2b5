//! ALISA's scheduler over the plan search's whole grid, pinned by digest.
//!
//! `PlanOptimizer::optimize` runs Algorithm 2 once for each plan of its
//! 27-point `{α, β, p2}` grid, and the figures print only the run it
//! picks. This test pins every grid plan's run at 40% and 80% KV
//! sparsity under the three precision points (FP16, the paper's INT8
//! offload, mixed precision with an INT4 cold tail), 162 runs per cell,
//! in `tests/golden/alisa_grid_digests.txt`: one line per run with its
//! name, the number of step records, and an FNV-1a-64 over the outcome
//! and the bits of every step record.
//!
//! The cells are chosen by what step (a) of the decode loop evicts
//! (victim counts over a cell's 162 runs):
//!
//! * OPT-6.7B on a V100-16GB at b = 32, s = 128, n = 128: victims from
//!   outside the working set (14,013) and from the global set (135);
//! * OPT-6.7B on a V100-16GB at b = 64, s = 512, n = 32: window victims
//!   only (5,184);
//! * OPT-13B on a V100-32GB at b = 64, s = 128, n = 256: all three
//!   classes (33,075 outside, 6,480 globals, 1,539 window);
//! * OPT-6.7B on an H100-80GB at b = 16, s = 128, n = 32: no eviction,
//!   every step in Phase I;
//! * OPT-13B on a V100-16GB: out of memory while placing the weights.
//!
//! The sequence lengths are short enough that the debug build checks
//! all 810 runs in a few seconds.

use alisa_memsim::{HardwareSpec, StepRecord};
use alisa_model::ModelConfig;
use alisa_sched::{AlisaScheduler, InferenceSystem, Plan, PlanOptimizer, RunReport, Workload};
use alisa_tensor::quant::PrecisionPolicy;

/// The pinned cells: name, model, hardware and workload.
fn cells() -> Vec<(&'static str, ModelConfig, HardwareSpec, Workload)> {
    vec![
        (
            "opt6.7b-v100-16gb-b32-s128-n128",
            ModelConfig::opt_6_7b(),
            HardwareSpec::v100_16gb(),
            Workload::new(32, 128, 128),
        ),
        (
            "opt6.7b-v100-16gb-b64-s512-n32",
            ModelConfig::opt_6_7b(),
            HardwareSpec::v100_16gb(),
            Workload::new(64, 512, 32),
        ),
        (
            "opt13b-v100-32gb-b64-s128-n256",
            ModelConfig::opt_13b(),
            HardwareSpec::v100_32gb(),
            Workload::new(64, 128, 256),
        ),
        (
            "opt6.7b-h100-b16-s128-n32",
            ModelConfig::opt_6_7b(),
            HardwareSpec::h100_80gb(),
            Workload::new(16, 128, 32),
        ),
        (
            "opt13b-v100-16gb-b8-s128-n512",
            ModelConfig::opt_13b(),
            HardwareSpec::v100_16gb(),
            Workload::new(8, 128, 512),
        ),
    ]
}

/// The three precision points, with the labels their lines carry.
fn precisions() -> [(&'static str, PrecisionPolicy); 3] {
    [
        ("fp16", PrecisionPolicy::fp16()),
        ("int8", PrecisionPolicy::int8()),
        ("mixed", PrecisionPolicy::mixed()),
    ]
}

/// Every plan of the optimizer's default grid, in its search order.
fn grid() -> Vec<Plan> {
    let g = PlanOptimizer::default();
    let mut plans = Vec::new();
    for &alpha in &g.alphas {
        for &beta in &g.betas {
            for &p2_frac in &g.p2s {
                plans.push(Plan {
                    alpha,
                    beta,
                    p2_frac,
                });
            }
        }
    }
    plans
}

/// 64-bit FNV-1a, fed bytes and little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// A digest line: the run's name, its record count, and an FNV-1a-64
/// over its outcome and every step record's bits.
fn digest_line(name: &str, report: &RunReport) -> String {
    let mut h = Fnv::new();
    h.bytes(format!("{:?}", report.outcome).as_bytes());
    let records = report.timeline.records();
    for r in records {
        let StepRecord {
            step,
            phase,
            mha_time,
            ffn_time,
            recompute_time,
            load_time,
            store_time,
            quant_time,
            selection_time,
            gpu_mem,
            cpu_mem,
        } = *r;
        h.word(step as u64);
        h.word(u64::from(phase));
        for t in [
            mha_time,
            ffn_time,
            recompute_time,
            load_time,
            store_time,
            quant_time,
            selection_time,
        ] {
            h.word(t.to_bits());
        }
        h.word(gpu_mem);
        h.word(cpu_mem);
    }
    format!("{name} {} {:016x}", records.len(), h.0)
}

/// One line per (cell, sparsity, precision, plan), in that nesting.
fn lines() -> String {
    let mut out = String::new();
    for (cell, model, hw, wl) in &cells() {
        for sparsity in [0.4, 0.8] {
            for (label, precision) in precisions() {
                for plan in grid() {
                    let sys = AlisaScheduler::new(sparsity, false)
                        .with_precision(precision)
                        .with_plan(plan);
                    let name = format!(
                        "{cell}/sp{sparsity}/{label}/a{}-b{}-p{}",
                        plan.alpha, plan.beta, plan.p2_frac
                    );
                    out.push_str(&digest_line(&name, &sys.run(model, hw, wl)));
                    out.push('\n');
                }
            }
        }
    }
    out
}

fn golden_path() -> String {
    format!(
        "{}/tests/golden/alisa_grid_digests.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

const HEADER: &str = "# run, step records, FNV-1a-64 of outcome and record bits; \
                      regenerate with `cargo test --test alisa_grid -- --ignored`\n";

#[test]
fn every_grid_plan_matches_its_digest() {
    let golden = std::fs::read_to_string(golden_path()).expect("missing alisa_grid_digests.txt");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let got = lines();
    let got: Vec<&str> = got.lines().collect();
    assert_eq!(got.len(), want.len(), "run count changed");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g, w,
            "run drifted from the committed digest \
             (regenerate with `cargo test --test alisa_grid -- --ignored` if intentional)"
        );
    }
}

/// Rewrites `tests/golden/alisa_grid_digests.txt` from the current
/// implementation. Ignored so a normal test run can never bless its own
/// regression; run explicitly after an intentional output change:
/// `cargo test --test alisa_grid -- --ignored`.
#[test]
#[ignore]
fn regenerate_grid_digests() {
    std::fs::write(golden_path(), format!("{HEADER}{}", lines())).expect("write digest fixture");
}
