//! The pricing grid: what one ALISA step costs offline against what the
//! serving engine charges for it, cell by cell.
//!
//! Both paths price through the same `SimBase` and `CostModel`
//! formulas, but they differ on ALISA's per-step overhead: serving
//! charges a fixed churn fraction of the resident set, while the
//! offline scheduler simulates offload, reload and Phase-III
//! recompute. This test pins the resulting ratio per cell, so any
//! change to either path's pricing shows up as a diff of
//! `tests/golden/pricing_grid.txt`.
//!
//! Cells: OPT-6.7B, `AlisaScheduler::new(0.8, true)` against
//! `AdmissionPolicy::alisa()`, over hardware × batch × prompt × output.
//! Per cell, the mean decode step (offline timeline records after the
//! prefill, against the mean serving price of the same steps) and the
//! prefill (the offline prefill record, against one serving step that
//! prefills the whole batch), each with its serve/offline ratio. f64
//! values print in shortest round-trip form; `oom` marks a cell the
//! scheduler cannot fit.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_sched::{AlisaScheduler, InferenceSystem, Workload};
use alisa_serve::{AdmissionPolicy, PrefillJob, ServeConfig, ServeEngine};

const BATCHES: [usize; 3] = [4, 16, 64];
const PROMPTS: [usize; 2] = [128, 512];
const OUTPUTS: [usize; 2] = [32, 128];

/// One grid line: offline and serving decode and prefill prices.
fn cell(hw: &HardwareSpec, b: usize, s: usize, n: usize) -> String {
    let model = ModelConfig::opt_6_7b();
    let report = AlisaScheduler::new(0.8, true).run(&model, hw, &Workload::new(b, s, n));
    let engine = ServeEngine::new(ServeConfig::new(
        model,
        hw.clone(),
        AdmissionPolicy::alisa(),
    ));

    let serve_decode = (1..=n)
        .map(|j| engine.step_time(&[], &vec![s + j; b]))
        .sum::<f64>()
        / n as f64;
    let serve_prefill = engine.step_time(&vec![PrefillJob::full(s); b], &[]);

    let prefix = format!("{} b={b} s={s} n={n}", hw.gpu.name);
    if !report.outcome.is_completed() {
        return format!(
            "{prefix} decode offline=oom serve={serve_decode} ratio=oom \
             prefill offline=oom serve={serve_prefill} ratio=oom"
        );
    }
    let records = report.timeline.records();
    let offline_prefill = records[0].total_time();
    let decode = &records[1..];
    let offline_decode = decode.iter().map(|r| r.total_time()).sum::<f64>() / decode.len() as f64;
    format!(
        "{prefix} decode offline={offline_decode} serve={serve_decode} ratio={} \
         prefill offline={offline_prefill} serve={serve_prefill} ratio={}",
        serve_decode / offline_decode,
        serve_prefill / offline_prefill,
    )
}

/// The whole grid, one line per cell.
fn grid() -> String {
    let mut out = String::new();
    for hw in [
        HardwareSpec::v100_16gb(),
        HardwareSpec::v100_32gb(),
        HardwareSpec::h100_80gb(),
    ] {
        for b in BATCHES {
            for s in PROMPTS {
                for n in OUTPUTS {
                    out.push_str(&cell(&hw, b, s, n));
                    out.push('\n');
                }
            }
        }
    }
    out
}

fn golden_path() -> String {
    format!(
        "{}/tests/golden/pricing_grid.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn pricing_grid_matches_golden_fixture() {
    let path = golden_path();
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"));
    assert_eq!(
        grid(),
        golden,
        "offline-vs-serving pricing drifted from {path} \
         (regenerate with `cargo test --test pricing_grid -- --ignored` if intentional)"
    );
}

/// Rewrites the pricing-grid fixture from the current implementation.
/// Ignored so a normal test run can never bless its own regression:
/// `cargo test --test pricing_grid -- --ignored`.
#[test]
#[ignore]
fn regenerate_pricing_grid_fixture() {
    std::fs::write(golden_path(), grid()).expect("write pricing-grid fixture");
}
