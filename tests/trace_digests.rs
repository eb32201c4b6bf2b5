//! Generated serving traces, pinned byte for byte by digest.
//!
//! Every serving figure, example and benchmark scenario starts from a
//! seeded `Trace::generate` or `Trace::generate_sessions` call, and the
//! request lengths those calls draw come from
//! `alisa_workloads::LengthModel::sample`, whose output length depends on
//! the anchor count of a synthetic corpus document. This test pins the
//! generated traces themselves in `tests/golden/trace_digests.txt`: one
//! line per trace with its name, its entry count and an FNV-1a-64 of its
//! `to_text()`.
//!
//! The grid:
//!
//! * `generate` over five length models (Alpaca, the heavy-tailed
//!   mixture, the WikiText-2 and PTB presets, and Alpaca with its output
//!   capped at 64 tokens), Poisson and bursty arrivals, three seeds and
//!   2,000 requests each;
//! * `generate_sessions` over `SessionModel::chat()` and its four-turn
//!   cap, three seeds and 1,000 sessions each;
//! * the benchmark's own inputs at seed 7: `fleet_512`'s 20,000 Alpaca
//!   requests at 1,280 req/s, and `engine_chat`'s four session traces
//!   (0.2–1.6 sessions/s over 10,000 s, trace `k` seeded
//!   `7 ^ (k + 1)·0x9E37_79B9_7F4A_7C15`).
//!
//! The debug build checks all of it in about half a second.

use alisa_serve::{ArrivalProcess, Trace};
use alisa_workloads::{Dataset, LengthModel, SessionModel};

/// Seeds of the `generate` and `generate_sessions` grids.
const SEEDS: [u64; 3] = [1, 42, 0x5EED_CAFE];
/// Requests per `generate` trace.
const REQUESTS: usize = 2_000;
/// Sessions per `generate_sessions` trace.
const SESSIONS: usize = 1_000;
/// The benchmark's seed.
const BENCH_SEED: u64 = 7;

/// The pinned length models, with the names their lines carry.
fn length_models() -> [(&'static str, LengthModel); 5] {
    [
        ("alpaca", LengthModel::alpaca()),
        ("heavy", LengthModel::heavy_tailed()),
        ("wikitext2", LengthModel::for_dataset(Dataset::WikiText2)),
        ("ptb", LengthModel::for_dataset(Dataset::PennTreebank)),
        ("alpaca-max64", LengthModel::alpaca().with_max_output(64)),
    ]
}

/// The pinned arrival processes of the `generate` grid.
fn arrivals() -> [ArrivalProcess; 2] {
    [
        ArrivalProcess::Poisson { rate: 4.0 },
        ArrivalProcess::Bursty {
            rate: 4.0,
            burst: 8.0,
            on_frac: 0.25,
            period_s: 30.0,
        },
    ]
}

/// 64-bit FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn line(out: &mut String, name: &str, trace: &Trace) {
    let digest = fnv1a(trace.to_text().as_bytes());
    out.push_str(&format!("{name} {} {digest:016x}\n", trace.len()));
}

/// One line per trace: the `generate` grid, the session grid, then the
/// benchmark's inputs.
fn lines() -> String {
    let mut out = String::new();
    for (model_name, model) in &length_models() {
        for process in &arrivals() {
            for seed in SEEDS {
                let trace = Trace::generate(process, model, REQUESTS, seed);
                let name = format!("generate/{model_name}/{}/seed{seed}", process.name());
                line(&mut out, &name, &trace);
            }
        }
    }
    let chat = SessionModel::chat();
    for (model_name, model) in [
        ("chat", chat.clone()),
        ("chat-4turns", chat.with_max_turns(4)),
    ] {
        for seed in SEEDS {
            let process = ArrivalProcess::Poisson { rate: 0.5 };
            let trace = Trace::generate_sessions(&process, &model, SESSIONS, seed);
            line(
                &mut out,
                &format!("sessions/{model_name}/seed{seed}"),
                &trace,
            );
        }
    }
    let fleet = Trace::generate(
        &ArrivalProcess::Poisson { rate: 1_280.0 },
        &LengthModel::alpaca(),
        20_000,
        BENCH_SEED,
    );
    line(&mut out, "perfbench/fleet_512", &fleet);
    for (k, rate) in [0.2f64, 0.4, 0.8, 1.6].into_iter().enumerate() {
        let seed = BENCH_SEED ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sessions = (rate * 10_000.0) as usize;
        let trace = Trace::generate_sessions(
            &ArrivalProcess::Poisson { rate },
            &SessionModel::chat(),
            sessions,
            seed,
        );
        line(
            &mut out,
            &format!("perfbench/engine_chat/rate{rate}"),
            &trace,
        );
    }
    out
}

fn golden_path() -> String {
    format!(
        "{}/tests/golden/trace_digests.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

const HEADER: &str = "# trace, entry count, FNV-1a-64 of its to_text(); \
                      regenerate with `cargo test --test trace_digests -- --ignored`\n";

#[test]
fn every_generated_trace_matches_its_digest() {
    let golden = std::fs::read_to_string(golden_path()).expect("missing trace_digests.txt");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let got = lines();
    let got: Vec<&str> = got.lines().collect();
    assert_eq!(got.len(), want.len(), "trace count changed");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g, w,
            "trace drifted from the committed digest \
             (regenerate with `cargo test --test trace_digests -- --ignored` if intentional)"
        );
    }
}

/// Rewrites `tests/golden/trace_digests.txt` from the current
/// implementation. Ignored so a normal test run can never bless its own
/// regression; run explicitly after an intentional output change:
/// `cargo test --test trace_digests -- --ignored`.
#[test]
#[ignore]
fn regenerate_trace_digests() {
    std::fs::write(golden_path(), format!("{HEADER}{}", lines())).expect("write digest fixture");
}
