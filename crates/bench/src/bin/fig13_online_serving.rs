//! Figure 13 (new experiment, beyond the paper): online serving —
//! arrival rate vs. goodput and tail latency under a shared SLO.
//!
//! The paper evaluates fixed offline batches; this figure asks the
//! production question instead: sweeping a Poisson arrival rate over
//! the paper's Alpaca-style serving workload on the V100-16GB testbed,
//! how many requests per second does each KV-management policy complete
//! *within the SLO*? ALISA's sparsity-aware admission reserves only the
//! sparse working set per request, so the same HBM sustains a
//! several-fold larger continuous batch — which shows up here as higher
//! goodput at every rate and a saturation knee that arrives much later
//! than vLLM's dense paged reservation or FlexGen's static split.
//!
//! ```sh
//! cargo run --release --bin fig13_online_serving [-- --quick] [-- --seed N]
//! ```
//!
//! Each rate's trace is built once and shared by every policy.
//!
//! Observability flag (default output is byte-identical without it):
//! `--events <path>` streams a structured JSONL event log of the
//! highest-rate ALISA run (validate with the `trace_check` bin, render
//! with `alisa_obs::perfetto`). See `docs/OBSERVABILITY.md`.

use alisa_bench::{banner, check_args, events_arg, f, quick_mode, row, seed_arg};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{AdmissionPolicy, ArrivalProcess, ServeConfig, ServeEngine, Trace};
use alisa_workloads::LengthModel;

fn main() {
    check_args(&["--events"]);
    let quick = quick_mode();
    let seed = seed_arg();
    let events = events_arg();
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    // Quick mode keeps the full Alpaca lengths and includes one rate
    // past vLLM's saturation knee (~3 req/s on this testbed) so the
    // ALISA >= vLLM regression gate has teeth in CI, not just in the
    // full sweep.
    let rates: &[f64] = if quick {
        &[1.0, 6.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let n = if quick { 60 } else { 150 };
    let lengths = LengthModel::alpaca();

    banner(
        "Figure 13",
        "Online serving: arrival rate vs goodput under SLO (new experiment; paper evaluates offline batches only)",
    );
    println!("model: {model}\nhardware: {hw}\nseed: {seed}, {n} requests per rate\n");

    let policies = [
        AdmissionPolicy::alisa(),
        AdmissionPolicy::vllm(),
        AdmissionPolicy::flexgen(),
    ];
    let base = ServeConfig::new(model.clone(), hw.clone(), policies[0]);
    println!(
        "SLO: ttft <= {:.2}s, tbt <= {:.1}ms (hardware-derived, same bar for every policy)\n",
        base.slo.ttft_s,
        base.slo.tbt_s * 1e3
    );
    row(
        "rate(r/s) policy",
        [
            "goodput", "slo%", "p50ttft", "p99ttft", "p99tbt", "tok/s", "batch", "rej",
        ],
    );

    let timeout = 5.0 * base.slo.ttft_s;
    let config =
        |policy| ServeConfig::new(model.clone(), hw.clone(), policy).with_queue_timeout(timeout);
    let traces: Vec<Trace> = rates
        .iter()
        .map(|&rate| Trace::generate(&ArrivalProcess::Poisson { rate }, &lengths, n, seed))
        .collect();

    let mut alisa_always_wins = true;
    for (&rate, trace) in rates.iter().zip(&traces) {
        let mut goodputs = Vec::new();
        for policy in policies {
            let report = ServeEngine::new(config(policy)).run(trace);
            row(
                &format!("{rate:>6.1}    {}", policy.name()),
                [
                    f(report.goodput_rps),
                    f(100.0 * report.slo_attainment),
                    f(report.ttft.p50),
                    f(report.ttft.p99),
                    f(report.tbt.p99),
                    f(report.throughput_tps),
                    f(report.mean_batch),
                    f(report.rejected as f64),
                ],
            );
            goodputs.push(report.goodput_rps);
        }
        if goodputs[0] + 1e-12 < goodputs[1] {
            alisa_always_wins = false;
        }
        println!();
    }
    println!(
        "ALISA >= vLLM goodput at every swept rate: {}",
        if alisa_always_wins {
            "yes"
        } else {
            "NO (regression!)"
        }
    );
    println!("\n(paper context: sparsity-aware KV budgeting converts the offline throughput win of Fig. 9 into serving goodput)");
    if let Some(log) = events {
        log.write(|sink| {
            // The highest swept rate exercises the most decision points
            // (saturation => queueing, timeouts, rejections).
            let trace = traces.last().expect("rates is non-empty");
            let _ = ServeEngine::new(config(AdmissionPolicy::alisa())).run_traced(trace, sink);
        });
    }
    if !alisa_always_wins {
        // Fail loudly so the smoke test and CI catch the regression,
        // not just a human reading the table.
        std::process::exit(1);
    }
}
