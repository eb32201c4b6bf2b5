//! Figure 14 (new experiment, beyond the paper): multi-replica serving
//! — offered rate vs. fleet goodput vs. replica count under a shared
//! router.
//!
//! Figure 13 established that ALISA's sparsity-aware admission turns
//! the offline throughput win into single-GPU serving goodput.
//! Production traffic is served by fleets, so this figure opens the
//! scaling axis: the same Poisson load dispatched across 1/2/4 V100
//! replicas by a least-outstanding router, for ALISA and vLLM
//! admission. Two properties are asserted (the process exits nonzero
//! if either fails, so CI catches regressions):
//!
//! 1. **Scaling sanity** — at every fixed offered rate, fleet goodput
//!    is monotonically non-decreasing in replica count, for both
//!    policies.
//! 2. **ALISA ≥ vLLM everywhere** — ALISA admission goodput is at least
//!    vLLM's at every (rate, replica-count) point: the per-GPU
//!    sparsity advantage must survive fleet scale-out.
//!
//! Two informative (ungated) sections follow: a load-balancing policy
//! comparison at one saturated operating point, and a prefill/decode
//! disaggregation demo where the KV handoff is charged through the
//! memsim host-staged transfer model.
//!
//! ```sh
//! cargo run --release --bin fig14_multi_replica [-- --quick] [-- --seed N]
//! ```
//!
//! Each rate's trace is built once and shared by every fleet at that
//! rate; the load-balancing and disaggregation sections re-use the
//! last rate's.

use alisa_bench::{banner, check_args, f, quick_mode, row, seed_arg};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, LoadBalancePolicy, Router, RouterConfig, ServeConfig, Trace,
};
use alisa_workloads::LengthModel;

fn main() {
    check_args(&[]);
    let quick = quick_mode();
    let seed = seed_arg();
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    // Rates straddle the single-replica saturation knee of both
    // policies so replica count has something to rescue.
    let rates: &[f64] = if quick {
        &[2.0, 8.0]
    } else {
        &[1.0, 4.0, 8.0, 16.0]
    };
    let counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let n = if quick { 60 } else { 150 };
    let lengths = LengthModel::alpaca();

    banner(
        "Figure 14",
        "Multi-replica serving: rate vs fleet goodput vs replica count (new experiment; router over replica-local admission)",
    );
    let base = ServeConfig::new(model.clone(), hw.clone(), AdmissionPolicy::alisa());
    let timeout = 5.0 * base.slo.ttft_s;
    println!(
        "model: {model}\nhardware: {hw} (per replica)\nseed: {seed}, {n} requests per rate, \
         least-outstanding dispatch, queue timeout {timeout:.1}s\n"
    );
    row(
        "rate(r/s) policy  replicas",
        ["goodput", "slo%", "p99ttft", "batch", "rej"],
    );

    let fleet = |policy: AdmissionPolicy, replicas: usize| {
        let cfg = ServeConfig::new(model.clone(), hw.clone(), policy).with_queue_timeout(timeout);
        RouterConfig::homogeneous(cfg, replicas)
    };
    let traces: Vec<Trace> = rates
        .iter()
        .map(|&rate| Trace::generate(&ArrivalProcess::Poisson { rate }, &lengths, n, seed))
        .collect();

    let mut monotone = true;
    let mut alisa_always_wins = true;
    for (&rate, trace) in rates.iter().zip(&traces) {
        let mut goodput_at = vec![vec![0.0f64; counts.len()]; 2];
        for (p, policy) in [AdmissionPolicy::alisa(), AdmissionPolicy::vllm()]
            .into_iter()
            .enumerate()
        {
            for (c, &replicas) in counts.iter().enumerate() {
                let report = Router::new(
                    fleet(policy, replicas).with_lb(LoadBalancePolicy::LeastOutstanding),
                )
                .run(trace)
                .fleet;
                row(
                    &format!("{rate:>6.1}    {:<7} {replicas:>3}", policy.name()),
                    [
                        f(report.goodput_rps),
                        f(100.0 * report.slo_attainment),
                        f(report.ttft.p99),
                        f(report.mean_batch),
                        f(report.rejected as f64),
                    ],
                );
                goodput_at[p][c] = report.goodput_rps;
                if c > 0 && report.goodput_rps + 1e-12 < goodput_at[p][c - 1] {
                    monotone = false;
                    println!(
                        "  ^ REGRESSION: {} goodput fell from {:.3} to {:.3} going {} -> {} replicas",
                        policy.name(),
                        goodput_at[p][c - 1],
                        report.goodput_rps,
                        counts[c - 1],
                        replicas
                    );
                }
            }
        }
        for c in 0..counts.len() {
            if goodput_at[0][c] + 1e-12 < goodput_at[1][c] {
                alisa_always_wins = false;
                println!(
                    "  ^ REGRESSION: at {} replicas ALISA {:.3} < vLLM {:.3}",
                    counts[c], goodput_at[0][c], goodput_at[1][c]
                );
            }
        }
        println!();
    }

    // -- Informative: load-balancing policies at one saturated point.
    let lb_rate = *rates.last().expect("rates is non-empty");
    let lb_trace = traces.last().expect("rates is non-empty");
    let lb_replicas = *counts.last().expect("counts is non-empty");
    println!("load balancing at {lb_rate:.0} req/s, {lb_replicas} ALISA replicas:");
    for lb in [
        LoadBalancePolicy::RoundRobin,
        LoadBalancePolicy::LeastOutstanding,
        LoadBalancePolicy::LeastKvPressure,
        LoadBalancePolicy::Sticky { sessions: 16 },
    ] {
        let r = Router::new(fleet(AdmissionPolicy::alisa(), lb_replicas).with_lb(lb)).run(lb_trace);
        println!("  {}", r.summary());
    }

    // -- Informative: prefill/decode disaggregation, KV handoffs priced
    // through the memsim host-staged transfer model.
    println!("\nunified vs prefill/decode disaggregation ({lb_replicas} ALISA replicas):");
    let unified = Router::new(fleet(AdmissionPolicy::alisa(), lb_replicas)).run(lb_trace);
    let disagg =
        Router::new(fleet(AdmissionPolicy::alisa(), lb_replicas).with_disagg(lb_replicas / 2))
            .run(lb_trace);
    println!("  unified            | {}", unified.fleet.summary());
    println!(
        "  {}P+{}D disagg      | {} ({} KV handoffs)",
        disagg.prefill_replicas,
        lb_replicas - disagg.prefill_replicas,
        disagg.fleet.summary(),
        disagg.handoffs
    );

    println!(
        "\ngoodput monotone in replica count at every rate: {}",
        if monotone { "yes" } else { "NO (regression!)" }
    );
    println!(
        "ALISA >= vLLM goodput at every (rate, replicas) point: {}",
        if alisa_always_wins {
            "yes"
        } else {
            "NO (regression!)"
        }
    );
    println!("\n(paper context: once per-GPU KV budgeting is sparsity-aware, replica count and placement become the next lever — the survey's scheduler/placement axis)");
    if !(monotone && alisa_always_wins) {
        std::process::exit(1);
    }
}
