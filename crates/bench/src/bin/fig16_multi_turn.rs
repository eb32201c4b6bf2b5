//! Figure 16 (new experiment, beyond the paper): multi-turn sessions —
//! cross-request prefix KV reuse under sticky routing vs. serving
//! goodput.
//!
//! Multi-turn conversations stress KV caching very differently than the
//! single-shot requests of fig13–fig15: a follow-up turn re-submits the
//! whole conversation so far, whose KV the fleet *already built* while
//! serving the previous turn. This figure sweeps a Poisson session
//! arrival rate over a heavy-tailed conversation workload
//! (`SessionModel::chat`) on a 2-replica V100 fleet under sticky
//! session affinity, comparing:
//!
//! * **ALISA+reuse** — sparsity-aware admission with session-KV
//!   retention: a turn whose session prefix is still resident skips its
//!   prefill and only pays attention over the retained sparse KV,
//! * **ALISA** — same fleet, no retention (every turn prefills its full
//!   accumulated prompt),
//! * **vLLM+reuse** — dense paged admission with the same retention
//!   budget (dense prefixes are bigger, so fewer of them stay resident).
//!
//! Gates (the process exits nonzero on violation): at every swept rate,
//! ALISA+reuse goodput >= no-reuse goodput, and ALISA+reuse >=
//! vLLM+reuse. Same seed ⇒ byte-identical output.
//!
//! ```sh
//! cargo run --release --bin fig16_multi_turn [-- --quick] [-- --seed N]
//! ```
//!
//! Each rate's session trace is built once and shared by all three
//! fleet configurations.

use alisa_bench::{banner, check_args, f, quick_mode, row, seed_arg};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, LoadBalancePolicy, RetentionCfg, Router, RouterConfig,
    ServeConfig, Trace,
};
use alisa_workloads::SessionModel;

fn main() {
    check_args(&[]);
    let quick = quick_mode();
    let seed = seed_arg();
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    // Session arrival rates (sessions/s); each session expands into
    // ~2-3 turns on average with a heavy tail of deep conversations.
    // Quick mode keeps one rate past the knee so the gates have teeth
    // in CI.
    let rates: &[f64] = if quick {
        &[0.5, 1.5]
    } else {
        &[0.25, 0.5, 1.0, 2.0]
    };
    let sessions = if quick { 30 } else { 60 };
    let conv = SessionModel::chat().with_max_turns(5);

    banner(
        "Figure 16",
        "Multi-turn sessions: prefix KV reuse under sticky routing vs goodput (new experiment; paper serves single-shot batches)",
    );
    println!(
        "model: {model}\nhardware: 2x {hw} (sticky session affinity)\nseed: {seed}, {sessions} sessions per rate, <= {} turns each\n",
        conv.max_turns
    );

    let base = ServeConfig::new(model.clone(), hw.clone(), AdmissionPolicy::alisa());
    println!(
        "SLO: ttft <= {:.2}s, tbt <= {:.1}ms (hardware-derived, same bar for every policy)\n",
        base.slo.ttft_s,
        base.slo.tbt_s * 1e3
    );
    row(
        "rate(s/s) config",
        [
            "goodput",
            "slo%",
            "p50ttft",
            "p99ttft",
            "tok/s",
            "hits",
            "reused_kt",
            "rej",
        ],
    );

    let configs: [(&str, AdmissionPolicy, Option<RetentionCfg>); 3] = [
        (
            "ALISA+reuse",
            AdmissionPolicy::alisa(),
            Some(RetentionCfg::half()),
        ),
        ("ALISA", AdmissionPolicy::alisa(), None),
        (
            "vLLM+reuse",
            AdmissionPolicy::vllm(),
            Some(RetentionCfg::half()),
        ),
    ];

    let mut reuse_always_wins = true;
    let mut alisa_always_wins = true;
    for &rate in rates {
        let trace =
            Trace::generate_sessions(&ArrivalProcess::Poisson { rate }, &conv, sessions, seed);
        let mut goodputs = Vec::new();
        for &(tag, policy, retention) in &configs {
            let mut replica = ServeConfig::new(model.clone(), hw.clone(), policy)
                .with_queue_timeout(5.0 * base.slo.ttft_s);
            if let Some(r) = retention {
                replica = replica.with_session_reuse(r);
            }
            let report = Router::new(
                RouterConfig::homogeneous(replica, 2).with_lb(LoadBalancePolicy::sticky()),
            )
            .run(&trace);
            let reuse = report.fleet.reuse.unwrap_or_default();
            row(
                &format!("{rate:>6.2}   {tag}"),
                [
                    f(report.fleet.goodput_rps),
                    f(100.0 * report.fleet.slo_attainment),
                    f(report.fleet.ttft.p50),
                    f(report.fleet.ttft.p99),
                    f(report.fleet.throughput_tps),
                    f(reuse.hits as f64),
                    f(reuse.reused_tokens as f64 / 1e3),
                    f(report.fleet.rejected as f64),
                ],
            );
            goodputs.push(report.fleet.goodput_rps);
        }
        if goodputs[0] + 1e-12 < goodputs[1] {
            reuse_always_wins = false;
        }
        if goodputs[0] + 1e-12 < goodputs[2] {
            alisa_always_wins = false;
        }
        println!();
    }
    println!(
        "sticky+prefix-reuse >= no-reuse goodput at every swept rate: {}",
        if reuse_always_wins {
            "yes"
        } else {
            "NO (regression!)"
        }
    );
    println!(
        "ALISA >= vLLM goodput at every swept rate: {}",
        if alisa_always_wins {
            "yes"
        } else {
            "NO (regression!)"
        }
    );
    println!("\n(paper context: token-level sparsity makes retained prefixes small enough to keep — the serving-side locality win the KV-cache surveys point at)");
    if !(reuse_always_wins && alisa_always_wins) {
        // Fail loudly so the smoke test and CI catch the regression,
        // not just a human reading the table.
        std::process::exit(1);
    }
}
