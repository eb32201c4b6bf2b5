//! Figure 17 (new experiment, beyond the paper): queue disciplines —
//! size-aware admission and preemption vs. FCFS under a heavy-tailed
//! request mix.
//!
//! ALISA's sparsity-aware reservation (fig13) decides how much HBM a
//! request *costs*; this figure sweeps the other half of §V-C's
//! scheduler story — in what *order* the freed HBM is spent. The
//! workload is the heavy-tailed single-shot mixture
//! (`LengthModel::heavy_tailed`): Alpaca-shaped bodies with a ~10% tail
//! of 6×-scaled giants, so an FCFS queue regularly has a giant at its
//! head blocking a stream of cheap requests. Over the fig13 arrival
//! rates it compares, per `QueueDiscipline`:
//!
//! * **fcfs** — the legacy order (head-of-line blocking and all),
//! * **sjf** — shortest-job-first over the policy-priced reservation,
//!   aged so nothing starves,
//! * **best-fit** — the largest reservation that fits the headroom,
//! * **preemptive-sjf** — SJF plus eviction of the cheapest-to-restart
//!   victim for candidates blocked past a patience threshold,
//!
//! under ALISA admission pricing, plus vLLM's dense paged pricing under
//! SJF as the cross-policy baseline.
//!
//! Gates (the process exits nonzero on violation): at every swept rate,
//! ALISA sjf goodput >= ALISA fcfs, ALISA preemptive-sjf >= ALISA fcfs,
//! and ALISA sjf >= vLLM sjf. Same seed ⇒ byte-identical output.
//!
//! ```sh
//! cargo run --release --bin fig17_admission [-- --quick] [-- --seed N]
//! ```
//!
//! Each rate's trace is built once and shared by all five
//! configurations.
//!
//! Observability flag (default output is byte-identical without it):
//! `--events <path>` streams a structured JSONL event log of the
//! highest-rate preemptive-SJF run — the richest stream this repo
//! produces (admission pricing, preemption decision traces, timeout
//! rejections). See `docs/OBSERVABILITY.md`.

use alisa_bench::{banner, check_args, events_arg, f, quick_mode, row, seed_arg};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, QueueDiscipline, ServeConfig, ServeEngine, Trace,
};
use alisa_workloads::LengthModel;

fn main() {
    check_args(&["--events"]);
    let quick = quick_mode();
    let seed = seed_arg();
    let events = events_arg();
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    // The fig13 rates; quick mode keeps one rate past the saturation
    // knee so the discipline gates have teeth in CI.
    let rates: &[f64] = if quick {
        &[1.0, 6.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let n = if quick { 60 } else { 150 };
    let lengths = LengthModel::heavy_tailed();

    banner(
        "Figure 17",
        "Queue disciplines: SJF / best-fit / preemption vs FCFS on a heavy-tailed mix (new experiment; §V-C's scheduler as a first-class lever)",
    );
    println!(
        "model: {model}\nhardware: {hw}\nseed: {seed}, {n} requests per rate, heavy tail: {:.0}% of requests at {:.0}x length\n",
        100.0 * lengths.heavy_frac,
        lengths.heavy_mult
    );

    let base = ServeConfig::new(model.clone(), hw.clone(), AdmissionPolicy::alisa());
    let timeout = 5.0 * base.slo.ttft_s;
    // Discipline knobs scale with the SLO so the sweep is
    // hardware-derived end to end: waiters fully age by the queue
    // timeout, and preemption triggers once a candidate has waited a
    // full TTFT budget.
    let sjf = QueueDiscipline::sjf().with_aging(timeout);
    let preemptive = QueueDiscipline::preemptive_sjf()
        .with_aging(timeout)
        .with_patience(base.slo.ttft_s);
    let configs: [(&str, AdmissionPolicy, QueueDiscipline); 5] = [
        (
            "ALISA fcfs",
            AdmissionPolicy::alisa(),
            QueueDiscipline::fcfs(),
        ),
        ("ALISA sjf", AdmissionPolicy::alisa(), sjf),
        (
            "ALISA best-fit",
            AdmissionPolicy::alisa(),
            QueueDiscipline::best_fit(),
        ),
        ("ALISA pre-sjf", AdmissionPolicy::alisa(), preemptive),
        ("vLLM sjf", AdmissionPolicy::vllm(), sjf),
    ];
    println!(
        "SLO: ttft <= {:.2}s, tbt <= {:.1}ms | queue timeout {:.1}s | sjf aging {:.1}s | preemption patience {:.2}s\n",
        base.slo.ttft_s,
        base.slo.tbt_s * 1e3,
        timeout,
        timeout,
        base.slo.ttft_s
    );
    row(
        "rate(r/s) config",
        [
            "goodput", "slo%", "p50ttft", "p99ttft", "tok/s", "preempt", "rej",
        ],
    );

    let config = |policy, discipline| {
        ServeConfig::new(model.clone(), hw.clone(), policy)
            .with_queue_timeout(timeout)
            .with_discipline(discipline)
    };
    let traces: Vec<Trace> = rates
        .iter()
        .map(|&rate| Trace::generate(&ArrivalProcess::Poisson { rate }, &lengths, n, seed))
        .collect();

    let mut sjf_always_wins = true;
    let mut preemptive_always_wins = true;
    let mut alisa_always_wins = true;
    for (&rate, trace) in rates.iter().zip(&traces) {
        let mut goodputs = Vec::new();
        for (tag, policy, discipline) in configs {
            let report = ServeEngine::new(config(policy, discipline)).run(trace);
            let preempt = report
                .discipline
                .as_ref()
                .map_or(0.0, |d| d.preemptions as f64);
            row(
                &format!("{rate:>6.1}    {tag}"),
                [
                    f(report.goodput_rps),
                    f(100.0 * report.slo_attainment),
                    f(report.ttft.p50),
                    f(report.ttft.p99),
                    f(report.throughput_tps),
                    f(preempt),
                    f(report.rejected as f64),
                ],
            );
            goodputs.push(report.goodput_rps);
        }
        if goodputs[1] + 1e-12 < goodputs[0] {
            sjf_always_wins = false;
        }
        if goodputs[3] + 1e-12 < goodputs[0] {
            preemptive_always_wins = false;
        }
        if goodputs[1] + 1e-12 < goodputs[4] {
            alisa_always_wins = false;
        }
        println!();
    }
    let verdict = |ok: bool| if ok { "yes" } else { "NO (regression!)" };
    println!(
        "sjf >= fcfs goodput at every swept rate: {}",
        verdict(sjf_always_wins)
    );
    println!(
        "preemptive-sjf >= fcfs goodput at every swept rate: {}",
        verdict(preemptive_always_wins)
    );
    println!(
        "ALISA >= vLLM goodput at every swept rate: {}",
        verdict(alisa_always_wins)
    );
    println!("\n(paper context: §V-C's scheduler decides which queued request gets the freed HBM — size-aware orderings break the head-of-line blocking FCFS suffers on heavy-tailed traffic)");
    if let Some(log) = events {
        log.write(|sink| {
            // Preemptive SJF at the highest rate: the stream with every
            // decision kind in it, preemption traces included.
            let trace = traces.last().expect("rates is non-empty");
            let cfg = config(AdmissionPolicy::alisa(), preemptive);
            let _ = ServeEngine::new(cfg).run_traced(trace, sink);
        });
    }
    if !(sjf_always_wins && preemptive_always_wins && alisa_always_wins) {
        // Fail loudly so the smoke test and CI catch the regression,
        // not just a human reading the table.
        std::process::exit(1);
    }
}
