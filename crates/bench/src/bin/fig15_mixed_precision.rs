//! Figure 15 (new experiment, beyond the paper): mixed-precision KV —
//! per-cache-state-region bit-width choice vs. serving goodput.
//!
//! The paper's §V-B quantizes *all* offloaded KV to INT8 (a single
//! on/off switch). Related work (CSR, Double Sparsity) shows the cache
//! is not uniform: a small hot working set wants high precision while
//! the cold remainder tolerates very few bits. This figure sweeps the
//! fig13 arrival rates over three precision policies for ALISA's
//! admission on the V100-16GB testbed:
//!
//! * **FP16-only** — FP16 in every region (the legacy
//!   `compression: false` pricing),
//! * **flat INT8** — CPU-resident remainder at INT8 (the paper's §V-B
//!   operating point, legacy `compression: true`),
//! * **mixed** — GPU hot window FP16, CPU remainder INT8 with an INT4
//!   cold tail, INT8 replica handoffs.
//!
//! Gate (the process exits nonzero on violation): at every swept rate,
//! goodput must be monotone in offload precision —
//! `mixed ≥ flat INT8 ≥ FP16-only`. Same seed ⇒ byte-identical output.
//!
//! ```sh
//! cargo run --release --bin fig15_mixed_precision [-- --quick] [-- --seed N]
//! ```
//!
//! Each rate's trace is built once and shared by all three precisions.

use alisa::PrecisionPolicy;
use alisa_bench::{banner, check_args, f, quick_mode, row, seed_arg};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{AdmissionPolicy, ArrivalProcess, ServeConfig, ServeEngine, Trace};
use alisa_workloads::LengthModel;

fn main() {
    check_args(&[]);
    let quick = quick_mode();
    let seed = seed_arg();
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    // Same sweep as fig13: quick mode keeps one rate past the
    // saturation knee so the monotonicity gate has teeth in CI.
    let rates: &[f64] = if quick {
        &[1.0, 6.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let n = if quick { 60 } else { 150 };
    let lengths = LengthModel::alpaca();

    banner(
        "Figure 15",
        "Mixed-precision KV: per-region bit width vs serving goodput (new experiment; paper's SS V-B is the flat-INT8 point)",
    );
    println!("model: {model}\nhardware: {hw}\nseed: {seed}, {n} requests per rate\n");

    // Ordered coldest-offload-precision last: the gate asserts goodput
    // is monotone non-decreasing along this axis at every rate.
    let configs: [(&str, PrecisionPolicy); 3] = [
        ("FP16-only", PrecisionPolicy::fp16()),
        ("flat-INT8", PrecisionPolicy::int8()),
        ("mixed", PrecisionPolicy::mixed()),
    ];
    for (tag, precision) in &configs {
        let rel = precision.cpu_bytes(1 << 20) as f64 / (1u64 << 20) as f64;
        println!("  {tag:<10} {} (offloaded byte ratio {rel:.3})", precision);
    }
    let base = ServeConfig::new(model.clone(), hw.clone(), AdmissionPolicy::alisa());
    println!(
        "\nSLO: ttft <= {:.2}s, tbt <= {:.1}ms (hardware-derived, same bar for every policy)\n",
        base.slo.ttft_s,
        base.slo.tbt_s * 1e3
    );
    row(
        "rate(r/s) precision",
        [
            "goodput", "slo%", "p50ttft", "p99ttft", "p99tbt", "tok/s", "batch", "rej",
        ],
    );

    let mut monotone = true;
    for &rate in rates {
        let trace = Trace::generate(&ArrivalProcess::Poisson { rate }, &lengths, n, seed);
        let mut prev_goodput = 0.0f64;
        for &(tag, precision) in &configs {
            let policy = AdmissionPolicy::alisa_with(precision);
            let cfg = ServeConfig::new(model.clone(), hw.clone(), policy)
                .with_queue_timeout(5.0 * base.slo.ttft_s);
            let report = ServeEngine::new(cfg).run(&trace);
            row(
                &format!("{rate:>6.1}    {tag}"),
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
            if report.goodput_rps + 1e-12 < prev_goodput {
                monotone = false;
            }
            prev_goodput = report.goodput_rps;
        }
        println!();
    }
    println!(
        "mixed >= flat-INT8 >= FP16-only goodput at every swept rate: {}",
        if monotone { "yes" } else { "NO (regression!)" }
    );
    println!("\n(paper context: SS V-B's uniform INT8 is one point on this axis; pricing each cache-state region separately buys the rest)");
    if !monotone {
        // Fail loudly so the smoke test and CI catch the regression,
        // not just a human reading the table.
        std::process::exit(1);
    }
}
