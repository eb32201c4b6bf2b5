//! `alisa-perfbench`: the end-to-end and per-layer benchmark of the
//! ALISA reproduction.
//!
//! ```sh
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_512 --seed 7 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload on one thread. It generates the
//! workload's inputs from `--seed`, builds the objects under test, runs
//! one untimed warm-up pass and then timed passes for `--seconds`, and
//! checks and hashes every pass's output outside the timed interval
//! (see `harness`). With `--trace 1` it reports per-layer metrics
//! instead, from spans it records around its own calls into each layer,
//! the simulator's `alisa_obs::profile` phases and a counting event
//! sink, and writes the spans to `perfbench-out/` at exit.
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `perfbench/README.md` documents
//! the workloads, the metrics and their measured spread.

mod cli;
mod count;
mod digest;
mod harness;
mod host;
mod metrics;
mod reference;
mod spans;
mod workloads;

#[cfg(test)]
mod selftest;

use std::path::PathBuf;
use std::process::ExitCode;

use cli::Args;
use harness::{Report, Size};
use workloads::{EngineChat, Fleet512, Name, OfflineSwa};

fn run(args: &Args, size: Size) -> Result<Report, String> {
    match args.workload {
        Name::Fleet512 => harness::run::<Fleet512>(args, size),
        Name::EngineChat => harness::run::<EngineChat>(args, size),
        Name::OfflineSwa => harness::run::<OfflineSwa>(args, size),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let report = match run(&args, Size::Full) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workload = args.workload.as_str();
    println!(
        "perfbench {workload} seed={} trace={} setups={} passes={} (after one untimed warm-up pass)",
        args.seed, args.trace as u8, report.setups, report.passes
    );
    for note in &report.notes {
        println!("failed: {note}");
    }
    println!(
        "ops={} ops_failed={} digest={:016x}",
        report.attempted, report.failed, report.digest
    );
    println!(
        "host.oncpu_s={:.6} host.runq_wait_s={:.6} (over the timed passes)",
        report.host.oncpu_s, report.host.runq_wait_s
    );
    println!(
        "unscaled medians: setup {:.6} s, pass {:.6} s; reference kernel {:.6} s (nominal {} s)",
        report.setup_raw_s,
        report.wall_raw_s,
        report.kernel_s,
        reference::NOMINAL_S
    );
    let [raw, scaled] = report.pass_quartiles;
    println!(
        "pass quartiles: unscaled {:.6} {:.6} {:.6} s, scaled {:.6} {:.6} {:.6} s",
        raw[0], raw[1], raw[2], scaled[0], scaled[1], scaled[2]
    );
    if args.trace {
        println!("self time by span over the timed passes (name, calls, total s, self s):");
        for (name, calls, total, own) in report.spans.self_time_table("timed") {
            println!("  {name:<22} {calls:>6} {total:>12.6} {own:>12.6}");
        }
        let path = PathBuf::from(format!(
            "perfbench-out/spans-{workload}-seed{}.jsonl",
            args.seed
        ));
        match report.spans.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
