//! Smoke tests: every figure binary must run to completion in `--quick`
//! mode. This keeps the full experiment harness from rotting. Each is
//! also pinned byte-for-byte: the serving figures' (fig13–fig18)
//! `--quick` stdout (default seed 42) must equal the committed
//! `tests/golden/<bin>_quick_seed42.txt`, and the performance- and
//! functional-path figures' (which take no seed)
//! `tests/golden/<bin>_quick.txt`. The serving figures' `--events`
//! logs must be byte-identical per seed and pass `trace_check`, and the
//! argument errors must exit 2 before any figure output.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// The serving figures whose `--quick` stdout is a golden fixture.
const SERVING_FIGURES: [&str; 6] = [
    "fig13_online_serving",
    "fig14_multi_replica",
    "fig15_mixed_precision",
    "fig16_multi_turn",
    "fig17_admission",
    "fig18_fleet_dynamics",
];

/// The performance-path figures (they run the offline schedulers over
/// the analytic hardware model, and take no `--seed`) whose `--quick`
/// stdout is a golden fixture.
const PERFORMANCE_FIGURES: [&str; 7] = [
    "fig01_motivation",
    "fig02_kv_caching",
    "fig07_scheduling_traces",
    "fig09_throughput",
    "fig11_attention_breakdown",
    "fig12_inference_breakdown",
    "table01_comparison",
];

/// The functional-path figures (they run the transformer and the
/// selection policies, and take no `--seed`) whose `--quick` stdout is
/// a golden fixture.
const FUNCTIONAL_FIGURES: [&str; 6] = [
    "fig03_sparsity",
    "fig04_attention_patterns",
    "fig05_weight_maps",
    "fig08_accuracy",
    "fig10_attainable_sparsity",
    "ablation_swa",
];

/// Runs `<bin> <args>` and returns its output.
fn launch(bin: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO"))
        .args([
            "run",
            "--quiet",
            "--release",
            "-p",
            "alisa-bench",
            "--bin",
            bin,
            "--",
        ])
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"))
}

/// Runs `<bin> --quick <extra>` and returns its output.
fn launch_quick(bin: &str, extra: &[&str]) -> Output {
    launch(bin, &[&["--quick"], extra].concat())
}

/// Runs `<bin> --quick`, asserting success, and returns its stdout.
fn run_quick(bin: &str) -> String {
    let out = launch_quick(bin, &[]);
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("figure stdout is UTF-8");
    assert!(
        stdout.contains("===") || stdout.contains("paper"),
        "{bin} produced no output"
    );
    stdout
}

fn golden_path(bin: &str) -> String {
    let seed = if SERVING_FIGURES.contains(&bin) {
        "_seed42"
    } else {
        ""
    };
    format!(
        "{}/tests/golden/{bin}_quick{seed}.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Runs `<bin> --quick` and asserts its stdout equals the golden.
fn run_quick_against_golden(bin: &str) {
    let path = golden_path(bin);
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"));
    assert_eq!(
        run_quick(bin),
        golden,
        "{bin} --quick stdout drifted from {path} \
         (regenerate with `cargo test --test figure_smoke -- --ignored` if intentional)"
    );
}

// Fast binaries run in one combined test to amortize the cargo lock;
// the heavy sweeps get their own (still quick-mode) tests so a failure
// names the culprit.

#[test]
fn fast_figures_run() {
    for bin in [
        "fig01_motivation",
        "fig02_kv_caching",
        "fig11_attention_breakdown",
        "table01_comparison",
        "fig05_weight_maps",
        "fig07_scheduling_traces",
    ] {
        run_quick_against_golden(bin);
    }
}

#[test]
fn fig03_sparsity_runs() {
    run_quick_against_golden("fig03_sparsity");
}

#[test]
fn fig04_attention_patterns_runs() {
    run_quick_against_golden("fig04_attention_patterns");
}

#[test]
fn fig08_accuracy_runs() {
    run_quick_against_golden("fig08_accuracy");
}

#[test]
fn fig09_throughput_runs() {
    run_quick_against_golden("fig09_throughput");
}

#[test]
fn fig10_attainable_sparsity_runs() {
    run_quick_against_golden("fig10_attainable_sparsity");
}

#[test]
fn ablation_swa_runs() {
    run_quick_against_golden("ablation_swa");
}

#[test]
fn fig12_breakdown_runs() {
    run_quick_against_golden("fig12_inference_breakdown");
}

/// The fig13 quick sweep doubles as the wall-clock tripwire for the
/// serving hot loop: a super-linear regression in the event queue,
/// discipline scan, or top-K selection inflates it far past this
/// (deliberately generous) budget long before any unit bench notices.
/// The first run warms the target dir so `cargo run`'s incremental
/// rebuild never counts against the budget; the second run is timed.
#[test]
fn fig13_online_serving_runs_within_budget() {
    const BUDGET: Duration = Duration::from_secs(240);
    run_quick_against_golden("fig13_online_serving");
    let started = Instant::now();
    run_quick("fig13_online_serving");
    let elapsed = started.elapsed();
    assert!(
        elapsed < BUDGET,
        "fig13 --quick took {elapsed:?}, over the {BUDGET:?} smoke budget — \
         a serving hot path has likely gone super-linear"
    );
}

/// A present `--seed` must parse as `u64`: a malformed or missing value
/// exits 2 before any figure output instead of running seed 42.
#[test]
fn malformed_seed_is_rejected() {
    for (args, shown) in [(&["--seed", "4x2"][..], "`4x2`"), (&["--seed"][..], "``")] {
        let out = launch_quick("fig13_online_serving", args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must print no figure");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "--seed must be an unsigned 64-bit integer, got {shown}"
            )),
            "{args:?}: {stderr}"
        );
    }
}

/// An argument a serving figure does not take (a stale `--profile`, a
/// typo like `--sed 7`) exits 2 before any figure output instead of
/// printing seed 42's figure; the bare `--` of the documented
/// `[-- --quick] [-- --seed N]` notation is accepted.
#[test]
fn unknown_argument_is_rejected() {
    for args in [&["--profile"][..], &["--sed", "7"][..]] {
        let out = launch_quick("fig13_online_serving", args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must print no figure");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
    }
    let out = launch_quick("fig13_online_serving", &["--", "--seed", "42"]);
    assert!(out.status.success(), "a bare `--` must be accepted");
    let golden =
        std::fs::read_to_string(golden_path("fig13_online_serving")).expect("fig13 fixture");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}

/// `--events` takes a path: a trailing `--events`, or one followed by
/// another flag, exits 2 before any figure output instead of writing no
/// log (or a log named `--quick`).
#[test]
fn events_without_a_path_is_rejected() {
    for args in [&["--quick", "--events"][..], &["--events", "--quick"][..]] {
        let out = launch("fig13_online_serving", args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must print no figure");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("`--events` needs a value"),
            "{args:?}: {stderr}"
        );
    }
}

/// An `--events` path that cannot be created is an error report, not a
/// panic: exit 2 with the path and the I/O error on stderr, before any
/// figure output.
#[test]
fn events_path_that_cannot_be_created_is_rejected() {
    let path = "/nonexistent/dir/x.jsonl";
    let out = launch_quick("fig13_online_serving", &["--events", path]);
    assert_eq!(out.status.code(), Some(2), "must exit 2");
    assert!(out.stdout.is_empty(), "must print no figure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("cannot create events log {path}: ")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Runs `<bin> --quick --seed 42 --events <log>` twice and returns the
/// log, asserting both runs succeed, write byte-identical logs, and
/// that `trace_check` accepts every line.
fn deterministic_event_log(bin: &str) -> String {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let logs = ["a", "b"].map(|run| format!("{dir}/{bin}_events_{run}.jsonl"));
    for log in &logs {
        let out = launch_quick(bin, &["--seed", "42", "--events", log]);
        assert!(
            out.status.success(),
            "{bin} --events failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let [a, b] = [&logs[0], &logs[1]].map(|log| std::fs::read_to_string(log).expect("event log"));
    assert!(a == b, "{bin}: same-seed event logs differ");
    let out = launch("trace_check", &[&logs[0]]);
    assert!(out.status.success(), "{bin}: trace_check rejected the log");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("events OK"),
        "{bin}: trace_check did not accept the log"
    );
    a
}

/// The event-trace smoke test: fig13's `--events` log is byte-identical
/// per seed and parses line by line through the event schema.
#[test]
fn fig13_event_log_is_deterministic_and_parses() {
    deterministic_event_log("fig13_online_serving");
}

/// fig18's `--events` log traces its replica kills and the sessions
/// they re-home, byte-identically per seed and in schema.
#[test]
fn fig18_failure_event_log_is_deterministic_and_parses() {
    let log = deterministic_event_log("fig18_fleet_dynamics");
    for kind in ["replica-failed", "session-recovered"] {
        assert!(log.contains(kind), "fig18's log has no {kind} event");
    }
}

/// A line of 100,000 `[` is an invalid event (exit 1), not a stack
/// overflow.
#[test]
fn trace_check_rejects_deep_nesting() {
    let path = format!("{}/deep.jsonl", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, format!("{}\n", "[".repeat(100_000))).expect("write deep log");
    let out = launch("trace_check", &[&path]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fig14_multi_replica_runs() {
    run_quick_against_golden("fig14_multi_replica");
}

#[test]
fn fig15_mixed_precision_runs() {
    run_quick_against_golden("fig15_mixed_precision");
}

#[test]
fn fig16_multi_turn_runs() {
    run_quick_against_golden("fig16_multi_turn");
}

#[test]
fn fig17_admission_runs() {
    run_quick_against_golden("fig17_admission");
}

#[test]
fn fig18_fleet_dynamics_runs() {
    run_quick_against_golden("fig18_fleet_dynamics");
}

/// Rewrites the serving-, performance- and functional-figure fixtures
/// from the current binaries.
/// Ignored so a normal test run can never bless its own regression;
/// run explicitly after an intentional output change:
/// `cargo test --test figure_smoke -- --ignored`.
#[test]
#[ignore]
fn regenerate_golden_fixtures() {
    for bin in SERVING_FIGURES
        .into_iter()
        .chain(PERFORMANCE_FIGURES)
        .chain(FUNCTIONAL_FIGURES)
    {
        std::fs::write(golden_path(bin), run_quick(bin)).expect("write figure fixture");
    }
}
