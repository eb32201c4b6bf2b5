//! Every example in `examples/` must run to completion, and its stdout
//! is pinned byte-for-byte to `tests/golden/example_<name>.txt`. The
//! examples are deterministic (seeded traces, analytic hardware), so a
//! drift is either an intentional output change or a regression.

use std::process::Command;

/// The ten examples, each pinned by its own golden.
const EXAMPLES: [&str; 10] = [
    "admission_disciplines",
    "long_context_retrieval",
    "mixed_precision_serving",
    "multi_replica_serving",
    "multi_turn_sessions",
    "offline_batch_inference",
    "online_serving",
    "quickstart",
    "scheduler_tuning",
    "tracing_serving",
];

/// Runs `cargo run --release --example <name>`, asserting success, and
/// returns its stdout.
fn run_example(name: &str) -> String {
    let out = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--release", "--example", name])
        .output()
        .unwrap_or_else(|e| panic!("failed to launch example {name}: {e}"));
    assert!(
        out.status.success(),
        "example {name} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("example stdout is UTF-8")
}

fn golden_path(name: &str) -> String {
    format!(
        "{}/tests/golden/example_{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn examples_match_their_goldens() {
    let dir = format!("{}/examples", env!("CARGO_MANIFEST_DIR"));
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"))
        .filter_map(|entry| {
            let name = entry.expect("examples entry").file_name();
            name.to_str()?.strip_suffix(".rs").map(str::to_string)
        })
        .collect();
    found.sort();
    assert_eq!(found, EXAMPLES, "every example in {dir} is pinned here");
    for name in EXAMPLES {
        let path = golden_path(name);
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {path}: {e}"));
        assert_eq!(
            run_example(name),
            golden,
            "example {name} stdout drifted from {path} \
             (regenerate with `cargo test --test examples_smoke -- --ignored` if intentional)"
        );
    }
}

/// Rewrites every example fixture from the current code. Ignored so a
/// normal test run can never bless its own regression; run explicitly
/// after an intentional output change:
/// `cargo test --test examples_smoke -- --ignored`.
#[test]
#[ignore]
fn regenerate_example_goldens() {
    for name in EXAMPLES {
        std::fs::write(golden_path(name), run_example(name)).expect("write example fixture");
    }
}
