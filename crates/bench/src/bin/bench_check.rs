//! Bench-regression gate over the committed `BENCH_*.json` baselines.
//!
//! Runs the hot-path criterion suites (the vendored criterion is
//! already "quick mode": ~50ms warm-up + ~300ms measurement per
//! target) and compares each benchmark id against the committed
//! baseline next to this crate's manifest. The crate directory and the
//! `cargo` binary come from the environment `cargo run` sets, and the
//! suites run in that crate directory, so a copied tree (even one
//! copied with its `target/`) benches and compares its own files. The
//! gate cannot pass silently: it removes each baseline before its
//! suite runs and fails if the run did not write it back, and `--check`
//! fails when a committed id is missing from the run.
//!
//! * **regression** — new time exceeds `old × 1.25 + 1µs` (the flat
//!   term keeps nanosecond-scale ids from tripping on timer jitter):
//!   the run fails with a per-id report and restores the committed
//!   baselines, so a red gate never rewrites history;
//! * **improvement** — the baseline is refreshed to the new (smaller)
//!   time, id by id, so the committed floor only ratchets downward;
//!   pass `--check` to compare without refreshing (what CI wants on
//!   pull requests).
//!
//! ```text
//! cargo run --release -p alisa-bench --bin bench_check            # gate + refresh
//! cargo run --release -p alisa-bench --bin bench_check -- --check # gate only
//! ```
//!
//! Absolute numbers move with the host, so the gate is only meaningful
//! against baselines recorded on comparable hardware — see the
//! "Performance baselines" section of the README before reading a
//! failure as a code regression.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The hot-path suites the gate watches (scheduler inner loop, serving
/// event loop, session reuse, fleet dispatch, dynamic fleet
/// membership + failure recovery).
/// `kernels`/`quant` measure the numeric kernels, which this gate's
/// callers don't touch — run them directly when that's what you
/// changed.
const SUITES: [&str; 5] = ["schedulers", "serving", "sessions", "router", "fleet"];

/// Multiplicative headroom before a slower measurement fails the gate.
const TOLERANCE: f64 = 1.25;
/// Flat headroom (ns) so sub-microsecond ids don't trip on jitter.
const FLAT_NS: f64 = 1000.0;

/// A variable `cargo run` sets for the program it runs.
fn cargo_env(name: &str) -> PathBuf {
    std::env::var_os(name)
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            eprintln!("bench_check: ${name} is unset; run it with `cargo run --bin bench_check`");
            std::process::exit(2);
        })
}

/// Parses the vendored criterion's baseline format — one
/// `"id": {"ns_per_iter": X.X, "iters": N}` entry per line — keeping
/// file order. Panics on malformed lines: the only writers are
/// `criterion::write_json` and this gate, so damage means a bad merge.
fn parse(text: &str, path: &Path) -> Vec<(String, f64, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" || line == "}" {
            continue;
        }
        let parse_entry = || -> Option<(String, f64, u64)> {
            let (id, rest) = line.strip_prefix('"')?.split_once("\": ")?;
            let body = rest.strip_prefix("{\"ns_per_iter\": ")?.strip_suffix('}')?;
            let (ns, iters) = body.split_once(", \"iters\": ")?;
            Some((id.to_string(), ns.parse().ok()?, iters.parse().ok()?))
        };
        out.push(parse_entry().unwrap_or_else(|| {
            panic!("unparseable baseline line in {}: {line:?}", path.display())
        }));
    }
    out
}

/// Renders entries back in exactly `criterion::write_json`'s format.
fn render(entries: &[(String, f64, u64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (id, ns, iters)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "  \"{id}\": {{\"ns_per_iter\": {ns:.1}, \"iters\": {iters}}}{comma}\n"
        ));
    }
    out.push_str("}\n");
    out
}

struct SuiteOutcome {
    suite: &'static str,
    /// `(id, old_ns, new_ns)` for every id that broke the threshold.
    regressions: Vec<(String, f64, f64)>,
    /// Committed ids the run did not measure.
    missing: Vec<String>,
    improved: usize,
}

fn main() {
    let check_only = std::env::args().any(|a| a == "--check");
    let crate_dir = cargo_env("CARGO_MANIFEST_DIR");
    let cargo = cargo_env("CARGO");
    let mut outcomes: Vec<SuiteOutcome> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for suite in SUITES {
        let path = crate_dir.join(format!("BENCH_{suite}.json"));
        let old_text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing baseline {}: {e}", path.display()));
        let old = parse(&old_text, &path);
        let old_by_id: BTreeMap<&str, f64> =
            old.iter().map(|(id, ns, _)| (id.as_str(), *ns)).collect();

        // The bench executable runs with CWD = the crate directory and
        // rewrites `path` in place; the committed numbers are in `old`.
        // Removing the file first means a run that writes anywhere else
        // leaves nothing behind to be compared with itself.
        println!("== {suite}: running `cargo bench -p alisa-bench --bench {suite}` ==");
        std::fs::remove_file(&path).expect("baseline removal must succeed");
        let status = Command::new(&cargo)
            .args(["bench", "-p", "alisa-bench", "--bench", suite])
            .current_dir(&crate_dir)
            .status();
        let new_text = std::fs::read_to_string(&path);
        if !status.as_ref().is_ok_and(|s| s.success()) || new_text.is_err() {
            std::fs::write(&path, &old_text).expect("baseline restore must succeed");
            failures.push(match status {
                Ok(s) if s.success() => format!("the {suite} run did not write {}", path.display()),
                _ => format!("bench suite {suite} failed to run"),
            });
            continue;
        }
        let new = parse(&new_text.expect("checked above"), &path);

        let mut outcome = SuiteOutcome {
            suite,
            regressions: Vec::new(),
            missing: (old.iter())
                .filter(|(id, _, _)| !new.iter().any(|(n, _, _)| n == id))
                .map(|(id, _, _)| id.clone())
                .collect(),
            improved: 0,
        };
        // Merge: new-run id order, each id at the best time ever seen.
        // Ids that vanished from the suite drop out of the baseline;
        // brand-new ids enter at their first measurement.
        let merged: Vec<(String, f64, u64)> = new
            .into_iter()
            .map(|(id, new_ns, iters)| {
                let best = match old_by_id.get(id.as_str()) {
                    Some(&old_ns) => {
                        if new_ns > old_ns * TOLERANCE + FLAT_NS {
                            outcome.regressions.push((id.clone(), old_ns, new_ns));
                        }
                        if new_ns < old_ns {
                            outcome.improved += 1;
                        }
                        old_ns.min(new_ns)
                    }
                    None => new_ns,
                };
                (id, best, iters)
            })
            .collect();

        if check_only || !outcome.regressions.is_empty() {
            // Never let a gate run (or a red run) move the baseline.
            std::fs::write(&path, &old_text).expect("baseline restore must succeed");
        } else {
            std::fs::write(&path, render(&merged)).expect("baseline refresh must succeed");
        }
        outcomes.push(outcome);
    }

    println!();
    let mut failed = !failures.is_empty();
    for f in &failures {
        println!("{f}");
    }
    for o in &outcomes {
        let missing = check_only && !o.missing.is_empty();
        if o.regressions.is_empty() && !missing {
            let action = if check_only {
                "left as committed"
            } else {
                "refreshed"
            };
            println!(
                "{:<12} OK ({} ids improved, baseline {action})",
                o.suite, o.improved
            );
            continue;
        }
        failed = true;
        if !o.regressions.is_empty() {
            println!("{:<12} REGRESSED:", o.suite);
            for (id, old_ns, new_ns) in &o.regressions {
                println!(
                    "  {id:<48} {old_ns:>12.1} -> {new_ns:>12.1} ns/iter ({:+.1}%)",
                    (new_ns / old_ns - 1.0) * 100.0
                );
            }
        }
        if missing {
            println!("{:<12} MISSING from the run:", o.suite);
            for id in &o.missing {
                println!("  {id}");
            }
        }
    }
    if failed {
        println!("\nbench_check: FAIL (threshold: old * {TOLERANCE} + {FLAT_NS} ns; every committed id must run)");
        std::process::exit(1);
    }
    println!("\nbench_check: OK");
}
