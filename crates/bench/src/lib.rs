//! Shared harness utilities for the figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see "Mapping modules to the paper" in `docs/ARCHITECTURE.md`
//! for the index) and prints the same rows or
//! series the paper plots. All binaries accept `--quick` to run a
//! reduced sweep — the integration tests use it as a smoke test.

use std::fmt::Display;
use std::fs::File;
use std::io::BufWriter;

use alisa_obs::{JsonlSink, TraceSink};

/// Returns true if the bare flag `name` was passed.
fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Returns the value following the flag `name` (e.g. `--events path`),
/// if both are present.
fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Returns true if `--quick` was passed (reduced sweeps for CI/tests).
pub fn quick_mode() -> bool {
    flag("--quick")
}

/// Exits with status 2, printing `unknown argument` to stderr, on any
/// argument a serving figure binary does not take. Each takes
/// `--quick` and `--seed <v>` (whose value [`seed_arg`] checks);
/// `value_flags` names the other flags it takes, each with a value
/// (`--events`), and a value flag that ends the line or is followed by
/// another flag also exits 2. A bare `--` is skipped: cargo passes it
/// through from the `[-- --quick] [-- --seed N]` notation. Without this
/// check a typo such as `--sed 7` would print seed 42's figure, and
/// `--events --quick` would write its log to a file named `--quick`.
pub fn check_args(value_flags: &[&str]) {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--seed" {
            args.next();
        } else if value_flags.contains(&a.as_str()) {
            if args.next().is_none_or(|v| v.starts_with("--")) {
                eprintln!("`{a}` needs a value");
                std::process::exit(2);
            }
        } else if a != "--quick" && a != "--" {
            eprintln!("unknown argument `{a}`");
            std::process::exit(2);
        }
    }
}

/// Parses `--seed N` from the command line; 42 when the flag is absent.
/// Shared by every gated figure binary so seed handling cannot drift
/// between them.
///
/// A present flag must carry an unsigned 64-bit integer: a malformed or
/// missing value prints an error to stderr and exits with status 2, so
/// a seed sweep with a typo cannot silently rerun seed 42.
pub fn seed_arg() -> u64 {
    if !flag("--seed") {
        return 42;
    }
    let value = arg_value("--seed").unwrap_or_default();
    value.parse().unwrap_or_else(|_| {
        eprintln!("--seed must be an unsigned 64-bit integer, got `{value}`");
        std::process::exit(2)
    })
}

/// The `--events <path>` log of a serving figure binary, opened before
/// the figure runs so a path that cannot be created fails fast.
pub struct EventsLog {
    path: String,
    sink: JsonlSink<BufWriter<File>>,
}

/// Opens the `--events <path>` log when the flag is present; without it
/// this returns `None` and the binary's output stays byte-identical. A
/// path that cannot be created prints the I/O error to stderr and exits
/// with status 2 before any figure output.
pub fn events_arg() -> Option<EventsLog> {
    let path = arg_value("--events")?;
    let sink = JsonlSink::create(&path).unwrap_or_else(|e| {
        eprintln!("cannot create events log {path}: {e}");
        std::process::exit(2)
    });
    Some(EventsLog { path, sink })
}

impl EventsLog {
    /// Calls `replay` with the log's JSONL sink and reports the event
    /// count. A log that cannot be written prints the I/O error to
    /// stderr and exits with status 2.
    pub fn write(mut self, replay: impl FnOnce(&mut dyn TraceSink)) {
        replay(&mut self.sink);
        let path = self.path;
        let n = self.sink.finish().unwrap_or_else(|e| {
            eprintln!("cannot write events log {path}: {e}");
            std::process::exit(2)
        });
        println!("\nwrote {n} events to {path}");
    }
}

/// Prints a figure/table banner.
pub fn banner(id: &str, caption: &str) {
    println!("\n================================================================");
    println!("{id} — {caption}");
    println!("================================================================");
}

/// Prints one row of labelled values with a fixed label column.
pub fn row<V: Display>(label: &str, values: impl IntoIterator<Item = V>) {
    print!("{label:<28}");
    for v in values {
        print!(" {v:>10}");
    }
    println!();
}

/// Formats a float to a compact fixed width.
pub fn f(v: f64) -> String {
    if !v.is_finite() {
        return "-".to_string();
    }
    if v == 0.0 {
        return "0".to_string();
    }
    let av = v.abs();
    if av >= 1000.0 {
        format!("{v:.0}")
    } else if av >= 10.0 {
        format!("{v:.1}")
    } else if av >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

/// Formats bytes as GiB.
pub fn gib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1u64 << 30) as f64)
}

/// An ASCII heat-cell for attention-map prints (Figures 4 and 5).
pub fn heat_cell(v: f32, max: f32) -> char {
    if max <= 0.0 {
        return ' ';
    }
    let t = (v / max).clamp(0.0, 1.0);
    match (t * 5.0) as u32 {
        0 => {
            if v > 0.0 {
                '.'
            } else {
                ' '
            }
        }
        1 => ':',
        2 => '+',
        3 => '*',
        4 => '#',
        _ => '@',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(f64::NAN), "-");
        assert_eq!(f(12345.0), "12345");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(0.1234), "0.123");
        assert!(f(0.0001).contains('e'));
    }

    #[test]
    fn gib_formatting() {
        assert_eq!(gib(1 << 30), "1.0");
        assert_eq!(gib(3 * (1 << 29)), "1.5");
    }

    #[test]
    fn heat_cells_span_ramp() {
        assert_eq!(heat_cell(0.0, 1.0), ' ');
        assert_eq!(heat_cell(1.0, 1.0), '@');
        assert_eq!(heat_cell(0.5, 0.0), ' ');
        let ramp: Vec<char> = (0..=5).map(|i| heat_cell(i as f32 / 5.0, 1.0)).collect();
        let distinct: std::collections::HashSet<char> = ramp.into_iter().collect();
        assert!(distinct.len() >= 4);
    }
}
