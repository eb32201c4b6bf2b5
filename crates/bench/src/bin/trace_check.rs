//! Validates a JSONL event log produced by a serving figure binary's
//! `--events <path>` flag: every line must parse as a structured
//! [`alisa_obs::Event`] (the parse *is* the schema check — field names,
//! types, and kind tags are all enforced). Exits 0 with a count on
//! success, 1 naming the first bad line otherwise. `tests/figure_smoke.rs`
//! runs this over fresh fig13 and fig18 event logs as the trace-schema
//! smoke test.
//!
//! ```sh
//! cargo run --release --bin fig13_online_serving -- --quick --events /tmp/e.jsonl
//! cargo run --release --bin trace_check -- /tmp/e.jsonl
//! ```

use std::io::{BufRead, BufReader};

use alisa_serve::Event;

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <events.jsonl>");
        std::process::exit(2);
    };
    let file = std::fs::File::open(&path).unwrap_or_else(|e| {
        eprintln!("trace_check: cannot open {path}: {e}");
        std::process::exit(2);
    });
    let mut n = 0u64;
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line.unwrap_or_else(|e| {
            eprintln!("trace_check: read error at line {}: {e}", i + 1);
            std::process::exit(2);
        });
        if let Err(e) = Event::from_json(&line) {
            eprintln!("trace_check: invalid event at line {}: {e}", i + 1);
            std::process::exit(1);
        }
        n += 1;
    }
    println!("=== trace_check: {n} events OK");
}
