//! The text parsers survive arbitrary input: `Trace::from_text` and
//! `Event::from_json` return `Err` on garbage, never panic (or overflow
//! the stack). Inputs are drawn two ways: strings over each format's
//! own alphabet, and valid documents with a few random edits (replace,
//! insert, delete, truncate) — the edits reach deep into the parsers,
//! where a random string would fail on its first byte.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, Event, MemorySink, QueueDiscipline, RetentionCfg, ServeConfig,
    ServeEngine, Trace, TraceError,
};
use alisa_workloads::SessionModel;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Characters the two formats are made of, plus a few that neither of
/// them expects (a quote escape, a control character, multi-byte
/// UTF-8).
const ALPHABET: &[char] = &[
    '0', '1', '2', '5', '9', '.', '-', '+', 'e', 'E', ' ', '\n', '\t', '#', '=', '{', '}', '[',
    ']', '"', ':', ',', '\\', 'u', 'n', 't', 'a', 'k', 'i', 'r', 'l', 's', 'x', '\u{1}', 'é', '→',
    '世',
];

/// The documents the edits start from: a valid trace with sessions and
/// a traced run's event lines.
struct Seeds {
    trace: String,
    events: Vec<String>,
}

fn seeds() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(build_seeds)
}

fn build_seeds() -> Seeds {
    let trace = Trace::generate_sessions(
        &ArrivalProcess::Poisson { rate: 2.0 },
        &SessionModel::chat().with_max_turns(3),
        4,
        7,
    );
    let cfg = ServeConfig::new(
        ModelConfig::opt_6_7b(),
        HardwareSpec::v100_16gb(),
        AdmissionPolicy::alisa(),
    )
    .with_discipline(QueueDiscipline::preemptive_sjf())
    .with_session_reuse(RetentionCfg::half())
    .with_queue_timeout(1.0);
    let mut sink = MemorySink::new();
    ServeEngine::new(cfg).run_traced(&trace, &mut sink);
    Seeds {
        trace: trace.to_text(),
        events: sink.to_jsonl().lines().map(str::to_string).collect(),
    }
}

fn arbitrary_text() -> impl Strategy<Value = String> {
    collection::vec(0usize..ALPHABET.len(), 0..160)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Edits as `(position, operation, alphabet index)`.
fn edits() -> impl Strategy<Value = Vec<(usize, u8, usize)>> {
    collection::vec((0usize..1 << 20, 0u8..4, 0usize..ALPHABET.len()), 1..6)
}

fn mutate(doc: &str, edits: &[(usize, u8, usize)]) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    for &(pos, op, c) in edits {
        let at = pos % (chars.len() + 1);
        match op {
            0 if at < chars.len() => chars[at] = ALPHABET[c],
            1 => chars.insert(at, ALPHABET[c]),
            2 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// A prompt and output whose sum overflows `usize` is a typed error in
/// debug and release builds alike, with or without a session.
#[test]
fn length_overflow_is_a_typed_error() {
    assert_eq!(
        Trace::from_text("0 18446744073709551615 1 0 0\n"),
        Err(TraceError::LengthOverflow { idx: 0 })
    );
    assert_eq!(
        Trace::from_text("0 18446744073709551615 1\n"),
        Err(TraceError::LengthOverflow { idx: 0 })
    );
}

/// One line of 100,000 `[` nests far past the JSON parser's depth cap:
/// an invalid event, not a stack overflow.
#[test]
fn deep_nesting_is_an_invalid_event() {
    assert!(Event::from_json(&"[".repeat(100_000)).is_err());
    assert!(Event::from_json(&"{\"t\":".repeat(100_000)).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsers_survive_arbitrary_text(text in arbitrary_text()) {
        let _ = Trace::from_text(&text);
        let _ = Event::from_json(&text);
    }

    #[test]
    fn parsers_survive_edited_documents(
        edits in edits(),
        line in 0usize..1 << 20,
    ) {
        let seeds = seeds();
        let _ = Trace::from_text(&mutate(&seeds.trace, &edits));
        let _ = Event::from_json(&mutate(&seeds.events[line % seeds.events.len()], &edits));
    }
}
