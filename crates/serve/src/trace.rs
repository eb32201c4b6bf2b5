//! Replayable request traces.
//!
//! A [`Trace`] is the unit of reproducibility for online experiments:
//! generate one from an arrival process + length model (seeded), save
//! it with [`Trace::to_text`], reload it bit-exactly with
//! [`Trace::from_text`], and replay it against any admission policy.
//! Construction validates every entry — arrival times must be finite,
//! non-negative, and non-decreasing, and lengths must form a valid
//! `Workload` — so malformed data is reported at the boundary.
//!
//! Entries may carry a real session identity ([`SessionRef`]): turn `t`
//! of a session re-submits the whole conversation so far as its prompt,
//! so its prompt must *contain* the previous turn's final context as a
//! prefix — validated here, exploited by the serving engine's prefix KV
//! reuse and the router's sticky affinity. Legacy single-shot traces
//! (no session columns) parse unchanged and behave exactly as before:
//! every entry is its own 1-turn session.

use alisa_sched::Workload;
use alisa_workloads::{LengthModel, SessionModel};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::arrivals::ArrivalProcess;

/// Which conversation a trace entry belongs to, and where in it.
///
/// ```
/// use alisa_serve::SessionRef;
///
/// let turn = SessionRef { session_id: 3, turn: 1 };
/// assert_eq!(turn.session_id, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionRef {
    /// Stable conversation id — the sticky router's affinity key.
    pub session_id: usize,
    /// 0-based position of this request within the conversation.
    pub turn: usize,
}

/// One request in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Arrival time in seconds since trace start.
    pub arrival_s: f64,
    /// Prompt length in tokens. For a multi-turn entry this is the
    /// *whole accumulated conversation* (previous turns' prompts and
    /// answers) plus the new user text.
    pub prompt_len: usize,
    /// Output budget in tokens.
    pub output_len: usize,
    /// Session identity, if the trace carries real sessions. `None`
    /// means a legacy single-shot request — its own 1-turn session.
    pub session: Option<SessionRef>,
}

impl TraceEntry {
    /// A legacy single-shot entry (no session identity) — exactly what
    /// pre-session traces contained.
    pub fn single_shot(arrival_s: f64, prompt_len: usize, output_len: usize) -> Self {
        TraceEntry {
            arrival_s,
            prompt_len,
            output_len,
            session: None,
        }
    }

    /// An entry belonging to turn `turn` of session `session_id`.
    pub fn turn(
        arrival_s: f64,
        prompt_len: usize,
        output_len: usize,
        session_id: usize,
        turn: usize,
    ) -> Self {
        TraceEntry {
            arrival_s,
            prompt_len,
            output_len,
            session: Some(SessionRef { session_id, turn }),
        }
    }

    /// Final context length once this turn is fully decoded.
    pub fn final_seq_len(&self) -> usize {
        self.prompt_len + self.output_len
    }
}

/// Why a trace failed validation or parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// Arrival at `idx` is negative, NaN, or infinite.
    BadArrival {
        /// Entry index.
        idx: usize,
    },
    /// Arrival at `idx` precedes its predecessor.
    NonMonotone {
        /// Entry index.
        idx: usize,
    },
    /// Prompt plus output length at `idx` overflows `usize`.
    LengthOverflow {
        /// Entry index.
        idx: usize,
    },
    /// Lengths at `idx` do not form a valid workload.
    BadLength {
        /// Entry index.
        idx: usize,
        /// The underlying workload validation error.
        source: alisa_sched::InvalidWorkload,
    },
    /// Entry at `idx` breaks its session's turn sequence: the first
    /// entry of a session must be turn 0 and turns must be consecutive.
    BadTurn {
        /// Entry index.
        idx: usize,
    },
    /// Entry at `idx` does not contain its session's prior context:
    /// turn `t`'s prompt must be at least the previous turn's prompt
    /// plus output (the conversation prefix it re-submits).
    BadPrefix {
        /// Entry index.
        idx: usize,
    },
    /// A serialized line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadArrival { idx } => {
                write!(f, "trace entry {idx}: arrival must be finite and >= 0")
            }
            TraceError::NonMonotone { idx } => {
                write!(f, "trace entry {idx}: arrival precedes entry {}", idx - 1)
            }
            TraceError::LengthOverflow { idx } => {
                write!(f, "trace entry {idx}: prompt + output length overflows")
            }
            TraceError::BadLength { idx, source } => {
                write!(f, "trace entry {idx}: {source}")
            }
            TraceError::BadTurn { idx } => write!(
                f,
                "trace entry {idx}: session turns must be consecutive from 0"
            ),
            TraceError::BadPrefix { idx } => write!(
                f,
                "trace entry {idx}: prompt must contain the session's prior context as a prefix"
            ),
            TraceError::Parse { line } => write!(f, "trace line {line}: parse error"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A validated, replayable sequence of request arrivals.
///
/// The session API reports the multi-turn structure the serving layer
/// exploits:
///
/// ```
/// use alisa_serve::{Trace, TraceEntry};
///
/// // Turn 1's 40-token prompt contains turn 0's full 24-token context
/// // (16 prompt + 8 answer) plus 16 tokens of new user text.
/// let t = Trace::new(vec![
///     TraceEntry::turn(0.0, 16, 8, 5, 0),
///     TraceEntry::turn(2.0, 40, 8, 5, 1),
///     TraceEntry::single_shot(3.0, 32, 4),
/// ])
/// .unwrap();
/// assert!(t.has_sessions());
/// assert_eq!(t.session_count(), 1);
/// assert_eq!(t.prefix_lens(), vec![0, 24, 0]);
/// assert_eq!(t.next_turn_exists(), vec![true, false, false]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Validates and wraps raw entries.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] found.
    pub fn new(entries: Vec<TraceEntry>) -> Result<Self, TraceError> {
        let mut last = 0.0f64;
        // Per-session progress: (last turn seen, its final context).
        let mut sessions: HashMap<usize, (usize, usize)> = HashMap::new();
        for (idx, e) in entries.iter().enumerate() {
            if !e.arrival_s.is_finite() || e.arrival_s < 0.0 {
                return Err(TraceError::BadArrival { idx });
            }
            if e.arrival_s < last {
                return Err(TraceError::NonMonotone { idx });
            }
            last = e.arrival_s;
            if e.prompt_len.checked_add(e.output_len).is_none() {
                return Err(TraceError::LengthOverflow { idx });
            }
            Workload::try_new(1, e.prompt_len, e.output_len)
                .map_err(|source| TraceError::BadLength { idx, source })?;
            if let Some(sref) = e.session {
                match sessions.get(&sref.session_id) {
                    None => {
                        if sref.turn != 0 {
                            return Err(TraceError::BadTurn { idx });
                        }
                    }
                    Some(&(prev_turn, prev_final)) => {
                        if sref.turn != prev_turn + 1 {
                            return Err(TraceError::BadTurn { idx });
                        }
                        if e.prompt_len < prev_final {
                            return Err(TraceError::BadPrefix { idx });
                        }
                    }
                }
                sessions.insert(sref.session_id, (sref.turn, e.final_seq_len()));
            }
        }
        Ok(Trace { entries })
    }

    /// Generates a trace of `n` single-shot requests: arrival times from
    /// `process`, lengths from `lengths`, fully determined by `seed`.
    pub fn generate(process: &ArrivalProcess, lengths: &LengthModel, n: usize, seed: u64) -> Self {
        let _gen = alisa_obs::profile::timer(alisa_obs::profile::Phase::TraceGen);
        let arrivals = process.arrival_times(n, seed);
        let entries = arrivals
            .into_iter()
            .enumerate()
            .map(|(idx, arrival_s)| {
                let (prompt_len, output_len) = lengths.sample(idx, seed);
                TraceEntry::single_shot(arrival_s, prompt_len, output_len)
            })
            .collect();
        Trace::new(entries).expect("generated traces are valid by construction")
    }

    /// Generates a multi-turn trace of `sessions` conversations:
    /// session start times from `process`, per-session turn counts,
    /// lengths, and think-time gaps from `model` — fully determined by
    /// `seed`. Entries are globally sorted by arrival; within a session
    /// every turn's prompt is the accumulated conversation prefix plus
    /// the new user text, so the result always validates.
    ///
    /// ```
    /// use alisa_serve::{ArrivalProcess, Trace};
    /// use alisa_workloads::SessionModel;
    ///
    /// let model = SessionModel::chat().with_max_turns(4);
    /// let t = Trace::generate_sessions(
    ///     &ArrivalProcess::Poisson { rate: 1.0 },
    ///     &model,
    ///     8,
    ///     42,
    /// );
    /// assert!(t.has_sessions());
    /// assert!(t.len() >= 8, "every session has at least one turn");
    /// assert_eq!(
    ///     t.to_text(),
    ///     Trace::generate_sessions(&ArrivalProcess::Poisson { rate: 1.0 }, &model, 8, 42)
    ///         .to_text(),
    ///     "seeded => replayable"
    /// );
    /// ```
    pub fn generate_sessions(
        process: &ArrivalProcess,
        model: &SessionModel,
        sessions: usize,
        seed: u64,
    ) -> Self {
        let _gen = alisa_obs::profile::timer(alisa_obs::profile::Phase::TraceGen);
        let starts = process.arrival_times(sessions, seed);
        let mut entries: Vec<TraceEntry> = Vec::new();
        for (sid, &start) in starts.iter().enumerate() {
            let turns = model.turns(sid, seed);
            let mut context = 0usize;
            let mut at = start;
            for turn in 0..turns {
                let (new_tokens, output_len) = model.turn_lengths(sid, turn, seed);
                let prompt_len = context + new_tokens;
                if prompt_len + output_len > model.max_context {
                    break; // conversation hit the context ceiling
                }
                entries.push(TraceEntry::turn(at, prompt_len, output_len, sid, turn));
                context = prompt_len + output_len;
                at += model.think_gap_s(sid, turn, seed);
            }
        }
        entries.sort_by(|a, b| {
            a.arrival_s.total_cmp(&b.arrival_s).then_with(|| {
                let key = |e: &TraceEntry| e.session.map(|s| (s.session_id, s.turn));
                key(a).cmp(&key(b))
            })
        });
        Trace::new(entries).expect("generated session traces are valid by construction")
    }

    /// The validated entries, in arrival order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether any entry carries a real session identity.
    pub fn has_sessions(&self) -> bool {
        self.entries.iter().any(|e| e.session.is_some())
    }

    /// Number of distinct explicit sessions (single-shot entries are
    /// not counted — each is trivially its own session).
    pub fn session_count(&self) -> usize {
        let mut ids: Vec<usize> = self
            .entries
            .iter()
            .filter_map(|e| e.session.map(|s| s.session_id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Per-entry reusable-prefix length: for turn `t > 0` of a session,
    /// the previous turn's final context (prompt + output) — the KV the
    /// serving engine can skip prefilling when it is still resident.
    /// Zero for first turns and single-shot entries.
    pub fn prefix_lens(&self) -> Vec<usize> {
        let mut finals: HashMap<usize, usize> = HashMap::new();
        self.entries
            .iter()
            .map(|e| match e.session {
                Some(sref) => {
                    let prefix = if sref.turn == 0 {
                        0
                    } else {
                        *finals.get(&sref.session_id).expect("validated turn order")
                    };
                    finals.insert(sref.session_id, e.final_seq_len());
                    prefix
                }
                None => 0,
            })
            .collect()
    }

    /// Per-entry flag: does a later turn of the same session exist in
    /// the trace? Retention layers use this to skip retaining KV no
    /// future turn can ever reuse.
    pub fn next_turn_exists(&self) -> Vec<bool> {
        let mut last_turn: HashMap<usize, usize> = HashMap::new();
        for e in &self.entries {
            if let Some(sref) = e.session {
                let t = last_turn.entry(sref.session_id).or_insert(0);
                *t = (*t).max(sref.turn);
            }
        }
        self.entries
            .iter()
            .map(|e| match e.session {
                Some(sref) => sref.turn < last_turn[&sref.session_id],
                None => false,
            })
            .collect()
    }

    /// Span from first to last arrival, in seconds.
    pub fn duration(&self) -> f64 {
        match (self.entries.first(), self.entries.last()) {
            (Some(a), Some(b)) => b.arrival_s - a.arrival_s,
            _ => 0.0,
        }
    }

    /// Serializes to a line-oriented text format. Float arrivals use
    /// Rust's shortest-round-trip formatting, so
    /// `from_text(to_text(t)) == t` exactly. Single-shot entries emit
    /// the legacy 3-column v1 lines (a trace with no sessions emits
    /// byte-identical v1 text); session entries add `session_id turn`
    /// columns.
    pub fn to_text(&self) -> String {
        let mut out = if self.has_sessions() {
            String::from(
                "# alisa-serve trace v2: arrival_s prompt_len output_len [session_id turn]\n",
            )
        } else {
            String::from("# alisa-serve trace v1: arrival_s prompt_len output_len\n")
        };
        for e in &self.entries {
            match e.session {
                Some(sref) => out.push_str(&format!(
                    "{} {} {} {} {}\n",
                    e.arrival_s, e.prompt_len, e.output_len, sref.session_id, sref.turn
                )),
                None => out.push_str(&format!(
                    "{} {} {}\n",
                    e.arrival_s, e.prompt_len, e.output_len
                )),
            }
        }
        out
    }

    /// Parses the [`Trace::to_text`] format (then re-validates). Lines
    /// carry either 3 columns (legacy single-shot) or 5 (sessioned);
    /// the two may mix freely.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] with the offending line, or any
    /// validation error from [`Trace::new`].
    pub fn from_text(text: &str) -> Result<Self, TraceError> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let parsed = (|| {
                let arrival_s: f64 = parts.next()?.parse().ok()?;
                let prompt_len: usize = parts.next()?.parse().ok()?;
                let output_len: usize = parts.next()?.parse().ok()?;
                let session = match parts.next() {
                    None => None,
                    Some(sid) => {
                        let session_id: usize = sid.parse().ok()?;
                        let turn: usize = parts.next()?.parse().ok()?;
                        Some(SessionRef { session_id, turn })
                    }
                };
                if parts.next().is_some() {
                    return None;
                }
                Some(TraceEntry {
                    arrival_s,
                    prompt_len,
                    output_len,
                    session,
                })
            })();
            entries.push(parsed.ok_or(TraceError::Parse { line: i + 1 })?);
        }
        Trace::new(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(arrival_s: f64, prompt_len: usize, output_len: usize) -> TraceEntry {
        TraceEntry::single_shot(arrival_s, prompt_len, output_len)
    }

    #[test]
    fn validation_catches_each_defect() {
        assert!(Trace::new(vec![entry(0.0, 8, 8), entry(1.5, 8, 8)]).is_ok());
        assert_eq!(
            Trace::new(vec![entry(-1.0, 8, 8)]),
            Err(TraceError::BadArrival { idx: 0 })
        );
        assert_eq!(
            Trace::new(vec![entry(0.0, 8, 8), entry(f64::NAN, 8, 8)]),
            Err(TraceError::BadArrival { idx: 1 })
        );
        assert_eq!(
            Trace::new(vec![entry(2.0, 8, 8), entry(1.0, 8, 8)]),
            Err(TraceError::NonMonotone { idx: 1 })
        );
        match Trace::new(vec![entry(0.0, 0, 8)]) {
            Err(TraceError::BadLength { idx: 0, .. }) => {}
            other => panic!("expected BadLength, got {other:?}"),
        }
        assert_eq!(
            Trace::new(vec![entry(0.0, 8, 8), entry(1.0, usize::MAX, 1)]),
            Err(TraceError::LengthOverflow { idx: 1 })
        );
    }

    #[test]
    fn session_validation_catches_turn_and_prefix_defects() {
        // First turn of a session must be turn 0.
        assert_eq!(
            Trace::new(vec![TraceEntry::turn(0.0, 8, 8, 1, 1)]),
            Err(TraceError::BadTurn { idx: 0 })
        );
        // Turns must be consecutive.
        assert_eq!(
            Trace::new(vec![
                TraceEntry::turn(0.0, 8, 8, 1, 0),
                TraceEntry::turn(1.0, 40, 8, 1, 2),
            ]),
            Err(TraceError::BadTurn { idx: 1 })
        );
        // Turn t's prompt must contain turn t-1's full context (16).
        assert_eq!(
            Trace::new(vec![
                TraceEntry::turn(0.0, 8, 8, 1, 0),
                TraceEntry::turn(1.0, 15, 8, 1, 1),
            ]),
            Err(TraceError::BadPrefix { idx: 1 })
        );
        // A well-formed 2-turn session interleaved with another session.
        assert!(Trace::new(vec![
            TraceEntry::turn(0.0, 8, 8, 1, 0),
            TraceEntry::turn(0.5, 10, 4, 2, 0),
            TraceEntry::turn(1.0, 20, 8, 1, 1),
        ])
        .is_ok());
    }

    #[test]
    fn text_round_trip_is_exact() {
        let t = Trace::new(vec![
            entry(0.0, 17, 33),
            entry(0.123456789012345, 64, 1),
            entry(2.5e3, 511, 500),
        ])
        .unwrap();
        let text = t.to_text();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(t, back);
        assert_eq!(text, back.to_text());
        assert!(
            text.lines().next().unwrap().contains("v1"),
            "single-shot traces keep the legacy header"
        );
    }

    #[test]
    fn session_text_round_trip_is_exact() {
        let t = Trace::new(vec![
            TraceEntry::turn(0.0, 16, 8, 3, 0),
            entry(0.25, 9, 9),
            TraceEntry::turn(1.5, 30, 8, 3, 1),
        ])
        .unwrap();
        let text = t.to_text();
        assert!(text.lines().next().unwrap().contains("v2"));
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(t, back);
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert_eq!(
            Trace::from_text("# header\n1.0 8 8\nnot a line\n"),
            Err(TraceError::Parse { line: 3 })
        );
        assert_eq!(
            Trace::from_text("1.0 8 8 9\n"),
            Err(TraceError::Parse { line: 1 }),
            "4 columns is neither v1 nor v2"
        );
        assert_eq!(
            Trace::from_text("1.0 8 8 9 0 7\n"),
            Err(TraceError::Parse { line: 1 }),
            "6 columns is too many"
        );
    }

    #[test]
    fn duration_spans_first_to_last_arrival() {
        let t = Trace::new(vec![entry(1.0, 8, 8), entry(2.0, 8, 8), entry(3.0, 8, 8)]).unwrap();
        assert_eq!(t.duration(), 2.0);
        assert_eq!(Trace::new(vec![]).unwrap().duration(), 0.0);
    }

    #[test]
    fn session_accessors_report_structure() {
        let t = Trace::new(vec![
            TraceEntry::turn(0.0, 16, 8, 0, 0),
            TraceEntry::turn(0.2, 12, 4, 9, 0),
            TraceEntry::turn(1.0, 32, 8, 0, 1),
            entry(1.5, 10, 10),
        ])
        .unwrap();
        assert!(t.has_sessions());
        assert_eq!(t.session_count(), 2);
        assert_eq!(t.prefix_lens(), vec![0, 0, 24, 0]);
        assert_eq!(t.next_turn_exists(), vec![true, false, false, false]);
        let legacy = Trace::new(vec![entry(0.0, 8, 8)]).unwrap();
        assert!(!legacy.has_sessions());
        assert_eq!(legacy.session_count(), 0);
    }
}
