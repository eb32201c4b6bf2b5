//! Where events go: the [`TraceSink`] trait and its implementations.
//!
//! Engines take `&mut dyn TraceSink` and guard every emission site on
//! [`TraceSink::enabled`], so the disabled default ([`NullSink`])
//! skips event *construction* entirely — tracing off costs one virtual
//! call per site at most, and in practice the engines hoist the flag
//! into a local so the hot loop pays a single branch.

use crate::event::Event;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A consumer of trace [`Event`]s.
pub trait TraceSink {
    /// Whether the sink wants events at all. Emission sites check this
    /// before constructing an [`Event`]; the default is `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn emit(&mut self, event: &Event);
}

/// The zero-cost default: reports `enabled() == false` and drops
/// everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: &Event) {}
}

/// Collects events in memory for in-process queries (tests, the
/// Perfetto exporter, metrics derivation).
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    events: Vec<Event>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// All collected events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The per-request timeline: every event tagged with `request`.
    pub fn for_request(&self, request: usize) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| e.request == Some(request))
            .collect()
    }

    /// Renders the collected stream as JSONL (one event per line,
    /// trailing newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for MemorySink {
    fn emit(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Streams events as deterministic JSON lines to any writer.
///
/// Write failures are deferred: emission never panics mid-simulation;
/// call [`JsonlSink::finish`] to flush and surface the first error.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    written: u64,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL event log at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the `File::create` failure.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            written: 0,
            error: None,
        }
    }

    /// Flushes and returns the event count, or the first write error.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit during emission or flush.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.written)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let mut line = event.to_json();
        line.push('\n');
        match self.writer.write_all(line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t: f64, request: Option<usize>) -> Event {
        Event {
            t,
            replica: None,
            request,
            kind: EventKind::Requeue { from: 0 },
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(&ev(0.0, None)); // no-op, must not panic
    }

    #[test]
    fn memory_sink_filters_by_request() {
        let mut s = MemorySink::new();
        assert!(s.enabled());
        s.emit(&ev(0.0, Some(1)));
        s.emit(&ev(1.0, Some(2)));
        s.emit(&ev(2.0, Some(1)));
        assert_eq!(s.events().len(), 3);
        assert_eq!(s.for_request(1).len(), 2);
        assert_eq!(s.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut s = JsonlSink::new(Vec::new());
        s.emit(&ev(0.5, Some(7)));
        s.emit(&ev(1.5, None));
        assert_eq!(s.written, 2);
        let bytes = {
            let JsonlSink { writer, .. } = s;
            writer
        };
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            Event::from_json(line).unwrap();
        }
    }

    #[test]
    fn jsonl_sink_defers_write_errors_to_finish() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut s = JsonlSink::new(Failing);
        s.emit(&ev(0.0, None));
        s.emit(&ev(1.0, None)); // must not panic after first failure
        assert_eq!(s.written, 0);
        assert!(s.finish().is_err());
    }
}
