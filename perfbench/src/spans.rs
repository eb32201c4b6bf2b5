//! Spans the benchmark records around its own calls into each layer:
//! name, start, end, parent, and the identifier of the pass (or set-up)
//! they belong to. They are kept in memory and written out once, at
//! exit. A span's self time is its duration minus the time its direct
//! children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder started.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one pass or one set-up.
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled recorder only runs the closures it is
/// given, so untraced runs pay nothing for it.
pub struct Spans {
    on: bool,
    origin: Instant,
    /// `kinds[id - 1]` is what pass `id` was: `setup`, `warmup`, `timed`
    /// or `profiled`.
    kinds: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            kinds: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new pass of the given kind; spans recorded from here on
    /// carry its identifier, which is returned.
    pub fn begin(&mut self, kind: &'static str) -> u32 {
        self.kinds.push(kind);
        self.kinds.len() as u32
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            pass: self.kinds.len() as u32,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Ends every span a panicking call left open.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for idx in self.open.drain(..) {
            self.spans[idx].end_ns = now;
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Identifiers of every pass of `kind`, in order.
    pub fn passes(&self, kind: &str) -> Vec<u32> {
        (1..=self.kinds.len() as u32)
            .filter(|&id| self.kinds[id as usize - 1] == kind)
            .collect()
    }

    /// Total seconds of the spans named `name` in pass `pass`.
    pub fn total_s(&self, pass: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// Self time of every span, in nanoseconds, index-aligned with
    /// [`Spans::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// `(name, calls, total s, self s)` over the passes of `kind`,
    /// hottest self time first.
    pub fn self_time_table(&self, kind: &str) -> Vec<(&'static str, u64, f64, f64)> {
        let self_ns = self.self_ns();
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            if self.kinds[s.pass as usize - 1] == kind {
                let row = rows.entry(s.name).or_default();
                *row = (row.0 + 1, row.1 + s.dur_ns(), row.2 + own);
            }
        }
        let mut table: Vec<_> = rows
            .into_iter()
            .map(|(name, (calls, total, own))| (name, calls, total as f64 / 1e9, own as f64 / 1e9))
            .collect();
        table.sort_by(|a, b| b.3.total_cmp(&a.3));
        table
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = String::with_capacity(160 * self.spans.len());
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"pass\":{},\"kind\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{own}}}",
                s.pass,
                self.kinds[s.pass as usize - 1],
                s.name,
                s.start_ns,
                s.end_ns,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
