//! In-memory spans for the traced run. Spans are recorded from the
//! benchmark's own files around its calls into each layer, kept in
//! memory while the workload runs, and written out once at exit.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `source.generate` or `screener.run_into`.
    pub name: &'static str,
    /// The request (slice or submission) the span belongs to; spans of
    /// one request share it.
    pub trace: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span log with one time origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"trace\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
