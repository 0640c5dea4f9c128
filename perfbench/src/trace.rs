//! In-memory span recorder for the traced run.
//!
//! The harness records a span around each call it makes into a layer's
//! public functions: name, start, end, the span that caused it, and the
//! id of the request (device job, upload, query…) it belongs to. Spans
//! stay in memory and are written out once, when the run ends. A span's
//! self time is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span measures, e.g. `simrt.run`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request the span belongs to; spans of one request share it.
    pub req: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child time), ns.
    pub self_ns: u64,
}

/// Span recorder of one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; recorders of
    /// different threads share one epoch so their spans line up.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.push(name, parent, req, start_ns, 0)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Records a finished span with explicit bounds.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns,
        });
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.dur_ns();
            t.self_ns += span.dur_ns().saturating_sub(*children);
        }
        out
    }

    /// Summed duration of the root spans (no parent) — the share of a
    /// single-threaded wall time the trace accounts for.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// Durations, ns, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
