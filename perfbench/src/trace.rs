//! In-memory spans: one per timed call, with its operation id, parent,
//! start and end, plus the allocations made while it was open. Spans
//! are kept until the run ends and then written out as JSON lines.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id (1-based).
    pub id: u64,
    /// Id shared by every span of one operation (0 outside any).
    pub op: u64,
    /// The enclosing operation's root span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.decode`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Allocations made while the span was open (all threads).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Samples the call processed (0 when not meaningful).
    pub samples: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration in ns.
    pub busy_ns: u64,
    /// Summed allocations.
    pub allocs: u64,
    /// Summed bytes allocated.
    pub bytes: u64,
    /// Summed samples processed.
    pub samples: u64,
}

impl SpanStats {
    /// Busy ns per processed sample (NaN without samples).
    pub fn ns_per_sample(&self) -> f64 {
        if self.samples == 0 {
            return f64::NAN;
        }
        self.busy_ns as f64 / self.samples as f64
    }
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Current operation id and its root span.
    op: Option<(u64, u64)>,
    ops: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            op: None,
            ops: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, child of the open operation.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (a0, b0) = alloc::counters();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let (a1, b1) = alloc::counters();
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            op: self.op.map_or(0, |(op, _)| op),
            parent: self.op.map(|(_, root)| root),
            name,
            start_ns,
            end_ns,
            allocs: a1 - a0,
            bytes: b1 - b0,
            samples: 0,
        });
        out
    }

    /// [`Tracer::time`] when a tracer is present, a plain call
    /// otherwise.
    pub fn time_opt<R>(
        tracer: &mut Option<&mut Tracer>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        match tracer {
            Some(t) => t.time(name, f),
            None => f(),
        }
    }

    /// Sets the processed-sample count of the last recorded span.
    pub fn samples(&mut self, samples: usize) {
        if let Some(s) = self.spans.last_mut() {
            s.samples = samples as u64;
        }
    }

    /// Duration in ns of the last recorded span (0 when none).
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, Span::ns)
    }

    /// Runs `f` as one operation: a root span named `name` whose id
    /// every span recorded inside shares.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.ops += 1;
        let op = self.ops;
        let id = self.spans.len() as u64 + 1;
        let (a0, b0) = alloc::counters();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            op,
            parent: None,
            name,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
            bytes: 0,
            samples: 0,
        });
        let outer = self.op.replace((op, id));
        let out = f(self);
        self.op = outer;
        let end_ns = self.now_ns();
        let (a1, b1) = alloc::counters();
        let root = &mut self.spans[id as usize - 1];
        root.end_ns = end_ns;
        root.allocs = a1 - a0;
        root.bytes = b1 - b0;
        out
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut m: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for s in &self.spans {
            let e = m.entry(s.name).or_default();
            e.calls += 1;
            e.busy_ns += s.ns();
            e.allocs += s.allocs;
            e.bytes += s.bytes;
            e.samples += s.samples;
        }
        m
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"op\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"bytes\":{},\"samples\":{}}}",
                s.id,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                s.allocs,
                s.bytes,
                s.samples
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_share_their_operation_and_parent() {
        let mut t = Tracer::new();
        t.time("outside", || ());
        t.op("op", |t| {
            t.time("a", || ());
            t.time("b", || ());
            t.samples(10);
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].op, s[0].parent), (0, None));
        let root = s[1].id;
        assert_eq!(s[1].name, "op");
        assert!(s[2..].iter().all(|x| x.op == 1 && x.parent == Some(root)));
        assert!(s[1].end_ns >= s[3].end_ns);
        let stats = t.stats();
        assert_eq!(stats["b"].samples, 10);
        assert_eq!(stats["a"].calls, 1);
    }
}
