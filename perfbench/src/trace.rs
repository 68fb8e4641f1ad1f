//! In-memory spans recorded by the benchmark around its calls into each
//! layer crate. A span has a name, a start, an end, a parent and a trace
//! id shared by one login or one round. Spans are written to one file
//! when the run ends; [`Tracer::summary`] gives each span name's total and
//! self time (its duration minus the part its children cover).
//!
//! A disabled tracer reads no clock and stores nothing, so untraced runs
//! pay one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle of an open span (an index into the span table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The handle a disabled tracer gives out.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Position in [`Tracer::spans`]; `None` for [`SpanId::NONE`].
    pub fn index(self) -> Option<usize> {
        (self != SpanId::NONE).then_some(self.0 as usize)
    }
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The login or round this span belongs to.
    pub trace: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (0 while open).
    pub end: u64,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant all span times count from (shared with the UDP server
    /// thread, which stamps its own handle spans).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin (0 when disabled).
    pub fn now(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Open a span now.
    pub fn open(&mut self, name: &'static str, trace: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start = self.now();
        self.push(name, trace, parent, start, 0)
    }

    /// Close a span now.
    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let end = self.now();
            self.spans[id.0 as usize].end = end;
        }
    }

    /// Record a finished span with explicit times.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: SpanId,
        start: u64,
        end: u64,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        self.push(name, trace, parent, start, end)
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, trace, parent);
        let out = f();
        self.close(id);
        out
    }

    fn push(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: SpanId,
        start: u64,
        end: u64,
    ) -> SpanId {
        let parent = (parent != SpanId::NONE).then_some(parent.0);
        self.spans.push(Span {
            name,
            trace,
            parent,
            start,
            end,
        });
        SpanId((self.spans.len() - 1) as u32)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name`, in record order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_sub(s.start) as f64 / 1e3)
            .collect()
    }

    /// Per span name: (count, total µs, self µs). Self time is the span's
    /// duration minus the union of its children's intervals.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end.saturating_sub(s.start);
            let covered = union_len(&mut children[i], s.start, s.end);
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur as f64 / 1e3;
            e.2 += dur.saturating_sub(covered) as f64 / 1e3;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.record("root", 1, SpanId::NONE, 0, 100);
        t.record("a", 1, root, 10, 40);
        t.record("b", 1, root, 30, 50); // overlaps a: union is 10..50
        t.record("c", 1, root, 90, 120); // clipped to 90..100
        let s = t.summary();
        let (n, total, self_us) = s["root"];
        assert_eq!(n, 1);
        assert!((total - 0.1).abs() < 1e-9);
        assert!((self_us - 0.05).abs() < 1e-9, "self {self_us}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", 1, SpanId::NONE);
        t.close(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.now(), 0);
    }
}
