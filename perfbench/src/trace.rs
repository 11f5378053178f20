//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (no spans inside the crates). Each span has a name,
//! start and end relative to a shared epoch, the index of the span that
//! enclosed it and the frame/request id it belongs to. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Frame, step or request id the span belongs to.
    pub req: u64,
}

/// Per-thread span recorder; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Records an already-timed span (e.g. one whose end another thread
    /// observed) under an explicit parent; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                r#"{{"id": {i}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}, "req": {}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        f.flush()
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Span time minus the part of it covered by child spans.
    pub self_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Count, total time and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered(kids, s.start_ns, s.end_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Children overlap each other and one sticks out of the parent:
        // covered = [10, 50) + [90, 100) = 50 of the parent's 100.
        let spans = vec![
            span("frame", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a", 20, 50, Some(0)),
            span("b", 90, 120, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["frame"].self_ns, 50);
        assert_eq!(t["frame"].total_ns, 100);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].self_ns, 50);
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let spans = vec![
            span("frame", 0, 100, None),
            span("exec", 0, 80, Some(0)),
            span("kernel", 0, 60, Some(1)),
        ];
        let t = totals(&spans);
        assert_eq!(t["frame"].self_ns, 20);
        assert_eq!(t["exec"].self_ns, 20);
        assert_eq!(t["kernel"].self_ns, 60);
    }

    #[test]
    fn tracer_nests_and_records() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch);
        let outer = tr.begin("frame", 7);
        let inner = tr.begin("exec", 7);
        tr.end(inner);
        tr.end(outer);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);

        let t = Instant::now();
        let frame = tr.record("loadgen.frame", 1, (t, t + Duration::from_millis(5)), None);
        let t2 = t + Duration::from_millis(1);
        tr.record(
            "serve.window",
            1,
            (t2, t2 + Duration::from_millis(2)),
            frame,
        );
        let tot = totals(tr.spans());
        assert_eq!(tot["loadgen.frame"].self_ns, 3_000_000);

        let mut off = Tracer::new(false, epoch);
        let s = off.begin("frame", 0);
        off.end(s);
        assert_eq!(off.record("x", 0, (t, t), None), None);
        assert!(off.spans().is_empty());
    }
}
