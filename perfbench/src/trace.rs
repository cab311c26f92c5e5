//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (the layer), a start, an end, the span that caused
//! it, and the id of the request it belongs to. Spans stay in memory
//! until the run ends and are then written out as JSON lines. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover; overlapping children count once.
//!
//! Some children are *derived*: the program reports a duration without
//! exposing its interval (the operator timings in `ExecTrace`, or a parse
//! that runs inside `Session::prepare`). [`Tracer::derived`] places such
//! children end to end from the parent's start.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Only the thread that owns it records, so it needs no
/// locking; a disabled tracer records nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Start a new request: later spans share its id.
    pub fn begin_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record children of `parent` whose durations are known but whose
    /// intervals are not, laid end to end from the parent's start.
    pub fn derived(&mut self, parent: SpanId, children: &[(&str, Duration)]) {
        if !self.enabled {
            return;
        }
        let mut at = self.spans[parent].start_ns;
        let request = self.spans[parent].request;
        for (name, d) in children {
            let end = at + d.as_nanos() as u64;
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                request,
            });
            at = end;
        }
    }

    /// The id of the most recently closed or opened span named `name`.
    pub fn last(&self, name: &str) -> Option<SpanId> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            s.duration_ns()
                .saturating_sub(covered(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = vec![
            span("op", 0, 100, None),
            span("prepare", 10, 40, Some(0)),
            span("parse", 12, 20, Some(1)),
            span("execute", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 22, 8, 40]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 40, 45, Some(0)),
        ];
        // Union of children is [10, 70): 60 covered.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("op", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 190, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn derived_children_sit_end_to_end() {
        let mut t = Tracer::new(true);
        t.begin_request();
        t.span("execute", |t| {
            let id = t.last("execute").unwrap();
            t.derived(
                id,
                &[
                    ("scan", Duration::from_nanos(0)),
                    ("fuse", Duration::from_nanos(5)),
                ],
            );
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].start_ns, s[0].start_ns);
        assert_eq!(s[2].end_ns, s[0].start_ns + 5);
        assert!(s.iter().all(|x| x.request == 1));
        assert_eq!(s[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("op", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
