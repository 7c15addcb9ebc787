//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! origin), the span that caused it and the request it belongs to. Spans
//! stay in memory while the benchmark runs and are written out once, at
//! the end. A span's *self time* is its duration minus the part of its
//! interval that its child spans cover.

use std::io::Write as _;
use std::time::Instant;

/// Request id of spans that belong to no request (set-up, replays).
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `ppr.sparse_ppr`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span served, or [`NO_REQUEST`].
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder. A disabled tracer records nothing, so
/// the same code path runs traced and untraced.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self { origin: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// `t` in nanoseconds since the tracer's origin.
    pub fn ns_of(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval as a span (for work timed on
    /// another thread, such as a load phase's client requests).
    pub fn record(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line: name, start, end,
    /// parent (or -1) and request (or -1).
    pub fn write_tsv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| i64::try_from(p).unwrap_or(-1));
            let request = if s.request == NO_REQUEST { -1 } else { s.request as i64 };
            writeln!(out, "{}\t{}\t{}\t{parent}\t{request}", s.name, s.start_ns, s.end_ns)?;
        }
        Ok(())
    }

    /// Writes the spans to `path` (see [`Tracer::write_tsv`]).
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_tsv(&mut out)?;
        out.flush()
    }
}

/// Self time of every span in `spans`: its duration minus the union of
/// its children's intervals clipped to it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100] > a [10,60] > b [20,30]
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_adjacent_and_overlapping_children() {
        // Adjacent children [10,40] and [40,70] cover 60 of the root's 100;
        // an overlapping third child [60,80] adds only [70,80].
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 60, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 25]);
    }

    #[test]
    fn tracer_links_nested_spans_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner2", 7, |_| ());
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("outer", None), ("inner", Some(0)), ("inner2", Some(0))]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns && s.request == 7));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
