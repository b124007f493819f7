//! Spans recorded by the benchmark around its own calls into each layer,
//! and the self-time arithmetic that turns them into a breakdown which
//! closes to the traced wall time.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that the union of its children covers. Every nanosecond of a root span
//! is therefore the self time of exactly one span, so the self times of
//! all spans add up to the summed root durations (the traced wall). Root
//! and glue spans report their self time as `unattributed_ms`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder. Spans nest by call order: `enter` opens a
/// child of the innermost open span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end = self.now();
    }

    /// Time one call as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Record an interval measured elsewhere (a duration the program
    /// reports about its own work) as a child of the closed span
    /// `parent`, ending at `end` and clamped into the parent's interval.
    /// Returns the recorded start, so reported intervals can be laid
    /// back to back without overlapping.
    pub fn record(&mut self, name: &'static str, parent: usize, end: u64, nanos: u64) -> u64 {
        let p = &self.spans[parent];
        let end = end.clamp(p.start, p.end);
        let start = end.saturating_sub(nanos).max(p.start);
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
        });
        start
    }

    /// Start and end of a closed span.
    pub fn bounds(&self, id: usize) -> (u64, u64) {
        (self.spans[id].start, self.spans[id].end)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
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
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span, in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end - s.start) - union_len(kids, s.start, s.end))
        .collect()
}

/// The traced wall: summed duration of the root spans.
pub fn traced_wall(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: the overlap is subtracted once.
            span("b", 30, 60, Some(0)),
            // Sticks out of the parent: only the inside part counts.
            span("c", 90, 120, Some(0)),
            span("a.child", 15, 25, Some(1)),
        ];
        let st = self_times(&spans);
        // root covers [10,60) and [90,100) by children: 100 - 60 = 40.
        assert_eq!(st[0], 40);
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 30);
        assert_eq!(st[4], 10);
    }

    #[test]
    fn union_of_disjoint_nested_and_touching_intervals() {
        assert_eq!(union_len(&mut [(0, 10), (20, 30)], 0, 100), 20);
        assert_eq!(union_len(&mut [(0, 10), (2, 5)], 0, 100), 10);
        assert_eq!(union_len(&mut [(0, 10), (10, 20)], 0, 100), 20);
        assert_eq!(union_len(&mut [(5, 50)], 10, 20), 10);
        assert_eq!(union_len(&mut [], 0, 100), 0);
    }

    #[test]
    fn breakdown_closes_to_the_traced_wall() {
        let mut tr = Tracer::default();
        for _ in 0..3 {
            let unit = tr.enter("unit");
            tr.time("layer.a", || {
                std::hint::black_box((0..2000u64).sum::<u64>())
            });
            let b = tr.enter("layer.b");
            tr.time("layer.c", || {
                std::hint::black_box((0..500u64).product::<u64>())
            });
            tr.exit(b);
            tr.exit(unit);
            // A root whose children are durations reported by the program.
            let req = tr.enter("request");
            std::hint::black_box((0..1000u64).sum::<u64>());
            tr.exit(req);
            let (_, end) = tr.bounds(req);
            let run_start = tr.record("reported.run", req, end, 300);
            tr.record("reported.wait", req, run_start, 200);
        }
        let spans = tr.spans();
        let total: u64 = self_by_name(spans).values().sum();
        assert_eq!(total, traced_wall(spans));
        assert!(traced_wall(spans) > 0);
    }

    #[test]
    fn recorded_spans_are_clamped_into_their_parent() {
        let mut tr = Tracer::default();
        let root = tr.enter("root");
        tr.exit(root);
        let (s, e) = tr.bounds(root);
        assert_eq!(tr.record("huge", root, e + 1_000_000, u64::MAX / 2), s);
        let child = &tr.spans()[1];
        assert_eq!((child.start, child.end), (s, e));
        assert_eq!(self_times(tr.spans())[0], 0);
    }
}
