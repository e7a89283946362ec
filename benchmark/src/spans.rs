//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span is a name (`layer.function`), a start and an end on the host
//! clock, the span that caused it, and the round and query it belongs to.
//! Spans stay in memory and are written out once, when the benchmark ends.
//! With tracing off `begin` / `end` do nothing, so the traced and untraced
//! passes run the same workload code.

use std::time::Instant;

use crate::api::JsonValue;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
    pub query: u32,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    round: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new round; spans recorded from here on carry `round` and
    /// are kept only when `enabled`.
    pub fn start_round(&mut self, round: u32, enabled: bool) {
        assert!(self.open.is_empty(), "a span is still open across rounds");
        self.round = round;
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, query: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
            query,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of the spans of `round` named `name`, in
    /// the order they ran.
    #[must_use]
    pub fn durations(&self, round: u32, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.round == round && s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children run on one thread, so they never
/// overlap each other; a child is clipped to its parent's interval.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for child in spans {
        if let Some(p) = child.parent {
            let parent = &spans[p];
            let start = child.start_ns.max(parent.start_ns);
            let end = child.end_ns.min(parent.end_ns);
            own[p] = own[p].saturating_sub(end.saturating_sub(start));
        }
    }
    own
}

/// The trace file: every span with its self time, times in nanoseconds
/// since the tracer was created.
#[must_use]
pub fn to_json(workload: &str, spans: &[Span]) -> JsonValue {
    let own = self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(own)
        .enumerate()
        .map(|(id, (s, own))| {
            JsonValue::Object(vec![
                ("id".into(), JsonValue::from(id)),
                ("name".into(), JsonValue::from(s.name)),
                ("start_ns".into(), JsonValue::from(s.start_ns)),
                ("end_ns".into(), JsonValue::from(s.end_ns)),
                ("self_ns".into(), JsonValue::from(own)),
                (
                    "parent".into(),
                    s.parent.map_or(JsonValue::Null, JsonValue::from),
                ),
                ("round".into(), JsonValue::from(u64::from(s.round))),
                ("query".into(), JsonValue::from(u64::from(s.query))),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("schema".into(), JsonValue::from("newton-benchmark-trace/1")),
        ("workload".into(), JsonValue::from(workload)),
        ("spans".into(), JsonValue::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
            query: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // round [0,100] > body [10,90] > run [20,50]; the grandchild is
        // charged to `body`, not to `round`.
        let spans = [
            span("round", 0, 100, None),
            span("body", 10, 90, Some(0)),
            span("run", 20, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        // Two children back to back, a gap, then a third.
        let spans = [
            span("body", 0, 100, None),
            span("a", 0, 30, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 70, 100, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 30, 30, 30]);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        let spans = [span("p", 10, 20, None), span("c", 5, 25, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn tracer_links_parents_and_skips_when_off() {
        let mut t = Tracer::new();
        t.start_round(0, false);
        let off = t.begin("x", 0);
        t.end(off);
        assert!(t.spans().is_empty());

        t.start_round(1, true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[1].round, s[1].query), (1, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations(1, "inner").len(), 1);
        assert!(t.durations(0, "inner").is_empty());
    }
}
