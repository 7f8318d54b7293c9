//! Wall-clock spans around every public call the benchmark makes into
//! the simulator. Durations are always measured (the host metrics need
//! them); spans are kept only when tracing is on, held in memory, and
//! written out at the end as Chrome trace-event JSON.

use std::time::Instant;
use sv_sim::JsonWriter;

/// One timed call: name, start, end, the span that encloses it, and the
/// workload it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// Public call (or benchmark phase) the span covers.
    pub name: &'static str,
    /// Workload the call ran for.
    pub workload: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An open span, returned by [`Recorder::begin`] and closed by
/// [`Recorder::end`].
#[must_use]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    workload: &'static str,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder; spans are kept only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            workload: "",
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn span keeping on or off (durations are measured either way).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Attribute the following spans to `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    /// Spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span named `name` inside the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let at = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                workload: self.workload,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { start, index }
    }

    /// Close `open`, returning its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = now.duration_since(self.origin).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close in LIFO order");
        }
        now.duration_since(open.start).as_secs_f64()
    }

    /// The kept spans as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps; the exact nanosecond bounds ride in
    /// `args`). Perfetto and `chrome://tracing` load it directly.
    pub fn chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj().key("traceEvents").begin_arr();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_obj()
                .field_str("name", s.name)
                .field_str("cat", s.workload)
                .field_str("ph", "X")
                .field_u64("ts", s.start_ns / 1_000)
                .field_u64("dur", (s.end_ns - s.start_ns) / 1_000)
                .field_u64("pid", 1)
                .field_u64("tid", 1)
                .key("args")
                .begin_obj()
                .field_u64("id", i as u64)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns)
                .field_str("workload", s.workload);
            if let Some(p) = s.parent {
                w.field_u64("parent", p as u64);
            }
            w.end_obj().end_obj();
        }
        w.end_arr().field_str("displayTimeUnit", "ns").end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut r = Recorder::new(true);
        r.set_workload("w");
        let outer = r.begin("outer");
        let inner = r.begin("inner");
        assert!(r.end(inner) >= 0.0);
        r.end(outer);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
        let json = r.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut r = Recorder::new(false);
        let s = r.begin("x");
        assert!(r.end(s) >= 0.0);
        assert!(r.spans().is_empty());
    }
}
