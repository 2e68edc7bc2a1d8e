//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent, request id), kept in memory, and written out
//! as JSON lines when the run ends. A layer's self time is its span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `ir.pipeline`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Index of the enclosing span, `None` for a request root.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
    /// Placed from a duration the program reported (pass statistics)
    /// rather than timed around a call: its start is the previous sibling's
    /// end, so only its length is measured.
    pub derived: bool,
}

/// Records the spans of one client thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`; `first_request` makes
    /// request ids unique across client threads.
    pub fn new(epoch: Instant, first_request: u64) -> Tracer {
        Tracer { epoch, spans: Vec::new(), open: Vec::new(), request: first_request }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span; a span opened with
    /// nothing open is a request root and starts a new request id.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.request += 1;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
            derived: false,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Closes `id` and any span still open inside it (a request that
    /// panicked leaves its inner spans open).
    pub fn end_through(&mut self, id: usize) {
        while let Some(&top) = self.open.last() {
            self.end(top);
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds children of the closed span `parent` from durations the program
    /// reported, laid end to end from the parent's start.
    pub fn derived_children(&mut self, parent: usize, children: &[(&'static str, Duration)]) {
        let mut at = self.spans[parent].start;
        for &(name, duration) in children {
            let end = at + u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
            self.spans.push(Span {
                name,
                start: at,
                end,
                parent: Some(parent),
                request: self.spans[parent].request,
                derived: true,
            });
            at = end;
        }
    }

    /// Consumes the tracer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Self time per span name.
    pub self_time: BTreeMap<&'static str, Duration>,
    /// Number of request roots.
    pub requests: u64,
    /// Sum of request wall clock.
    pub request_wall: Duration,
    /// Sum of request wall clock covered by the roots' direct children.
    pub covered: Duration,
}

impl Summary {
    /// Folds in one tracer's spans (indices are local to that tracer).
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_time = vec![0u64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        for (i, span) in spans.iter().enumerate() {
            let own = (span.end - span.start).saturating_sub(child_time[i]);
            *self.self_time.entry(span.name).or_default() += Duration::from_nanos(own);
            if span.parent.is_none() {
                self.requests += 1;
                self.request_wall += Duration::from_nanos(span.end - span.start);
                self.covered += Duration::from_nanos(child_time[i].min(span.end - span.start));
            }
        }
    }

    /// Mean self time per request of a layer, in milliseconds.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let total = self.self_time.get(name).copied().unwrap_or_default();
        total.as_secs_f64() * 1e3 / self.requests.max(1) as f64
    }

    /// Share of request wall clock that falls under a layer span.
    pub fn coverage(&self) -> f64 {
        self.covered.as_secs_f64() / self.request_wall.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Renders spans as JSON lines, numbering them from `first_id` (span
/// indices are local to one tracer, so each tracer gets its own range).
pub fn spans_jsonl(spans: &[Span], first_id: usize) -> String {
    let mut out = String::new();
    for (i, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| (first_id + p).to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"derived\":{}}}\n",
            first_id + i,
            span.name,
            span.start,
            span.end,
            parent,
            span.request,
            span.derived
        ));
    }
    out
}
