//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public functions:
//! name, start, end, parent span and request id. They stay in memory until
//! the run ends and are then written out as JSON. A span's *self time* is
//! its duration minus the part of its interval that its child spans cover.
//! With tracing off, [`Tracer::span`] only calls the closure.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `core.query`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request the span belongs to (0 when it belongs to no request).
    pub req: u64,
}

/// Span sink shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// that calls it makes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span sink poisoned");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                req,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_ns();
        self.spans.lock().expect("span sink poisoned")[id].end_ns = end;
        out
    }

    /// Record an already-timed span (start and end as measured elsewhere,
    /// e.g. a wire request timed by the load generator).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span sink poisoned").push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            req,
        });
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Durations of every span named `name`, in µs.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Summed self time of every span named `name`, in seconds.
    #[must_use]
    pub fn self_seconds(&self, name: &str) -> f64 {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e9)
            .sum()
    }

    /// All spans as a JSON document, with self times.
    #[must_use]
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        let mut out = String::from("{\"spans\":[\n");
        for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{self_ns}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.req,
                if i + 1 == spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals, clipped to its own.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&id) else {
                return total;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            total - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a: union is 10..50
            span("c", 90, 130, Some(0)), // clipped to 90..100
            span("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 40 - 10, 30 - 8, 20, 40, 8]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_parent_and_request() {
        let t = Tracer::new(true);
        t.span("outer", None, 9, |outer| {
            t.span("inner", outer, 9, |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 9);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
