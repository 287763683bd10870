//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate's public functions (name, start, end, parent); nothing inside
//! the program under test is instrumented by this module. Spans stay in
//! a preallocated vector and are written out as Chrome `trace_event`
//! JSON when the run ends. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

/// Per-name totals over a finished trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An enabled tracer with room for `capacity` spans, reserved up
    /// front so recording does not allocate while allocations are being
    /// counted.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    /// A tracer whose `enter`/`exit` are a branch and nothing else: the
    /// timed run shares the traced run's code path through this.
    pub fn disabled() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals_of(&self.spans)
    }

    /// Chrome `trace_event` document: one complete (`"X"`) event per
    /// span on pid 1 / tid 0, `args.parent` naming the causing span and
    /// `args.workload` the run all spans belong to; `metadata` is the
    /// provenance block.
    pub fn chrome_trace(&self, workload: &str, metadata: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"bench_stack spans\"}}",
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":0,\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"workload\":\"{workload}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"metadata\":");
        out.push_str(metadata);
        out.push('}');
        out
    }
}

/// Self time per span = its duration minus its direct children's. The
/// tracer is single-threaded and stack-based, so the children of one
/// span lie inside it and never overlap.
pub fn totals_of(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
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
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        // epoch [0,100) with forward [10,40) and backward [50,90).
        let spans = [
            span("epoch", 0, 100, None),
            span("forward", 10, 40, Some(0)),
            span("backward", 50, 90, Some(0)),
        ];
        let t = totals_of(&spans);
        assert_eq!(
            t["epoch"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(t["forward"].self_ns, 30);
        assert_eq!(t["backward"].self_ns, 40);
    }

    #[test]
    fn self_time_counts_only_direct_children_once() {
        // epoch > forward > ap: ap is inside forward, so it must not be
        // subtracted from epoch a second time.
        let spans = [
            span("epoch", 0, 100, None),
            span("forward", 10, 60, Some(0)),
            span("ap", 20, 50, Some(1)),
            span("ap", 52, 58, Some(1)),
        ];
        let t = totals_of(&spans);
        assert_eq!(t["epoch"].self_ns, 50);
        assert_eq!(t["forward"].self_ns, 50 - 30 - 6);
        assert_eq!(
            t["ap"],
            SpanTotals {
                count: 2,
                total_ns: 36,
                self_ns: 36
            }
        );
        // Self times partition the root interval.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::new(8);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        t.span("outer", |_| ());
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert!(s[1].end_ns <= s[2].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(t.totals()["inner"].count, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let x = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(x, 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parents_and_metadata() {
        let mut t = Tracer::new(4);
        t.span("outer", |t| t.span("inner", |_| ()));
        let doc = t.chrome_trace("single_reddit", "{\"seed\":7}");
        let v = crate::json::parse(&doc).expect("trace parses");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 1 + 2);
        let inner = &events[2];
        assert_eq!(inner.get("name").and_then(|n| n.as_str()), Some("inner"));
        let args = inner.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(
            args.get("workload").and_then(|w| w.as_str()),
            Some("single_reddit")
        );
        assert_eq!(
            v.get("metadata")
                .and_then(|m| m.get("seed"))
                .and_then(|s| s.as_f64()),
            Some(7.0)
        );
    }
}
