//! Wall-clock spans recorded by the benchmark around its calls into each
//! layer's public functions. Spans stay in memory until the run ends;
//! then they are folded into the per-layer table and exported in Chrome
//! `trace_event` form.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layer of the spans that time the benchmark's own instrumentation. They
/// are excluded from every other layer's time.
pub const BENCH_LAYER: &str = "bench.instrument";

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by every span of one request (a query, or a campaign).
    pub request: u64,
    /// Metric stem of the layer boundary, e.g. `core.generate`.
    pub layer: &'static str,
    /// Call detail: function id, model task, scenario key.
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Small per-process thread index, for the Chrome export.
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// `(request, span)` a new span on this thread parents onto.
pub type Context = (u64, u64);

thread_local! {
    static CURRENT: Cell<Option<Context>> = const { Cell::new(None) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// The span sink. Shared by every thread of a traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// This thread's open span, if a traced call is in progress on it.
    pub fn current() -> Option<Context> {
        CURRENT.with(Cell::get)
    }

    /// Runs `f` inside a span of `layer`. The span parents onto this
    /// thread's open span, or starts a new request when there is none;
    /// while `f` runs it is the open span, so calls nested in `f` parent
    /// onto it.
    pub fn span<T>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (request, parent) = Tracer::current().map_or((id, None), |(r, p)| (r, Some(p)));
        let saved = CURRENT.with(|c| c.replace(Some((request, id))));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(saved));
        let thread = THREAD.with(|t| *t);
        let span = Span {
            id,
            parent,
            request,
            layer,
            name: name.to_string(),
            start_ns,
            end_ns,
            thread,
        };
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking client")
            .push(span);
        out
    }

    /// [`Tracer::span`] under an explicit parent: for calls made on
    /// threads the traced call did not start (executor and campaign
    /// workers), which have no open span of their own.
    pub fn span_under<T>(
        &self,
        context: Option<Context>,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let saved = CURRENT.with(|c| c.replace(context));
        let out = self.span(layer, name, f);
        CURRENT.with(|c| c.set(saved));
        out
    }

    /// Adds to a named counter (per-layer work that has no span, such as
    /// prompt bytes).
    pub fn count(&self, name: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("counter sink poisoned")
            .entry(name)
            .or_default() += delta;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("counter sink poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per-span times, aligned with `spans`: `(time, self_time)` in ns.
/// `time` is the duration minus the instrumentation spans anywhere below
/// it; `self_time` is the duration minus the part of it any child span
/// covers (children running in parallel count once).
pub fn span_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent_of = |i: usize| spans[i].parent.and_then(|p| index.get(&p).copied());
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut instrumented = vec![0u64; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = parent_of(i) {
            children[p].push(i);
        }
        // Instrumentation spans are leaves and run on the calling thread,
        // so they never overlap one another under one ancestor.
        if span.layer == BENCH_LAYER {
            let mut ancestor = parent_of(i);
            while let Some(a) = ancestor {
                instrumented[a] += span.duration_ns();
                ancestor = parent_of(a);
            }
        }
    }
    spans
        .iter()
        .zip(&children)
        .zip(instrumented)
        .map(|((span, kids), instrumented)| {
            let mut all: Vec<(u64, u64)> = kids
                .iter()
                .map(|&i| (spans[i].start_ns, spans[i].end_ns))
                .collect();
            let duration = span.duration_ns();
            let self_time = duration - covered(span.start_ns, span.end_ns, &mut all);
            (duration.saturating_sub(instrumented), self_time)
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    pub calls: u64,
    pub time_ns: u64,
    pub self_ns: u64,
}

/// Folds spans into per-layer rows keyed by layer; tool calls are keyed
/// by framework (`toolkit.bgp` for `bgp.detect_moas`).
pub fn layer_table(spans: &[Span]) -> BTreeMap<String, LayerRow> {
    let mut table: BTreeMap<String, LayerRow> = BTreeMap::new();
    for (span, (time, self_time)) in spans.iter().zip(span_times(spans)) {
        let key = if span.layer == "toolkit" {
            let framework = span.name.split('.').next().unwrap_or("");
            format!("toolkit.{framework}")
        } else {
            span.layer.to_string()
        };
        let row = table.entry(key).or_default();
        row.calls += 1;
        row.time_ns += time;
        row.self_ns += self_time;
    }
    table
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Chrome `trace_event` export: one complete (`"ph":"X"`) event per
/// span, timestamps in microseconds since the tracer started.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
             \"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            escape(if span.name.is_empty() {
                span.layer
            } else {
                &span.name
            }),
            span.layer,
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            span.thread,
            span.id,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.request,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            layer,
            name: String::new(),
            start_ns: start,
            end_ns: end,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,40) and [30,60) overlap (parallel
        // executor workers), so together they cover 50, not 60. The
        // grandchild inside [10,40) does not count against the root.
        let spans = vec![
            span(1, None, "query", 0, 100),
            span(2, Some(1), "toolkit", 10, 40),
            span(3, Some(1), "toolkit", 30, 60),
            span(4, Some(2), "toolkit", 15, 25),
        ];
        let times = span_times(&spans);
        assert_eq!(times[0], (100, 50));
        assert_eq!(times[1], (30, 20));
        assert_eq!(times[2], (30, 30));
        assert_eq!(times[3], (10, 10));
    }

    #[test]
    fn instrumentation_leaves_the_time_of_every_ancestor() {
        let spans = vec![
            span(1, None, "query", 0, 120),
            span(2, Some(1), "core.generate", 0, 100),
            span(3, Some(2), BENCH_LAYER, 0, 5),
            span(4, Some(2), "llm.complete", 5, 45),
        ];
        let table = layer_table(&spans);
        let row = |time_ns, self_ns| LayerRow {
            calls: 1,
            time_ns,
            self_ns,
        };
        assert_eq!(table["query"], row(115, 20));
        assert_eq!(table["core.generate"], row(95, 55));
        assert_eq!(table["llm.complete"], row(40, 40));
    }

    #[test]
    fn nested_tracer_spans_share_the_request_and_parent_correctly() {
        let tracer = Tracer::new();
        let (outer, inner) = tracer.span("query", "q", || {
            let outer = Tracer::current().unwrap();
            let inner = tracer.span("core.generate", "", || Tracer::current().unwrap());
            (outer, inner)
        });
        assert!(Tracer::current().is_none(), "the open span is restored");
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.request, root.request);
        assert_eq!(outer, (root.request, root.id));
        assert_eq!(inner, (root.request, child.id));
        // A worker thread adopts the context it is handed.
        std::thread::scope(|s| {
            s.spawn(|| tracer.span_under(Some(outer), "toolkit", "bgp.x", || ()));
        });
        let worker = tracer.spans().pop().unwrap();
        assert_eq!(worker.parent, Some(root.id));
        assert_eq!(worker.request, root.request);
    }

    #[test]
    fn chrome_export_has_one_complete_event_per_span() {
        let spans = vec![
            span(1, None, "query", 0, 2000),
            span(2, Some(1), "toolkit", 0, 10),
        ];
        let json = chrome_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"parent\":1"));
    }
}
