//! The [`Recorder`]: the collection point for spans, events and
//! metrics.
//!
//! One lane records everything, in the order it happens:
//! [`Recorder::begin_span`] / [`Recorder::end_span`] open and close spans
//! (each a child of the innermost open span), [`Recorder::emit`] puts an
//! event on the innermost open span at the current tick, and
//! [`Recorder::advance`] moves the logical clock. The session opens its
//! span, the executor opens a workflow span around the run and step and
//! attempt spans as steps run, and runtime wrappers (chaos, resilience)
//! emit onto the attempt span that is open while their call runs. Every
//! `events.<label>` counter counts events the trace holds. The executor
//! runs a workflow's steps one at a time in list order on the caller's
//! thread, so a recorder that records one query at a time gets the same
//! trace, byte for byte, on every rerun.
//!
//! Logical clock: the executor charges one tick per attempt, the
//! retry policy's backoff per retry, and one tick per step that never
//! reaches the runtime. Wall clocks never appear — the crate is in
//! conformance's `DETERMINISTIC_CRATES`, and clippy bans `Instant` and
//! `SystemTime`.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::trace::{span_id, Event, EventKind, Span, SpanKind, SpanStatus, Trace};
use parking_lot::Mutex;
use std::fmt;

#[derive(Default)]
struct RecorderState {
    trace: Trace,
    /// The logical clock.
    clock: u64,
    /// Indices into `trace.spans` of currently-open spans (stack).
    open: Vec<usize>,
    /// Per-trace sequence salt for span ids.
    seq: u64,
    metrics: MetricsRegistry,
}

impl RecorderState {
    fn current_span(&self) -> Option<u64> {
        self.open.last().map(|&i| self.trace.spans[i].id)
    }

    fn begin(&mut self, kind: SpanKind, name: &str) -> u64 {
        let parent = self.current_span();
        let id = span_id(kind, name, parent, self.seq);
        self.seq += 1;
        self.trace.spans.push(Span {
            id,
            parent,
            kind,
            name: name.to_string(),
            start: self.clock,
            end: self.clock,
            // Placeholder until `end` closes the span.
            status: SpanStatus::Ok,
        });
        self.open.push(self.trace.spans.len() - 1);
        id
    }

    fn end(&mut self, status: SpanStatus) {
        if let Some(index) = self.open.pop() {
            let span = &mut self.trace.spans[index];
            span.end = self.clock;
            span.status = status;
        }
    }

    fn emit(&mut self, kind: EventKind) {
        self.metrics.add(&format!("events.{}", kind.label()), 1);
        self.trace.events.push(Event {
            span: self.current_span(),
            at: self.clock,
            kind,
        });
    }
}

/// Thread-safe deterministic trace/metrics collector. Cheap to share as
/// `Arc<Recorder>`; all methods take `&self`.
///
/// One recorder records one query at a time: spans nest by the order
/// they open, so two queries recording into one recorder at once would
/// interleave their trees. Concurrent callers (campaign workers, session
/// clients) give each query its own recorder.
#[derive(Default)]
pub struct Recorder {
    state: Mutex<RecorderState>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Open a span as a child of the innermost open span. Returns the
    /// content-derived span id.
    pub fn begin_span(&self, kind: SpanKind, name: &str) -> u64 {
        self.state.lock().begin(kind, name)
    }

    /// Close the innermost open span with `status`.
    pub fn end_span(&self, status: SpanStatus) {
        self.state.lock().end(status);
    }

    /// Emit an event on the innermost open span at the current tick.
    /// Also bumps the `events.<label>` counter.
    pub fn emit(&self, kind: EventKind) {
        self.state.lock().emit(kind);
    }

    /// Advance the logical clock.
    pub fn advance(&self, ticks: u64) {
        self.state.lock().clock += ticks;
    }

    /// Add to a named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.state.lock().metrics.add(name, delta);
    }

    // -- exporters ----------------------------------------------------

    /// Clone of the assembled trace.
    pub fn trace(&self) -> Trace {
        self.state.lock().trace.clone()
    }

    /// Canonical JSON export (byte-identical for identical runs).
    pub fn trace_json(&self) -> String {
        self.state.lock().trace.to_canonical_json()
    }

    /// Chrome `trace_event` export for `chrome://tracing` / Perfetto.
    pub fn chrome_trace(&self) -> String {
        self.state.lock().trace.to_chrome_json()
    }

    /// Content hash of the canonical trace — the value provenance
    /// records link by.
    pub fn trace_hash(&self) -> u64 {
        self.state.lock().trace.content_hash()
    }

    /// Snapshot of every counter recorded so far.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.state.lock().metrics.snapshot()
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Recorder")
            .field("spans", &state.trace.spans.len())
            .field("events", &state.trace.events.len())
            .field("clock", &state.clock)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_lane_nests_session_spans() {
        let recorder = Recorder::new();
        recorder.begin_span(SpanKind::Session, "query");
        recorder.emit(EventKind::EpochPinned { sequence: 3 });
        recorder.begin_span(SpanKind::Workflow, "w");
        recorder.advance(1);
        recorder.end_span(SpanStatus::Ok);
        recorder.end_span(SpanStatus::Ok);
        let trace = recorder.trace();
        let session = &trace.spans[0];
        assert_eq!(session.kind, SpanKind::Session);
        let workflow = trace
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Workflow)
            .expect("workflow span");
        assert_eq!(workflow.parent, Some(session.id));
        assert_eq!(trace.events[0].span, Some(session.id));
        assert_eq!(session.end, 1, "session clock advanced by the workflow");
    }

    #[test]
    fn identical_runs_are_byte_identical() {
        let run = || {
            let recorder = Recorder::new();
            recorder.begin_span(SpanKind::Workflow, "w");
            recorder.begin_span(SpanKind::Step, "s0");
            recorder.begin_span(SpanKind::Attempt, "f.a");
            recorder.emit(EventKind::FaultInjected {
                function: "f.a".into(),
                transient: false,
            });
            recorder.advance(1);
            recorder.end_span(SpanStatus::Failed);
            recorder.emit(EventKind::Retry { attempt: 0, backoff_ticks: 4 });
            recorder.advance(4);
            recorder.end_span(SpanStatus::Failed);
            recorder.end_span(SpanStatus::Degraded);
            (recorder.trace_json(), recorder.trace_hash())
        };
        assert_eq!(run(), run());
    }
}
