//! The [`Recorder`]: thread-safe collection point for spans, events and
//! metrics.
//!
//! Determinism contract: runtime wrappers (chaos, resilience) call
//! [`Recorder::emit_invocation`] while a step's tool runs, and every such
//! event is *buffered* keyed by `(step id, attempt)` — nothing enters the
//! trace yet. The executor runs a workflow's steps one at a time in list
//! order on the caller's thread; when it finishes (the same fold that
//! builds `ExecutionReport`), it calls [`Recorder::record_workflow`] with
//! per-step observations in list order. That one call assembles step and
//! attempt spans on the logical clock and drains each invocation's
//! buffered events into the trace in emission order, so the whole trace
//! is byte-identical across reruns.
//!
//! The serial lane ([`Recorder::begin_span`] / [`Recorder::end_span`] /
//! [`Recorder::emit`]) is for code that is already single-threaded per
//! recorder: session lifecycles, epoch pins/publishes, registration
//! cache probes.
//!
//! Logical clock: each attempt costs one tick; each retry additionally
//! advances by its backoff (`base << attempt`, the executor's own
//! schedule); a poisoned (never-invoked) step costs one tick. Wall
//! clocks never appear — the crate is in conformance's
//! `DETERMINISTIC_CRATES` and scans clean under `no-wall-clock`.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::trace::{span_id, Event, EventKind, Span, SpanKind, SpanStatus, Trace};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;

/// Maximum shift applied to the backoff base — mirrors
/// `RetryPolicy::backoff_ticks`.
const MAX_BACKOFF_SHIFT: u32 = 16;

/// What the executor observed for one step, in workflow list order.
/// The bridge between `ExecutionReport`'s fold and the trace assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepObservation {
    /// Step id (span name for the step span).
    pub step: String,
    /// Tool function id (span name for attempt spans).
    pub function: String,
    /// False when the step was poisoned and never invoked.
    pub invoked: bool,
    /// Retries consumed (attempts = retries + 1 when invoked).
    pub retries: u32,
    /// Terminal status of the step.
    pub status: SpanStatus,
    /// Failed root steps this step's poisoning is attributed to.
    pub poison_roots: Vec<String>,
}

#[derive(Default)]
struct RecorderState {
    /// Events buffered per (step id, attempt) until the fold drains them.
    pending: BTreeMap<(String, u32), Vec<EventKind>>,
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

    /// Attach an event to the innermost open span at the current tick
    /// without the counter bump (used when draining buffers whose
    /// counters were bumped at emission time).
    fn attach(&mut self, kind: EventKind) {
        self.trace.events.push(Event {
            span: self.current_span(),
            at: self.clock,
            kind,
        });
    }
}

/// Thread-safe deterministic trace/metrics collector. Cheap to share as
/// `Arc<Recorder>`; all methods take `&self`.
#[derive(Default)]
pub struct Recorder {
    state: Mutex<RecorderState>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::default()
    }

    // -- invocation lane (runtime wrappers) ---------------------------

    /// Buffer an event observed during the invocation `(step, attempt)`.
    /// Called by runtime wrappers (chaos, resilience) while the step's
    /// tool runs; the event enters the trace when the executor's fold
    /// reaches that step. Also bumps the `events.<label>` counter.
    pub fn emit_invocation(&self, step: &str, attempt: u32, kind: EventKind) {
        let mut state = self.state.lock();
        state.metrics.add(&format!("events.{}", kind.label()), 1);
        state
            .pending
            .entry((step.to_string(), attempt))
            .or_default()
            .push(kind);
    }

    /// Count an event that has no invocation context (direct `invoke`
    /// outside the executor): metrics only, never enters the trace.
    pub fn count_event(&self, kind: &EventKind) {
        self.state
            .lock()
            .metrics
            .add(&format!("events.{}", kind.label()), 1);
    }

    /// Add to a named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.state.lock().metrics.add(name, delta);
    }

    // -- serial lane (session / engine lifecycles) --------------------

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
    pub fn emit(&self, kind: EventKind) {
        self.state.lock().emit(kind);
    }

    /// Advance the logical clock.
    pub fn advance(&self, ticks: u64) {
        self.state.lock().clock += ticks;
    }

    // -- the fold -----------------------------------------------------

    /// Assemble the workflow/step/attempt spans for one executed
    /// workflow from the executor's per-step observations (workflow list
    /// order — the same order `ExecutionReport` folds in). Drains the
    /// invocation event buffers; any buffer left over (e.g. synthetic
    /// salts from direct `invoke` calls) is discarded, its events having
    /// already been counted. One workflow is recorded at a time per
    /// recorder — the executor runs under a single `execute_with` call.
    pub fn record_workflow(&self, workflow: &str, backoff_base: u64, steps: &[StepObservation]) {
        let mut state = self.state.lock();
        state.begin(SpanKind::Workflow, workflow);
        let mut worst = SpanStatus::Ok;
        for obs in steps {
            state.begin(SpanKind::Step, &obs.step);
            if !obs.invoked {
                if !obs.poison_roots.is_empty() {
                    state.emit(EventKind::PoisonAttributed {
                        roots: obs.poison_roots.clone(),
                    });
                }
                state.clock += 1;
                state.end(obs.status);
            } else {
                let attempts = obs.retries + 1;
                for attempt in 0..attempts {
                    state.begin(SpanKind::Attempt, &obs.function);
                    let buffered = state
                        .pending
                        .remove(&(obs.step.clone(), attempt))
                        .unwrap_or_default();
                    for kind in buffered {
                        state.attach(kind);
                    }
                    state.clock += 1;
                    let last = attempt + 1 == attempts;
                    state.end(if last { obs.status } else { SpanStatus::Failed });
                    if !last {
                        let backoff =
                            backoff_base << attempt.min(MAX_BACKOFF_SHIFT);
                        state.emit(EventKind::Retry {
                            attempt,
                            backoff_ticks: backoff,
                        });
                        state.clock += backoff;
                    }
                }
                state.end(obs.status);
            }
            if obs.status > worst {
                worst = obs.status;
            }
        }
        state.end(match worst {
            SpanStatus::Ok => SpanStatus::Ok,
            // Any non-ok step degrades or fails the workflow span; the
            // session span carries the authoritative RunHealth mapping.
            _ => SpanStatus::Degraded,
        });
        state.pending.clear();
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

    fn ok_step(step: &str, function: &str) -> StepObservation {
        StepObservation {
            step: step.into(),
            function: function.into(),
            invoked: true,
            retries: 0,
            status: SpanStatus::Ok,
            poison_roots: Vec::new(),
        }
    }

    #[test]
    fn record_workflow_builds_parented_spans_on_the_logical_clock() {
        let recorder = Recorder::new();
        recorder.record_workflow("w", 2, &[ok_step("s0", "f.a"), ok_step("s1", "f.b")]);
        let trace = recorder.trace();
        // workflow + 2 steps + 2 attempts
        assert_eq!(trace.spans.len(), 5);
        let workflow = &trace.spans[0];
        assert_eq!(workflow.kind, SpanKind::Workflow);
        assert_eq!(workflow.parent, None);
        assert_eq!((workflow.start, workflow.end), (0, 2));
        let step0 = &trace.spans[1];
        assert_eq!(step0.parent, Some(workflow.id));
        let attempt0 = &trace.spans[2];
        assert_eq!(attempt0.kind, SpanKind::Attempt);
        assert_eq!(attempt0.parent, Some(step0.id));
        assert_eq!((attempt0.start, attempt0.end), (0, 1));
        let step1 = &trace.spans[3];
        assert_eq!((step1.start, step1.end), (1, 2));
    }

    #[test]
    fn retries_advance_backoff_and_emit_retry_events() {
        let recorder = Recorder::new();
        let mut obs = ok_step("s0", "f.a");
        obs.retries = 2;
        obs.status = SpanStatus::Failed;
        recorder.record_workflow("w", 2, &[obs]);
        let trace = recorder.trace();
        // attempts at ticks [0,1), [3,4) (backoff 2), [8,9) (backoff 4)
        let attempts: Vec<&Span> = trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Attempt)
            .collect();
        assert_eq!(attempts.len(), 3);
        assert_eq!((attempts[0].start, attempts[0].end), (0, 1));
        assert_eq!((attempts[1].start, attempts[1].end), (3, 4));
        assert_eq!((attempts[2].start, attempts[2].end), (8, 9));
        assert_eq!(attempts[0].status, SpanStatus::Failed);
        let retries: Vec<&Event> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Retry { .. }))
            .collect();
        assert_eq!(retries.len(), 2);
        let snap = recorder.metrics_snapshot();
        assert_eq!(snap.counter("events.retry"), 2);
    }

    #[test]
    fn buffered_invocation_events_land_on_their_attempt_span() {
        let recorder = Recorder::new();
        recorder.emit_invocation(
            "s0",
            1,
            EventKind::FaultInjected {
                function: "f.a".into(),
                transient: true,
            },
        );
        let mut obs = ok_step("s0", "f.a");
        obs.retries = 1;
        recorder.record_workflow("w", 1, &[obs]);
        let trace = recorder.trace();
        let fault = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
            .expect("fault event drained into the trace");
        let attempt1 = trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Attempt)
            .nth(1)
            .expect("second attempt span");
        assert_eq!(fault.span, Some(attempt1.id));
        assert_eq!(fault.at, attempt1.start);
    }

    #[test]
    fn poisoned_steps_get_attribution_events() {
        let recorder = Recorder::new();
        let mut poisoned = ok_step("s1", "f.b");
        poisoned.invoked = false;
        poisoned.status = SpanStatus::Poisoned;
        poisoned.poison_roots = vec!["s0".into()];
        recorder.record_workflow("w", 1, &[ok_step("s0", "f.a"), poisoned]);
        let trace = recorder.trace();
        let attribution = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::PoisonAttributed { .. }))
            .expect("poison attribution recorded");
        let step1 = trace
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Step && s.name == "s1")
            .expect("poisoned step span");
        assert_eq!(attribution.span, Some(step1.id));
        assert_eq!(step1.status, SpanStatus::Poisoned);
    }

    #[test]
    fn serial_lane_nests_session_spans() {
        let recorder = Recorder::new();
        recorder.begin_span(SpanKind::Session, "query");
        recorder.emit(EventKind::EpochPinned { sequence: 3 });
        recorder.record_workflow("w", 1, &[ok_step("s0", "f.a")]);
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
            recorder.emit_invocation(
                "s0",
                0,
                EventKind::FaultInjected {
                    function: "f.a".into(),
                    transient: false,
                },
            );
            let mut obs = ok_step("s0", "f.a");
            obs.retries = 1;
            obs.status = SpanStatus::Failed;
            recorder.record_workflow("w", 4, &[obs]);
            (recorder.trace_json(), recorder.trace_hash())
        };
        assert_eq!(run(), run());
    }
}
