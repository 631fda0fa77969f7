//! The trace model: spans and events on a logical clock.
//!
//! A trace is a flat list of [`Span`]s (session → workflow → step →
//! attempt) and [`Event`]s (retries, fault injections, breaker
//! transitions, cache probes, epoch lifecycle, poison attribution), all
//! timestamped in **logical ticks** — the executor's own attempt/backoff
//! counters — never wall clock. Two runs of the same (scenario, query,
//! fault seed) therefore produce byte-identical traces regardless of
//! concurrent load or machine speed; clippy's `disallowed-types` ban on
//! `Instant` and `SystemTime` enforces the discipline statically.
//!
//! Span ids are content-derived via the same SplitMix64 fold the world
//! substrate uses (`net_model::hash::stable_hash`), salted with a
//! per-trace sequence number so repeated (kind, name) pairs stay
//! distinct.

use serde::{Deserialize, Serialize};
use net_model::hash::stable_hash;

/// What level of the serving stack a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanKind {
    /// One `Session::run`: generation plus execution of a single query.
    Session,
    /// One `execute_with` pass over a workflow DAG.
    Workflow,
    /// One step of the DAG (all attempts plus backoff).
    Step,
    /// A single invocation attempt of a step's tool function.
    Attempt,
}

impl SpanKind {
    /// Stable numeric tag folded into span ids.
    pub(crate) fn tag(self) -> u64 {
        match self {
            SpanKind::Session => 1,
            SpanKind::Workflow => 2,
            SpanKind::Step => 3,
            SpanKind::Attempt => 4,
        }
    }

    /// Category label used by the Chrome exporter.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Session => "session",
            SpanKind::Workflow => "workflow",
            SpanKind::Step => "step",
            SpanKind::Attempt => "attempt",
        }
    }
}

/// Terminal status of a span, mirroring `RunHealth`/`StepResult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanStatus {
    /// Completed successfully.
    Ok,
    /// Completed with non-critical failures (degraded serving).
    Degraded,
    /// Failed after exhausting its retry budget.
    Failed,
    /// Never invoked: an upstream dependency failed.
    Poisoned,
}

impl SpanStatus {
    /// Short label used by exporters and metrics counter names.
    pub fn label(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Degraded => "degraded",
            SpanStatus::Failed => "failed",
            SpanStatus::Poisoned => "poisoned",
        }
    }
}

/// A closed interval on the logical clock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Content-derived id (`stable_hash` of kind, name, parent, seq).
    pub id: u64,
    /// Enclosing span, if any (sessions are roots).
    pub parent: Option<u64>,
    /// Stack level.
    pub kind: SpanKind,
    /// Step id, function id, or query text depending on `kind`.
    pub name: String,
    /// Logical tick at which the span opened.
    pub start: u64,
    /// Logical tick at which the span closed (`end >= start`).
    pub end: u64,
    /// Terminal status.
    pub status: SpanStatus,
}

/// Something that happened at a point on the logical clock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The executor scheduled another attempt after a transient failure.
    Retry { attempt: u32, backoff_ticks: u64 },
    /// The chaos runtime injected a failure for this invocation.
    FaultInjected { function: String, transient: bool },
    /// The chaos runtime replaced a successful output with garbage.
    OutputCorrupted { function: String },
    /// The chaos runtime charged synthetic latency to this invocation.
    SlowTicks { function: String, ticks: u64 },
    /// A circuit breaker changed phase (Closed/Open/HalfOpen).
    BreakerTransition {
        function: String,
        from: String,
        to: String,
    },
    /// An open breaker refused the call before it reached the tool.
    CallShed { function: String },
    /// A configured fallback function answered for a failed primary.
    FallbackInvoked { function: String, substitute: String },
    /// A cache probe found the entry warm.
    CacheHit { key: String },
    /// A cache probe missed and the entry was built.
    CacheMiss { key: String },
    /// A session pinned this registry epoch for its lifetime.
    EpochPinned { sequence: u64 },
    /// Curation published a new registry epoch.
    EpochPublished { sequence: u64 },
    /// A step was skipped because these root steps failed upstream.
    PoisonAttributed { roots: Vec<String> },
}

impl EventKind {
    /// Stable snake_case label; also the suffix of the auto-bumped
    /// `events.<label>` counter.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Retry { .. } => "retry",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::OutputCorrupted { .. } => "output_corrupted",
            EventKind::SlowTicks { .. } => "slow_ticks",
            EventKind::BreakerTransition { .. } => "breaker_transition",
            EventKind::CallShed { .. } => "call_shed",
            EventKind::FallbackInvoked { .. } => "fallback_invoked",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::EpochPinned { .. } => "epoch_pinned",
            EventKind::EpochPublished { .. } => "epoch_published",
            EventKind::PoisonAttributed { .. } => "poison_attributed",
        }
    }
}

/// An [`EventKind`] anchored to a span and a logical tick.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// The span the event belongs to (`None` for pre-session events).
    pub span: Option<u64>,
    /// Logical tick.
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A complete recorded execution: spans and events in deterministic
/// (fold) order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub events: Vec<Event>,
}

impl Trace {
    /// Canonical JSON: object keys are sorted (the serializer builds
    /// BTreeMap objects) and collections are already in fold order, so
    /// equal traces serialize to equal bytes.
    pub fn to_canonical_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Content hash of the canonical JSON — the value `ProvenanceRecord`
    /// links traces by.
    pub fn content_hash(&self) -> u64 {
        let json = self.to_canonical_json();
        stable_hash(&str_words(&json))
    }

    /// Chrome `trace_event` export: complete (`"ph":"X"`) events for
    /// spans and instant (`"ph":"i"`) events, logical ticks rendered as
    /// microseconds so `chrome://tracing` / Perfetto draw a flamegraph.
    pub fn to_chrome_json(&self) -> String {
        // NOTE: values are bound to locals first — the vendored `json!`
        // macro cannot carry `::` paths inside value expressions.
        let mut entries = Vec::with_capacity(self.spans.len() + self.events.len());
        for span in &self.spans {
            let id = format!("{:016x}", span.id);
            let dur = span.end.saturating_sub(span.start);
            entries.push(serde_json::json!({
                "name": span.name,
                "cat": span.kind.label(),
                "ph": "X",
                "ts": span.start,
                "dur": dur,
                "pid": 1,
                "tid": 1,
                "args": { "id": id, "status": span.status.label() },
            }));
        }
        for event in &self.events {
            let span = event.span.map(|s| format!("{s:016x}"));
            let detail = serde_json::to_string(&event.kind).unwrap_or_default();
            entries.push(serde_json::json!({
                "name": event.kind.label(),
                "cat": "event",
                "ph": "i",
                "ts": event.at,
                "s": "t",
                "pid": 1,
                "tid": 1,
                "args": { "span": span, "detail": detail },
            }));
        }
        serde_json::to_string(&serde_json::json!({ "traceEvents": entries }))
            .unwrap_or_default()
    }
}

/// Fold a string into hash words: a length prefix, then the bytes packed
/// eight to a word, little-endian. (The campaign provenance layer's
/// `str_words` feeds one word per byte instead, so the two differ.)
pub(crate) fn str_words(s: &str) -> Vec<u64> {
    let bytes = s.as_bytes();
    let mut words = Vec::with_capacity(1 + bytes.len() / 8 + 1);
    words.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = 0u64;
        for (i, b) in chunk.iter().enumerate() {
            word |= (*b as u64) << (8 * i);
        }
        words.push(word);
    }
    words
}

/// Derive a span id from its content plus a per-trace sequence number.
pub(crate) fn span_id(kind: SpanKind, name: &str, parent: Option<u64>, seq: u64) -> u64 {
    let mut parts = vec![0x5350_414E_5350_414E, kind.tag()];
    parts.extend(str_words(name));
    parts.push(parent.unwrap_or(0));
    parts.push(seq);
    stable_hash(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_stable_and_distinct() {
        let a = span_id(SpanKind::Step, "s00", None, 0);
        let b = span_id(SpanKind::Step, "s00", None, 0);
        let c = span_id(SpanKind::Step, "s00", None, 1);
        let d = span_id(SpanKind::Attempt, "s00", None, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn canonical_json_roundtrips() {
        let trace = Trace {
            spans: vec![Span {
                id: 7,
                parent: None,
                kind: SpanKind::Workflow,
                name: "w".into(),
                start: 0,
                end: 3,
                status: SpanStatus::Degraded,
            }],
            events: vec![Event {
                span: Some(7),
                at: 1,
                kind: EventKind::Retry {
                    attempt: 0,
                    backoff_ticks: 2,
                },
            }],
        };
        let json = trace.to_canonical_json();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.content_hash(), trace.content_hash());
    }

    #[test]
    fn chrome_export_contains_span_and_instant_phases() {
        let trace = Trace {
            spans: vec![Span {
                id: 1,
                parent: None,
                kind: SpanKind::Step,
                name: "s".into(),
                start: 0,
                end: 1,
                status: SpanStatus::Ok,
            }],
            events: vec![Event {
                span: Some(1),
                at: 0,
                kind: EventKind::CacheHit { key: "k".into() },
            }],
        };
        let chrome = trace.to_chrome_json();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"X\"") || chrome.contains("\"ph\": \"X\""));
        assert!(chrome.contains("\"ph\":\"i\"") || chrome.contains("\"ph\": \"i\""));
    }
}
