//! Deterministic observability for the serving stack.
//!
//! The paper's workflow is only auditable if the system can explain
//! *what it did*: which tools ran, what was retried, which breakers
//! tripped, where the (logical) time went. This crate is that layer —
//! and, unusually, it is **deterministic**: spans and events are
//! timestamped on the executor's logical clock (attempt/backoff ticks),
//! ids are content-derived via `stable_hash`, and concurrent
//! observations are buffered per invocation and folded in workflow list
//! order, so the trace for a fixed (scenario, query, fault seed) is
//! byte-identical across 1/2/8 workers and reruns. That makes traces
//! *artifacts*: they can be content-hashed, linked from provenance
//! records, and diffed across runs like any other deterministic output.
//!
//! Model:
//!
//! - [`Span`] — session → workflow → step → attempt intervals,
//! - [`Event`] — retries, fault injections, breaker transitions, cache
//!   probes, epoch lifecycle, poison attribution ([`EventKind`]),
//! - [`MetricsSnapshot`] — name-ordered counters for the facts no typed
//!   report holds: `events.*`, `artifact_cache.*` and `world_cache.*`
//!   (a run's own counts live on its typed report, `ExecutionReport`
//!   or `CampaignReport`),
//! - [`Recorder`] — the shared collection point handed down through
//!   `ExecOptions` / `Engine` / `CampaignRunner`,
//! - exporters — canonical JSON ([`Trace::to_canonical_json`], hashed by
//!   [`Trace::content_hash`]) and Chrome `trace_event`
//!   ([`Trace::to_chrome_json`]) for flamegraph-style profiling.

pub mod metrics;
pub mod recorder;
pub mod trace;

pub use metrics::{CounterSnapshot, MetricsSnapshot};
pub use recorder::{Recorder, StepObservation};
pub use trace::{Event, EventKind, Span, SpanKind, SpanStatus, Trace};
