//! Deterministic observability for the serving stack.
//!
//! The paper's workflow is only auditable if the system can explain
//! *what it did*: which tools ran, what was retried, which breakers
//! tripped, where the (logical) time went. This crate is that layer —
//! and, unusually, it is **deterministic**: spans and events are
//! timestamped on the executor's logical clock (attempt/backoff ticks),
//! ids are content-derived via `stable_hash`, and spans and events enter
//! the trace as they happen — the executor opens step and attempt spans
//! as it runs steps one at a time in workflow list order, and runtime
//! wrappers emit onto the attempt span that is open — so the trace for a
//! fixed (scenario, query, fault seed) is byte-identical across reruns,
//! however many other queries run at once on their own recorders. That
//! makes traces *artifacts*: they can be content-hashed, linked from
//! provenance records, and diffed across runs like any other
//! deterministic output.
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
//! - [`Recorder`] — the collection point handed down through
//!   `ExecOptions` / `Engine` / `CampaignRunner`, one per query,
//! - exporters — canonical JSON ([`Trace::to_canonical_json`], hashed by
//!   [`Trace::content_hash`]) and Chrome `trace_event`
//!   ([`Trace::to_chrome_json`]) for flamegraph-style profiling.

pub mod metrics;
pub mod recorder;
pub mod trace;

pub use metrics::{CounterSnapshot, MetricsSnapshot};
pub use recorder::Recorder;
pub use trace::{Event, EventKind, Span, SpanKind, SpanStatus, Trace};
