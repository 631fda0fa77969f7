//! # toolkit — binding ArachNet to the measurement substrates
//!
//! The registry describes *what* tools can do; this crate supplies the
//! *how*:
//!
//! * [`catalog`] — the curated capability catalog over all four
//!   measurement frameworks (Nautilus, Xaminer, BGP, traceroute) plus
//!   utility/QA functions: one table row per function, declaring its
//!   registry entry and carrying its handler. `standard_registry()` is
//!   derived from the rows, so the registry and the runtime cannot
//!   disagree about a function's params or output format;
//! * [`runtime`] — [`StandardRuntime`], the [`workflow::ToolRuntime`]
//!   implementation that finds a function's row by id and runs its
//!   handler on the substrate crates, with artifact caching;
//! * [`data`] — the JSON payload schemas flowing between steps;
//! * [`analysis`] — the analytical utilities the generated workflows rely
//!   on (latency anomaly detection, suspect-cable scoring, evidence
//!   correlation and synthesis, unified timelines);
//! * [`disasters`] — the global disaster-zone catalog used for what-if
//!   disaster compilation;
//! * [`scenarios`] — the standard case-study scenarios (CS1–CS4 plus a
//!   forensic negative control).

pub mod analysis;
pub mod catalog;
pub mod data;
pub mod disasters;
pub mod metrics;
pub mod resilience;
pub mod runtime;
pub mod scenarios;

pub use catalog::{query_context, standard_registry};
pub use metrics::QueryMetrics;
pub use resilience::{BreakerConfig, ResilienceConfig, ResilientRuntime};
pub use runtime::{ArtifactStore, StandardRuntime};
