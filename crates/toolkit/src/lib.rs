//! # toolkit — binding ArachNet to the measurement substrates
//!
//! The registry describes *what* tools can do; this crate supplies the
//! *how*:
//!
//! * [`catalog`] — `standard_registry()`, the curated capability catalog
//!   over all four measurement frameworks (Nautilus, Xaminer, BGP,
//!   traceroute) plus utility/QA functions;
//! * [`runtime`] — [`StandardRuntime`], the [`workflow::ToolRuntime`]
//!   implementation dispatching every function id onto the substrate
//!   crates, with artifact caching;
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
pub use resilience::{BreakerConfig, BreakerPhase, ResilienceConfig, ResilientRuntime};
pub use runtime::{ArtifactStore, StandardRuntime};

#[cfg(test)]
mod tests {
    use super::*;
    use registry::FunctionId;
    use workflow::ToolRuntime;

    #[test]
    fn registry_and_runtime_cover_the_same_functions() {
        let registry = standard_registry();
        let scenario = scenarios::cs1_scenario();
        let runtime = StandardRuntime::new(scenario);
        for entry in registry.iter() {
            if entry.framework == "composite" {
                continue;
            }
            // Invoking with empty args must fail with BadArgument (missing
            // input) or succeed — never Unbound.
            let result = runtime.invoke(&entry.id, &Default::default());
            if let Err(workflow::ToolError::Unbound(id)) = &result {
                panic!("registry entry {id} has no runtime binding");
            }
        }
        // And an unknown id is Unbound.
        let err = runtime.invoke(&FunctionId::from("nope.nothing"), &Default::default());
        assert!(matches!(err, Err(workflow::ToolError::Unbound(_))));
    }
}
