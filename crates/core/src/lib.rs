//! # arachnet — the four-agent workflow composition pipeline
//!
//! The paper's core contribution (Figure 1): four specialized agents that
//! mirror expert workflow, coordinated over a capability registry.
//!
//! * [`agents::QueryMind`] — problem analysis & decomposition;
//! * [`agents::WorkflowScout`] — solution space exploration & design;
//! * [`agents::SolutionWeaver`] — implementation (typed workflow IR plus
//!   rendered source code);
//! * [`agents::RegistryCurator`] — systematic registry evolution.
//!
//! The [`engine`] module is the one entry point. An [`Engine`] owns the
//! model, publishes the registry as immutable epochs and curates it; the
//! [`Session`]s it hands out chain the first three agents — by default in
//! **standard** mode (fully automated), in **expert** mode with domain
//! specialists reviewing and adjusting the intermediate artifacts between
//! stages ([`ExpertHooks`]) — and execute the result against
//! per-scenario artifact stores shared across sessions.
//! [`ensemble`] implements the paper's proposed ensemble-confidence
//! mechanism (§5, Trust & Verification) and [`conflict`] the
//! conflicting-tool-outputs mitigation (§5).

pub mod agents;
pub mod conflict;
pub mod engine;
pub mod ensemble;
pub mod orchestrator;

pub use agents::{AgentConfig, AgentError};
pub use engine::{
    Engine, FamilyScenario, RegistrationStats, RegistryEpoch, ScenarioRegistration, Session,
    SessionRun,
};
pub use ensemble::{EnsembleReport, FunctionAgreement};
pub use orchestrator::{CurationOutcome, ExpertHooks, GeneratedSolution, PipelineError};

// Re-export the resilience surface (fault plans, breakers, run health)
// so chaos drills against the engine need one import.
pub use chaos::{ChaosRuntime, FaultKind, FaultPlan};
pub use toolkit::{BreakerConfig, ResilienceConfig, ResilientRuntime};
pub use workflow::{RetryPolicy, RunHealth};

// Re-export the observability surface (PR 9): attach a `Recorder` via
// `Engine::with_recorder` / `Session::with_recorder` and read traces,
// events and metrics back out with one import.
pub use telemetry::{
    EventKind, MetricsSnapshot, Recorder, Span, SpanKind, SpanStatus, Trace,
};

// Re-export the protocol so downstream users see one coherent API.
pub use llm::protocol;
pub use llm::{DeterministicExpertModel, LanguageModel};

// Re-export the scenario-forge surface the engine integrates
// ([`Engine::register_family`]) so fleet registration needs one import.
pub use scenario_forge::{Family, FamilyParams, ScenarioBlueprint, SharedWorldCache, WorldCache};
