//! The serving engine: sessions, registry epochs, shared artifacts.
//!
//! [`Engine`] and [`Session`] are the only way to run the four agents:
//! a session generates (QueryMind → WorkflowScout → SolutionWeaver) and
//! executes, the engine curates (RegistryCurator). Both are built for
//! concurrent serving:
//!
//! * the registry is published as immutable **epochs** (`Arc<Registry>`
//!   snapshots with a sequence number). Sessions pin the epoch they were
//!   opened under; [`Engine::curate`] takes `&self`, builds the next
//!   registry off-line and swaps the epoch pointer — in-flight sessions
//!   are never blocked and never observe a half-curated registry;
//! * measurement artifacts live in per-scenario [`ArtifactStore`]s shared
//!   by every session of that scenario (and across epochs): the mapping
//!   run, the BGP update stream, probe campaigns are computed once per
//!   dataset, not once per query;
//! * a [`Session`] generates and executes any number of queries, from any
//!   thread (`Session: Send + Sync`) — execution itself fans out over the
//!   workflow DAG via [`workflow::execute_with`].

use std::collections::BTreeMap;
use std::sync::Arc;

use chaos::{ChaosRuntime, FaultPlan};
use llm::protocol::{QueryContext, WorkflowSummary};
use llm::LanguageModel;
use parking_lot::{Mutex, RwLock};
use registry::Registry;
use scenario_forge::{Family, FamilyParams, ScenarioBlueprint, SharedWorldCache};
use telemetry::{EventKind, MetricsSnapshot, Recorder, SpanKind, SpanStatus};
use toolkit::{ArtifactStore, ResilienceConfig, ResilientRuntime, StandardRuntime};
use workflow::{
    check, execute_with, to_source, ExecOptions, ExecutionReport, RetryPolicy, RunHealth,
    ToolRuntime, Value, Workflow,
};
use world::Scenario;

use crate::agents::{AgentConfig, QueryMind, RegistryCurator, SolutionWeaver, WorkflowScout};
use crate::orchestrator::{
    register_composites, to_workflow, CurationOutcome, ExpertHooks, GeneratedSolution,
    PipelineError,
};

/// How many repair rounds SolutionWeaver gets when validation fails.
const MAX_REPAIRS: usize = 2;

/// One immutable registry snapshot, tagged with its publication sequence.
#[derive(Debug)]
pub struct RegistryEpoch {
    /// Monotonic publication counter (0 is the bootstrap registry).
    pub sequence: u64,
    /// The registry as of this epoch.
    pub registry: Arc<Registry>,
}

/// Everything a scenario's sessions share.
#[derive(Clone)]
struct ScenarioSlot {
    scenario: Arc<Scenario>,
    artifacts: Arc<ArtifactStore>,
}

/// The serving engine. Cheap to share (`&Engine` is all a session needs
/// to open) and safe to curate while queries are in flight.
pub struct Engine {
    model: Arc<dyn LanguageModel>,
    workers: usize,
    retry: RetryPolicy,
    /// Fault-injection plan applied to every session's runtime (testing
    /// and chaos drills; `None` in production serving).
    fault_plan: Option<FaultPlan>,
    /// Circuit-breaker + fallback wiring applied to every session's
    /// runtime.
    resilience: Option<ResilienceConfig>,
    epoch: RwLock<Arc<RegistryEpoch>>,
    /// Serializes curation passes; the epoch swap itself is the only
    /// write-lock the readers ever contend with.
    curation: Mutex<()>,
    scenarios: Mutex<BTreeMap<String, ScenarioSlot>>,
    /// Running counters over every [`Engine::register_scenario`] outcome;
    /// see [`RegistrationStats`]. Campaigns registering thousands of
    /// fleet keys read these to *observe* collisions instead of fishing
    /// them out of logs.
    reg_stats: Mutex<RegistrationStats>,
    /// Content-addressed `Arc<World>` view: every scenario registered
    /// through [`Engine::register_family`] whose config matches an
    /// already-generated world shares that world. Generation delegates
    /// to [`scenario_forge::global_cache`], so engine fleets, case
    /// studies and benches in one process share one build per config;
    /// the view keeps deterministic per-engine generation stats.
    worlds: SharedWorldCache,
    /// Optional telemetry recorder handed to every session (spans,
    /// events, metrics) and to the serial registration lane (world-cache
    /// probes, epoch publications).
    recorder: Option<Arc<Recorder>>,
}

/// Outcome of [`Engine::register_scenario`].
#[derive(Clone)]
pub struct ScenarioRegistration {
    /// The scenario now serving the key — the existing one when a slot
    /// was kept, the offered one otherwise.
    pub scenario: Arc<Scenario>,
    /// Whether an existing slot (and its warm artifact store) was kept.
    pub kept_existing: bool,
    /// Whether the offered scenario matches the slot now serving the key
    /// (spec-compared); always `true` for fresh registrations. `false`
    /// means a re-registration offered a *different* timeline and was
    /// ignored — logged, because it is almost always a key-collision bug.
    pub matched: bool,
}

/// Aggregate outcome counters over every scenario registration an
/// engine has processed ([`Engine::register_scenario`] and the fleet
/// APIs built on it). `mismatched` is the count that used to live only
/// in a log line: re-registrations that offered a *different* timeline
/// under an existing key and were ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistrationStats {
    /// Total registration attempts.
    pub registered: usize,
    /// Attempts that created a new slot.
    pub fresh: usize,
    /// Attempts that kept an existing slot (idempotent re-registration).
    pub kept_existing: usize,
    /// Kept slots where the offered timeline did *not* match the slot —
    /// almost always a key-collision bug in the caller's fleet naming.
    pub mismatched: usize,
}

/// One scenario of a family fleet, as registered by
/// [`Engine::register_family`].
#[derive(Clone)]
pub struct FamilyScenario {
    /// Engine key: `"<family-id>/<blueprint-name>"`.
    pub key: String,
    /// The registered (shared) scenario.
    pub scenario: Arc<Scenario>,
    /// Whether this key was newly registered (false: fleet re-registered).
    pub fresh: bool,
    /// Whether the forged blueprint matches the scenario now serving the
    /// key (see [`ScenarioRegistration::matched`]). `false` means an
    /// earlier fleet with colliding keys but a *different* timeline
    /// (e.g. same seed, different intensity) still serves this key.
    pub matched: bool,
}

impl Engine {
    /// Builds the engine over a model and the bootstrap registry
    /// (published as epoch 0).
    pub fn new(model: Arc<dyn LanguageModel>, registry: Registry) -> Engine {
        Engine {
            model,
            workers: workflow::exec::default_workers(),
            retry: RetryPolicy::default(),
            fault_plan: None,
            resilience: None,
            epoch: RwLock::new(Arc::new(RegistryEpoch {
                sequence: 0,
                registry: Arc::new(registry),
            })),
            curation: Mutex::new(()),
            scenarios: Mutex::new(BTreeMap::new()),
            reg_stats: Mutex::new(RegistrationStats::default()),
            worlds: SharedWorldCache::over_global(),
            recorder: None,
        }
    }

    /// Attaches a deterministic telemetry recorder: sessions opened from
    /// this engine record session/workflow/step/attempt spans and
    /// resilience events into it, and the (serial) registration and
    /// curation lanes record world-cache probes and epoch publications.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Engine {
        self.recorder = Some(recorder);
        self
    }

    /// Overrides the per-session executor worker count.
    pub fn with_exec_workers(mut self, workers: usize) -> Engine {
        self.workers = workers.max(1);
        self
    }

    /// Sets the retry budget sessions apply to transient tool failures.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Engine {
        self.retry = retry;
        self
    }

    /// Injects a deterministic fault plan into every session's runtime
    /// (chaos drills and resilience tests).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Engine {
        self.fault_plan = Some(plan);
        self
    }

    /// Wires circuit breakers and fallbacks into every session's runtime.
    /// Fallback targets are validated against the pinned epoch's registry
    /// when each session opens.
    pub fn with_resilience(mut self, config: ResilienceConfig) -> Engine {
        self.resilience = Some(config);
        self
    }

    /// The current epoch.
    pub fn epoch(&self) -> Arc<RegistryEpoch> {
        Arc::clone(&self.epoch.read())
    }

    /// The current epoch's registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.epoch.read().registry)
    }

    /// Registers a scenario under `key` (idempotent: an existing slot —
    /// and its warm artifact store — is kept). The returned
    /// [`ScenarioRegistration`] says whether the existing slot was kept
    /// and whether the offered scenario matched it; a kept-but-different
    /// re-registration is logged, since silently dropping a *different*
    /// timeline under a reused key is almost always a bug.
    pub fn register_scenario(&self, key: &str, scenario: Scenario) -> ScenarioRegistration {
        let registration = {
            let mut scenarios = self.scenarios.lock();
            match scenarios.entry(key.to_string()) {
                std::collections::btree_map::Entry::Occupied(slot) => {
                    let existing = Arc::clone(&slot.get().scenario);
                    let matched = existing.spec() == scenario.spec();
                    if !matched {
                        eprintln!(
                            "engine: scenario key {key:?} re-registered with a different \
                             timeline; keeping the existing slot"
                        );
                    }
                    ScenarioRegistration { scenario: existing, kept_existing: true, matched }
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    let scenario = Arc::new(scenario);
                    slot.insert(ScenarioSlot {
                        scenario: Arc::clone(&scenario),
                        artifacts: Arc::new(ArtifactStore::new()),
                    });
                    ScenarioRegistration { scenario, kept_existing: false, matched: true }
                }
            }
        };
        let mut stats = self.reg_stats.lock();
        stats.registered += 1;
        if registration.kept_existing {
            stats.kept_existing += 1;
        } else {
            stats.fresh += 1;
        }
        if !registration.matched {
            stats.mismatched += 1;
        }
        registration
    }

    /// Aggregate counters over every registration this engine has seen —
    /// the fleet-stats view of [`ScenarioRegistration`] outcomes. A
    /// campaign that registered thousands of keys checks
    /// `mismatched == 0` here instead of scraping logs.
    pub fn registration_stats(&self) -> RegistrationStats {
        *self.reg_stats.lock()
    }

    /// Registers a whole scenario family fleet in one call: expands the
    /// family's blueprints, generates their worlds through the engine's
    /// content-addressed `WorldCache` (N scenarios sharing a config
    /// pay one generation and hold the *same* `Arc<World>`), and
    /// registers each scenario under `"<family-id>/<blueprint-name>"`.
    /// Sessions opened against any of the keys work unchanged.
    pub fn register_family(
        &self,
        family: Family,
        params: &FamilyParams,
    ) -> Vec<FamilyScenario> {
        self.register_blueprints(family.id(), &family.expand(params))
    }

    /// Registers an already-expanded blueprint fleet under
    /// `"<prefix>/<blueprint-name>"` keys — the same path
    /// [`Engine::register_family`] takes, exposed so composed and
    /// ensemble-swept blueprints (which no single [`Family`] expands to)
    /// ride the identical world-dedup and idempotency machinery.
    pub fn register_blueprints(
        &self,
        prefix: &str,
        blueprints: &[ScenarioBlueprint],
    ) -> Vec<FamilyScenario> {
        blueprints
            .iter()
            .map(|blueprint| {
                let key = format!("{}/{}", prefix, blueprint.name);
                if let Some(recorder) = &self.recorder {
                    // Registration is the engine's serial lane, so the
                    // warmth probe is safe to emit as a trace event; the
                    // cache itself is process-global, so whether a config
                    // is warm depends on what ran before in this process.
                    let cache_key = format!("world:{:016x}", blueprint.config.content_hash());
                    let warm = self.worlds.shared().get(&blueprint.config).is_some();
                    if warm {
                        recorder.counter_add("world_cache.hit", 1);
                        recorder.emit(EventKind::CacheHit { key: cache_key });
                    } else {
                        recorder.counter_add("world_cache.miss", 1);
                        recorder.emit(EventKind::CacheMiss { key: cache_key });
                    }
                }
                let world = self.worlds.get_or_generate(&blueprint.config);
                let registration = self.register_scenario(&key, blueprint.realize(world));
                FamilyScenario {
                    key,
                    scenario: registration.scenario,
                    fresh: !registration.kept_existing,
                    matched: registration.matched,
                }
            })
            .collect()
    }

    /// Registers several families at once (see [`Engine::register_family`]);
    /// worlds are deduplicated across the whole fleet.
    pub fn register_families(
        &self,
        families: &[Family],
        params: &FamilyParams,
    ) -> Vec<FamilyScenario> {
        families.iter().flat_map(|f| self.register_family(*f, params)).collect()
    }

    /// The fault plan injected into every session's runtime, when one is
    /// installed — provenance records stamp its seed so degraded campaign
    /// results stay reproducible.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The engine's content-addressed world-cache view (diagnostics:
    /// distinct worlds this engine requested; actual builds happen at
    /// most once per process in the global cache underneath).
    pub fn world_cache(&self) -> &SharedWorldCache {
        &self.worlds
    }

    /// Scenario keys currently registered.
    pub fn scenario_keys(&self) -> Vec<String> {
        self.scenarios.lock().keys().cloned().collect()
    }

    /// Opens a session against a registered scenario. The session pins
    /// the *current* epoch and the scenario's shared artifact store.
    pub fn session(&self, scenario_key: &str) -> Result<Session, PipelineError> {
        let slot = self.scenarios.lock().get(scenario_key).cloned().ok_or_else(|| {
            PipelineError::Invalid(format!("unknown scenario {scenario_key:?}"))
        })?;
        let epoch = self.epoch();
        // Epoch consistency: the resilience wiring must be valid for the
        // registry snapshot this session pins — a curated swap that
        // dropped a fallback target surfaces here, not mid-query.
        if let Some(resilience) = &self.resilience {
            resilience.validate(&epoch.registry).map_err(PipelineError::Invalid)?;
        }
        Ok(Session {
            model: Arc::clone(&self.model),
            epoch,
            scenario: slot.scenario,
            artifacts: slot.artifacts,
            workers: self.workers,
            retry: self.retry,
            fault_plan: self.fault_plan.clone(),
            resilience: self.resilience.clone(),
            recorder: self.recorder.clone(),
        })
    }

    /// Runs RegistryCurator over a corpus of workflow summaries and — when
    /// it mined anything — publishes the grown registry as a **new
    /// epoch**. Takes `&self`: in-flight sessions keep executing against
    /// the epoch they pinned; only sessions opened afterwards see the
    /// composites.
    pub fn curate(
        &self,
        corpus: &[WorkflowSummary],
        min_uses: usize,
    ) -> Result<CurationOutcome, PipelineError> {
        let _pass = self.curation.lock();
        let current = self.epoch();
        let mut next = (*current.registry).clone();
        let curator = RegistryCurator::new(&*self.model, AgentConfig::default());
        let proposal = curator.run(corpus, &next, min_uses)?;
        let outcome = register_composites(&mut next, proposal);
        if !outcome.added.is_empty() {
            let sequence = current.sequence + 1;
            *self.epoch.write() = Arc::new(RegistryEpoch {
                sequence,
                registry: Arc::new(next),
            });
            if let Some(recorder) = &self.recorder {
                recorder.emit(EventKind::EpochPublished { sequence });
            }
        }
        Ok(outcome)
    }
}

/// A generated-and-executed query, as a session returns it.
pub struct SessionRun {
    pub solution: GeneratedSolution,
    pub report: ExecutionReport,
    /// The run's health summary, lifted out of the report: `Ok`,
    /// `Degraded { failed_steps }` (every failure traces to non-critical
    /// enrichment — surviving outputs are trustworthy), or `Failed`.
    /// Callers distinguish "detector unavailable" from "no anomaly".
    pub health: RunHealth,
}

impl SessionRun {
    /// The executor metrics for this run (see `ExecutionReport::metrics`).
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.report.metrics
    }
}

/// One serving session: an epoch-pinned registry snapshot plus a shared
/// scenario. Sessions are `Send + Sync` — run many queries from many
/// threads against one session, or one query per session; the artifact
/// store underneath is shared either way.
pub struct Session {
    model: Arc<dyn LanguageModel>,
    epoch: Arc<RegistryEpoch>,
    scenario: Arc<Scenario>,
    artifacts: Arc<ArtifactStore>,
    workers: usize,
    retry: RetryPolicy,
    fault_plan: Option<FaultPlan>,
    resilience: Option<ResilienceConfig>,
    recorder: Option<Arc<Recorder>>,
}

impl Session {
    /// The epoch this session pinned at open time.
    pub fn epoch_sequence(&self) -> u64 {
        self.epoch.sequence
    }

    /// Attaches (or replaces) a telemetry recorder for this session only
    /// — campaigns use this to give every task its own recorder, so each
    /// task's trace hashes independently.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Session {
        self.recorder = Some(recorder);
        self
    }

    /// The pinned registry snapshot.
    pub fn registry(&self) -> &Registry {
        &self.epoch.registry
    }

    /// The scenario under measurement.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// A tool runtime over this session's scenario and shared artifacts —
    /// useful for executing externally supplied workflows (e.g. expert
    /// baselines) against the same cache.
    pub fn runtime(&self) -> StandardRuntime {
        self.traced(
            StandardRuntime::shared(Arc::clone(&self.scenario), Arc::clone(&self.artifacts)),
            StandardRuntime::with_recorder,
        )
    }

    /// Hands the session's recorder, if any, to one runtime layer.
    fn traced<L>(&self, layer: L, with_recorder: impl FnOnce(L, Arc<Recorder>) -> L) -> L {
        match &self.recorder {
            Some(recorder) => with_recorder(layer, Arc::clone(recorder)),
            None => layer,
        }
    }

    /// Generates a solution for a query (standard mode).
    pub fn generate(
        &self,
        query: &str,
        context: &QueryContext,
    ) -> Result<GeneratedSolution, PipelineError> {
        self.pipeline(query, context, 0, &ExpertHooks::default())
    }

    /// Variant-seeded generation (ensemble machinery).
    pub fn generate_variant(
        &self,
        query: &str,
        context: &QueryContext,
        variant: u64,
    ) -> Result<GeneratedSolution, PipelineError> {
        self.pipeline(query, context, variant, &ExpertHooks::default())
    }

    /// Expert mode: hooks run between pipeline stages.
    pub fn generate_expert(
        &self,
        query: &str,
        context: &QueryContext,
        hooks: &ExpertHooks,
    ) -> Result<GeneratedSolution, PipelineError> {
        self.pipeline(query, context, 0, hooks)
    }

    /// The three-agent generation pipeline over the pinned registry. The
    /// registry is read-only for the whole run, so any number of
    /// pipelines execute concurrently against one epoch.
    fn pipeline(
        &self,
        query: &str,
        context: &QueryContext,
        variant: u64,
        hooks: &ExpertHooks,
    ) -> Result<GeneratedSolution, PipelineError> {
        let model = &*self.model;
        let registry = &*self.epoch.registry;

        // Stage 1: QueryMind.
        let querymind = QueryMind::new(model, AgentConfig::default());
        let mut decomposition = querymind.run(query, context, registry)?;
        if let Some(hook) = &hooks.adjust_decomposition {
            decomposition = hook(decomposition);
        }

        // Stage 2: WorkflowScout.
        let scout = WorkflowScout::new(model, AgentConfig::default());
        let mut architecture = scout.run(&decomposition, registry, variant)?;
        if let Some(hook) = &hooks.adjust_architecture {
            architecture = hook(architecture);
        }

        // Stage 3: SolutionWeaver, with a validation-repair loop.
        let weaver = SolutionWeaver::new(model, AgentConfig::default());
        let mut feedback: Vec<String> = Vec::new();
        let mut repair_attempts = 0usize;
        let (workflow, implementation) = loop {
            let implementation =
                weaver.run(&decomposition, &architecture, registry, feedback.clone())?;
            let wf = to_workflow(query, &decomposition, &implementation, registry);
            let errors = check(&wf, registry);
            if errors.is_empty() {
                break (wf, implementation);
            }
            repair_attempts += 1;
            if repair_attempts > MAX_REPAIRS {
                return Err(PipelineError::Validation {
                    errors: errors.iter().map(|e| e.to_string()).collect(),
                    repair_attempts,
                });
            }
            feedback = errors.iter().map(|e| e.to_string()).collect();
        };

        let source_code = to_source(&workflow, registry);
        let loc = workflow::loc(&source_code);
        let frameworks = workflow.frameworks_used(registry);
        let expert_notes = hooks
            .review_workflow
            .as_ref()
            .map(|hook| hook(&workflow))
            .unwrap_or_default();

        Ok(GeneratedSolution {
            query: query.to_string(),
            decomposition,
            architecture,
            workflow,
            source_code,
            loc,
            frameworks,
            qa_measures: implementation.qa_measures,
            repair_attempts,
            expert_notes,
        })
    }

    /// Executes a workflow against the session's scenario, shared
    /// artifacts and pinned registry — through the session's runtime
    /// stack, built one layer at a time: the standard runtime, under the
    /// engine's fault plan when one is set, under circuit
    /// breakers/fallbacks when configured (outermost, so breakers see
    /// injected faults exactly as they would real ones).
    pub fn execute(
        &self,
        workflow: &Workflow,
        query_args: &BTreeMap<String, Value>,
    ) -> ExecutionReport {
        let mut runtime: Box<dyn ToolRuntime> = Box::new(self.runtime());
        if let Some(plan) = &self.fault_plan {
            let chaos = ChaosRuntime::new(runtime, plan.clone());
            runtime = Box::new(self.traced(chaos, ChaosRuntime::with_recorder));
        }
        if let Some(config) = &self.resilience {
            let resilient = ResilientRuntime::new(runtime, config.clone());
            runtime = Box::new(self.traced(resilient, ResilientRuntime::with_recorder));
        }
        let options = ExecOptions {
            workers: self.workers,
            retry: self.retry,
            recorder: self.recorder.clone(),
        };
        execute_with(workflow, &self.epoch.registry, &runtime, query_args, &options)
    }

    /// Generates and executes in one call — the serving hot path. With a
    /// recorder attached, the whole run is wrapped in a `Session` span
    /// (named by the query) carrying the pinned epoch as an event; the
    /// span closes with the run's health.
    pub fn run(&self, query: &str, context: &QueryContext) -> Result<SessionRun, PipelineError> {
        if let Some(recorder) = &self.recorder {
            recorder.begin_span(SpanKind::Session, query);
            recorder.emit(EventKind::EpochPinned { sequence: self.epoch.sequence });
        }
        let solution = match self.generate(query, context) {
            Ok(solution) => solution,
            Err(e) => {
                if let Some(recorder) = &self.recorder {
                    recorder.end_span(SpanStatus::Failed);
                }
                return Err(e);
            }
        };
        let report = self.execute(&solution.workflow, &solution.query_args());
        let health = report.health.clone();
        if let Some(recorder) = &self.recorder {
            recorder.end_span(match &health {
                RunHealth::Ok => SpanStatus::Ok,
                RunHealth::Degraded { .. } => SpanStatus::Degraded,
                RunHealth::Failed { .. } => SpanStatus::Failed,
            });
        }
        Ok(SessionRun { solution, report, health })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::protocol::Decomposition;
    use llm::DeterministicExpertModel;
    use registry::{CapabilityEntry, DataFormat, Param};
    use toolkit::{catalog, scenarios, BreakerConfig};

    fn mini_registry() -> Registry {
        let mut r = Registry::new();
        r.register(CapabilityEntry::new(
            "util.compile_disasters",
            "util",
            "compiles disaster specs into failure events",
            vec![
                Param::required("disasters", DataFormat::DisasterSpecs),
                Param::required("failure_probability", DataFormat::Scalar),
            ],
            DataFormat::FailureEventSpec,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "xaminer.event_impact",
            "xaminer",
            "processes failure events into a country impact table",
            vec![Param::required("event", DataFormat::FailureEventSpec)],
            DataFormat::CountryImpactTable,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "qa.verify_output",
            "qa",
            "verifies a final result",
            vec![Param::required("value", DataFormat::Any)],
            DataFormat::QaReport,
        ))
        .unwrap();
        r
    }

    fn context(scenario: &Scenario) -> QueryContext {
        catalog::query_context(&scenario.world, scenario.now, 10)
    }

    const CS2_QUERY: &str = "Identify the impact of severe earthquakes and hurricanes \
                             globally assuming a 10% infra failure probability";

    fn engine() -> Engine {
        let engine =
            Engine::new(Arc::new(DeterministicExpertModel::new()), mini_registry());
        engine.register_scenario("cs2", scenarios::cs2_scenario());
        engine
    }

    #[test]
    fn session_generates_and_executes_end_to_end() {
        let engine = engine();
        let session = engine.session("cs2").unwrap();
        let ctx = context(session.scenario());
        let run = session.run(CS2_QUERY, &ctx).unwrap();
        assert!(run.report.all_ok(), "qa: {:?}", run.report.qa);
        assert!(!run.report.outputs.is_empty());
        assert_eq!(session.epoch_sequence(), 0);
    }

    #[test]
    fn session_generates_a_valid_workflow() {
        let engine = engine();
        let session = engine.session("cs2").unwrap();
        let solution = session.generate(CS2_QUERY, &context(session.scenario())).unwrap();
        assert!(check(&solution.workflow, session.registry()).is_empty());
        assert!(solution.loc > 50, "loc {}", solution.loc);
        assert_eq!(solution.repair_attempts, 0);
        // QA step woven in.
        assert!(solution.workflow.steps.iter().any(|s| s.function.0 == "qa.verify_output"));
        // Restraint: one analysis framework plus plumbing.
        assert!(solution.frameworks.contains(&"xaminer".to_string()));
    }

    #[test]
    fn generate_expert_runs_the_hooks() {
        let engine = engine();
        let session = engine.session("cs2").unwrap();
        let hooks = ExpertHooks {
            adjust_decomposition: Some(Box::new(|mut d: Decomposition| {
                d.constraints.push("expert: restrict to coastal assets".into());
                d
            })),
            adjust_architecture: None,
            review_workflow: Some(Box::new(|wf: &Workflow| {
                vec![format!("reviewed {} steps", wf.steps.len())]
            })),
        };
        let solution =
            session.generate_expert(CS2_QUERY, &context(session.scenario()), &hooks).unwrap();
        assert!(solution
            .decomposition
            .constraints
            .iter()
            .any(|c| c.contains("expert: restrict")));
        assert_eq!(solution.expert_notes.len(), 1);
    }

    #[test]
    fn unknown_scenario_is_an_invalid_request() {
        let engine = engine();
        assert!(matches!(engine.session("nope"), Err(PipelineError::Invalid(_))));
    }

    #[test]
    fn re_registration_reports_kept_slot_and_mismatch() {
        let engine = engine();
        let fresh = engine.register_scenario("alt", scenarios::cs3_scenario());
        assert!(!fresh.kept_existing);
        assert!(fresh.matched);

        // Same timeline again: kept, and it matches.
        let same = engine.register_scenario("alt", scenarios::cs3_scenario());
        assert!(same.kept_existing);
        assert!(same.matched);
        assert!(Arc::ptr_eq(&same.scenario, &fresh.scenario));

        // A *different* timeline under the same key: kept (old slot and
        // its artifacts win) but flagged as a mismatch.
        let clash = engine.register_scenario("alt", scenarios::cs4_scenario());
        assert!(clash.kept_existing);
        assert!(!clash.matched);
        assert!(Arc::ptr_eq(&clash.scenario, &fresh.scenario));
        assert_eq!(
            clash.scenario.spec(),
            fresh.scenario.spec(),
            "the existing timeline still serves the key"
        );
    }

    #[test]
    fn registration_stats_surface_collisions() {
        let engine = engine(); // "cs2" registered fresh
        assert_eq!(
            engine.registration_stats(),
            RegistrationStats { registered: 1, fresh: 1, kept_existing: 0, mismatched: 0 }
        );
        engine.register_scenario("cs2", scenarios::cs2_scenario()); // idempotent
        engine.register_scenario("cs2", scenarios::cs4_scenario()); // collision
        assert_eq!(
            engine.registration_stats(),
            RegistrationStats { registered: 3, fresh: 1, kept_existing: 2, mismatched: 1 }
        );
    }

    #[test]
    fn blueprint_fleets_register_like_families() {
        let engine = engine();
        let params = scenario_forge::FamilyParams::default();
        let family = scenario_forge::Family::CableCutCascade;
        let via_family = engine.register_family(family, &params);

        // The same expansion through the blueprint surface is a byte-level
        // no-op: every key collides with a matching timeline.
        let again = engine.register_blueprints(family.id(), &family.expand(&params));
        assert_eq!(again.len(), via_family.len());
        assert!(again.iter().all(|s| !s.fresh && s.matched));
        for (a, b) in again.iter().zip(&via_family) {
            assert_eq!(a.key, b.key);
            assert!(Arc::ptr_eq(&a.scenario, &b.scenario));
        }

        // A distinct prefix gives the same timelines their own slots.
        let prefixed = engine.register_blueprints("composed", &family.expand(&params));
        assert!(prefixed.iter().all(|s| s.fresh && s.matched));
        assert!(prefixed[0].key.starts_with("composed/"));
        assert_eq!(engine.registration_stats().mismatched, 0);
    }

    #[test]
    fn same_seed_different_config_is_still_a_mismatch() {
        // World identity is the full config, not the seed: two quiet
        // scenarios over same-seed worlds that differ in another knob
        // must not compare as matching re-registrations.
        let engine = engine();
        let base = world::Scenario::quiet(
            world::generate(&world::WorldConfig::default()),
            10,
        );
        let denser = world::Scenario::quiet(
            world::generate(&world::WorldConfig {
                probe_scale: 2.0,
                ..world::WorldConfig::default()
            }),
            10,
        );
        assert!(!engine.register_scenario("cfg", base).kept_existing);
        let clash = engine.register_scenario("cfg", denser);
        assert!(clash.kept_existing);
        assert!(!clash.matched);
    }

    #[test]
    fn family_fleet_shares_cached_worlds_across_scenarios() {
        let engine = engine();
        let params = scenario_forge::FamilyParams::default();
        let blackout =
            engine.register_family(scenario_forge::Family::RegionalBlackout, &params);
        let cascade =
            engine.register_family(scenario_forge::Family::CableCutCascade, &params);
        assert_eq!(blackout.len(), params.variants);
        assert!(blackout.iter().all(|s| s.fresh));

        // Both families script events over the same world config, so every
        // scenario holds the *same* Arc<World>: one generation total.
        for s in blackout.iter().chain(&cascade) {
            assert!(Arc::ptr_eq(&s.scenario.world, &blackout[0].scenario.world));
        }
        assert_eq!(engine.world_cache().generations(), 1);

        // Sessions open against family keys unchanged, and pin the same
        // shared world.
        let session = engine.session(&blackout[0].key).unwrap();
        assert!(Arc::ptr_eq(&session.scenario().world, &blackout[0].scenario.world));

        // Re-registering the fleet is idempotent: nothing fresh, nothing
        // regenerated, and every kept slot matches the offered timeline.
        let again = engine.register_family(scenario_forge::Family::RegionalBlackout, &params);
        assert!(again.iter().all(|s| !s.fresh && s.matched));
        assert_eq!(engine.world_cache().generations(), 1);

        // Same seed, different intensity: the blueprint names (and thus
        // keys) collide while the scripts differ — the kept slots must
        // surface the mismatch per scenario.
        let hotter = scenario_forge::FamilyParams { intensity: 1.0, ..params.clone() };
        let clash = engine.register_family(scenario_forge::Family::RegionalBlackout, &hotter);
        assert!(clash.iter().all(|s| !s.fresh && !s.matched));

        // A world-structure family names distinct configs → distinct worlds.
        let depeered =
            engine.register_family(scenario_forge::Family::TransitDePeering, &params);
        assert_eq!(engine.world_cache().generations(), 1 + params.variants);
        assert!(!Arc::ptr_eq(&depeered[0].scenario.world, &blackout[0].scenario.world));
    }

    #[test]
    fn curation_publishes_a_new_epoch_without_touching_open_sessions() {
        let engine = engine();
        let old_session = engine.session("cs2").unwrap();
        let ctx = context(old_session.scenario());
        let solution = old_session.generate(CS2_QUERY, &ctx).unwrap();
        let corpus = vec![solution.summary(true), solution.summary(true)];

        let before = engine.registry().len();
        let outcome = engine.curate(&corpus, 2).unwrap();
        assert_eq!(outcome.added.len(), 1, "rejected: {:?}", outcome.rejected);

        // The engine advanced...
        assert_eq!(engine.epoch().sequence, 1);
        assert_eq!(engine.registry().len(), before + 1);
        // ...but the open session still pins epoch 0 and keeps working.
        assert_eq!(old_session.epoch_sequence(), 0);
        assert_eq!(old_session.registry().len(), before);
        assert!(old_session.run(CS2_QUERY, &ctx).unwrap().report.all_ok());

        // A fresh session sees (and can execute) the mined composite.
        let new_session = engine.session("cs2").unwrap();
        assert_eq!(new_session.epoch_sequence(), 1);
        let composite = &outcome.added[0];
        assert!(new_session.registry().contains(composite));
        let s2 = new_session.generate(CS2_QUERY, &ctx).unwrap();
        assert!(
            s2.workflow.steps.len() <= solution.workflow.steps.len(),
            "curated epoch should not grow the plan ({} vs {})",
            s2.workflow.steps.len(),
            solution.workflow.steps.len()
        );
        assert!(new_session.run(CS2_QUERY, &ctx).unwrap().report.all_ok());
    }

    #[test]
    fn curation_without_new_composites_keeps_the_epoch() {
        let engine = engine();
        let session = engine.session("cs2").unwrap();
        let ctx = context(session.scenario());
        let solution = session.generate(CS2_QUERY, &ctx).unwrap();
        let corpus = vec![solution.summary(true), solution.summary(true)];
        engine.curate(&corpus, 2).unwrap();
        assert_eq!(engine.epoch().sequence, 1);
        // Second pass mines nothing new → no epoch churn, and the repeat
        // proposal is rejected as a duplicate.
        let again = engine.curate(&corpus, 2).unwrap();
        assert_eq!(engine.epoch().sequence, 1);
        assert!(again.added.is_empty());
        assert!(again
            .rejected
            .iter()
            .any(|(_, why)| why.contains("already registered") || why.contains("duplicate")));
    }

    #[test]
    fn curated_composite_signature_is_derived_from_its_parts() {
        let engine = engine();
        let session = engine.session("cs2").unwrap();
        let solution = session.generate(CS2_QUERY, &context(session.scenario())).unwrap();
        let corpus = vec![solution.summary(true), solution.summary(true)];
        let outcome = engine.curate(&corpus, 2).unwrap();
        let registry = engine.registry();
        let entry = registry.get(&outcome.added[0]).unwrap();
        // The composite takes the chain's external inputs and returns the
        // final output.
        assert_eq!(entry.output, DataFormat::CountryImpactTable);
        let input_names: Vec<&str> = entry.inputs.iter().map(|p| p.name.as_str()).collect();
        assert!(input_names.contains(&"disasters"));
        assert!(input_names.contains(&"failure_probability"));
        assert!(!input_names.contains(&"event"), "internally satisfied input must not leak");
    }

    #[test]
    fn resilience_without_a_fault_plan_serves_like_a_plain_engine() {
        let serve = |engine: Engine| {
            engine.register_scenario("cs5", scenarios::cs5_hijack_scenario());
            let session = engine.session("cs5").unwrap();
            session.run(scenarios::CS5_QUERY, &context(session.scenario())).unwrap()
        };
        let build = |workers: usize| {
            Engine::new(Arc::new(DeterministicExpertModel::new()), catalog::standard_registry())
                .with_exec_workers(workers)
        };
        for workers in [1usize, 2, 8] {
            let plain = serve(build(workers));
            let resilient = serve(
                build(workers).with_resilience(ResilienceConfig::new(BreakerConfig::default())),
            );
            assert_eq!(resilient.health, RunHealth::Ok, "{workers} workers");
            assert_eq!(resilient.report, plain.report, "{workers} workers");
        }
    }

    #[test]
    fn family_registration_generates_once_at_any_thread_count() {
        for threads in [1usize, 2, 8] {
            let engine = engine();
            let params = scenario_forge::FamilyParams {
                seed: 2000 + threads as u64,
                ..scenario_forge::FamilyParams::default()
            };
            let fleets: Vec<Vec<FamilyScenario>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let engine = &engine;
                        let params = &params;
                        scope.spawn(move || {
                            engine.register_family(
                                scenario_forge::Family::CableCutCascade,
                                params,
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // However many threads raced, the world was generated once and
            // every fleet's scenarios pin the same Arc<World>.
            assert_eq!(engine.world_cache().generations(), 1, "{threads} threads");
            let first = &fleets[0][0].scenario;
            for fleet in &fleets {
                for s in fleet {
                    assert!(Arc::ptr_eq(&s.scenario.world, &first.world));
                }
            }
        }
    }

    #[test]
    fn concurrent_sessions_share_artifacts_and_agree_with_sequential() {
        let engine = engine();
        let session = engine.session("cs2").unwrap();
        let ctx = context(session.scenario());
        let sequential = session.run(CS2_QUERY, &ctx).unwrap();

        // Eight concurrent sessions, one query each.
        let runs: Vec<SessionRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let engine = &engine;
                    let ctx = &ctx;
                    scope.spawn(move || {
                        engine.session("cs2").unwrap().run(CS2_QUERY, ctx).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for run in &runs {
            assert_eq!(run.solution.source_code, sequential.solution.source_code);
            assert_eq!(run.report, sequential.report);
        }
        // The expensive artifacts (mapping, default deps) are world-level
        // now: the scenario store stays empty and every session serves
        // them from the shared world-keyed store.
        let runtime = engine.session("cs2").unwrap().runtime();
        assert!(runtime.artifacts().is_empty(), "no scenario-level artifacts for cs2");
        assert!(runtime.world_artifacts().contains("nautilus.mapping"));
        assert!(runtime.world_artifacts().contains("nautilus.default_deps"));
    }

    #[test]
    fn engine_fleets_share_the_process_wide_world_cache() {
        // The PR-5 cache unification: a fleet whose config matches the
        // standard evaluation world holds the *same* Arc<World> the case
        // studies draw from scenario_forge::global_cache() — no duplicate
        // generation for a process mixing both. FamilyParams::default()
        // scripts over WorldConfig::default(), the standard world.
        let engine = engine();
        let params = scenario_forge::FamilyParams::default();
        let fleet = engine.register_family(scenario_forge::Family::RegionalBlackout, &params);
        let standard = toolkit::scenarios::standard_world();
        assert!(
            Arc::ptr_eq(&fleet[0].scenario.world, &standard),
            "engine fleet and case studies share one world generation"
        );
        // The per-engine stats hook still reads deterministically even
        // though the global cache may already have been warm.
        assert_eq!(engine.world_cache().generations(), 1);
        assert!(engine
            .world_cache()
            .shared()
            .get(&world::WorldConfig::default())
            .is_some());
    }
}
