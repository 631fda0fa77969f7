//! The campaign runner: thousands of scenario-queries through the
//! engine's session pool, reduced to a scorecard with provenance.
//!
//! Determinism is the design constraint everything here bends around.
//! The task list is built in spec order (ensembles → draws → fleet
//! order → queries), each worker owns a *contiguous pre-assigned slice*
//! of result slots (`chunks_mut`, not lock-and-push — completion order
//! never leaks into the output), and the scorecard folds the outcomes
//! in task order afterwards. The same spec therefore produces
//! byte-identical outcomes, scorecards and provenance records at 1, 2
//! or 8 workers, with or without a fault plan installed.

use std::sync::Arc;

use arachnet::{Engine, PipelineError, RegistrationStats};
use telemetry::Recorder;
use toolkit::QueryMetrics;
use workflow::RunHealth;
use world::Scenario;

use crate::ensemble::EnsembleSpec;
use crate::provenance::{str_words, ProvenanceRecord};
use crate::scorecard::{ResilienceScorecard, ScorecardBuilder};

/// A complete campaign: which ensembles to expand and which queries to
/// pose against every expanded scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    pub ensembles: Vec<EnsembleSpec>,
    /// Every query is served once per registered scenario.
    pub queries: Vec<String>,
}

impl CampaignSpec {
    pub fn new(ensembles: Vec<EnsembleSpec>, queries: Vec<String>) -> CampaignSpec {
        CampaignSpec { ensembles, queries }
    }
}

/// One served scenario-query with its reduction and provenance stamp.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    pub provenance: ProvenanceRecord,
    pub query: String,
    pub health: RunHealth,
    pub metrics: QueryMetrics,
    /// Transient-failure retries this run spent.
    pub retries: usize,
    /// Content hash of this run's deterministic trace, when the campaign
    /// ran with [`CampaignRunner::with_tracing`] — equal hashes mean
    /// byte-identical traces.
    pub trace_hash: Option<u64>,
    /// The pipeline error, when the session could not serve the query at
    /// all (such outcomes count as `Failed` in the scorecard).
    pub error: Option<String>,
}

/// Everything a campaign returns: per-query outcomes (in deterministic
/// task order), the scorecard reduction, and the outcomes of this
/// campaign's own scenario registrations.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    pub outcomes: Vec<QueryOutcome>,
    pub scorecard: ResilienceScorecard,
    /// Registration outcomes for this campaign's fleet, folded from the
    /// scenarios its own registrations returned, so registrations other
    /// threads make on the same engine never count here (a nonzero
    /// `mismatched` means the spec's keys collided with different
    /// timelines already registered on the engine).
    pub registration: RegistrationStats,
}

impl CampaignReport {
    /// The provenance identities of every outcome, in task order —
    /// what the determinism suite compares across worker counts.
    pub fn provenance_hashes(&self) -> Vec<u64> {
        self.outcomes.iter().map(|o| o.provenance.content_hash()).collect()
    }
}

/// One unit of work: a registered scenario times a query.
struct Task {
    key: String,
    query: String,
    family: &'static str,
    params_hash: u64,
    draw: u64,
    scenario: Arc<Scenario>,
}

/// Executes campaigns against a borrowed engine.
pub struct CampaignRunner<'a> {
    engine: &'a Engine,
    workers: usize,
    tracing: bool,
}

impl<'a> CampaignRunner<'a> {
    pub fn new(engine: &'a Engine) -> CampaignRunner<'a> {
        CampaignRunner { engine, workers: workflow::exec::default_workers(), tracing: false }
    }

    /// Overrides the campaign-level worker count (each worker serves its
    /// own slice of the task list through its own sessions).
    pub fn with_workers(mut self, workers: usize) -> CampaignRunner<'a> {
        self.workers = workers.max(1);
        self
    }

    /// Enables per-query tracing: every task gets its own fresh
    /// [`telemetry::Recorder`], and each outcome (and its provenance
    /// stamp) carries the resulting trace content hash.
    pub fn with_tracing(mut self, tracing: bool) -> CampaignRunner<'a> {
        self.tracing = tracing;
        self
    }

    /// Expands, registers and serves the whole campaign.
    ///
    /// Registration happens first, serially, in spec order: worlds
    /// generate through the engine's shared content-addressed cache
    /// (draws that share a config share one `Arc<World>`), and every
    /// scenario registers under `"<family>/d<draw>/<variant>"`. The
    /// task list is then served across the worker pool.
    pub fn run(&self, spec: &CampaignSpec) -> CampaignReport {
        let mut registration = RegistrationStats::default();
        let mut tasks: Vec<Task> = Vec::new();
        for ensemble in &spec.ensembles {
            let family = ensemble.family.id();
            for draw in ensemble.expand() {
                let prefix = format!("{family}/d{}", draw.draw);
                let params_hash = draw.params.content_hash();
                let fleet = self.engine.register_blueprints(&prefix, &draw.blueprints);
                for registered in fleet {
                    registration.count(!registered.fresh, registered.matched);
                    for query in &spec.queries {
                        tasks.push(Task {
                            key: registered.key.clone(),
                            query: query.clone(),
                            family,
                            params_hash,
                            draw: draw.draw,
                            scenario: Arc::clone(&registered.scenario),
                        });
                    }
                }
            }
        }

        let outcomes = self.serve(&tasks);
        let mut builder = ScorecardBuilder::default();
        for outcome in &outcomes {
            builder.record(&outcome.health, &outcome.metrics, outcome.retries);
        }
        let scorecard = builder.finish();
        CampaignReport { outcomes, scorecard, registration }
    }

    /// Serves the task list across the worker pool: slot `i` holds task
    /// `i`'s outcome regardless of which worker ran it or when.
    fn serve(&self, tasks: &[Task]) -> Vec<QueryOutcome> {
        let mut slots: Vec<Option<QueryOutcome>> = Vec::new();
        slots.resize_with(tasks.len(), || None);
        if tasks.is_empty() {
            return Vec::new();
        }
        let chunk = tasks.len().div_ceil(self.workers);
        std::thread::scope(|scope| {
            for (task_chunk, slot_chunk) in tasks.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (task, slot) in task_chunk.iter().zip(slot_chunk.iter_mut()) {
                        *slot = Some(self.execute(task));
                    }
                });
            }
        });
        slots.into_iter().flatten().collect()
    }

    /// Serves one task through its own engine session. With tracing
    /// enabled the task gets a fresh recorder, so its trace covers
    /// exactly this session span and hashes independently of whichever
    /// worker (or neighbor task) ran first.
    fn execute(&self, task: &Task) -> QueryOutcome {
        let fault_seed = self.engine.fault_plan().map(|plan| plan.seed);
        let recorder = if self.tracing { Some(Arc::new(Recorder::new())) } else { None };
        let scenario = &task.scenario;
        let provenance = |epoch: u64, trace_hash: Option<u64>| ProvenanceRecord {
            scenario_key: task.key.clone(),
            scenario_hash: scenario.content_hash(),
            world_hash: scenario.world.config.content_hash(),
            registry_epoch: epoch,
            family: task.family.to_string(),
            params_hash: task.params_hash,
            draw: task.draw,
            fault_seed,
            query_hash: str_words(&task.query),
            trace_hash,
        };
        let failed = |epoch: u64, error: PipelineError, trace_hash: Option<u64>| QueryOutcome {
            provenance: provenance(epoch, trace_hash),
            query: task.query.clone(),
            health: RunHealth::Failed { failed_steps: Vec::new() },
            metrics: QueryMetrics::default(),
            retries: 0,
            trace_hash,
            error: Some(error.to_string()),
        };
        let trace_of = |recorder: &Option<Arc<Recorder>>| {
            recorder.as_ref().map(|r| r.trace_hash())
        };
        let session = match self.engine.session(&task.key) {
            Ok(session) => match &recorder {
                Some(rec) => session.with_recorder(Arc::clone(rec)),
                None => session,
            },
            Err(e) => {
                let trace_hash = trace_of(&recorder);
                return failed(self.engine.epoch().sequence, e, trace_hash);
            }
        };
        let epoch = session.epoch_sequence();
        let horizon_days =
            (scenario.horizon.duration().as_seconds() / 86_400).max(1);
        let context = toolkit::query_context(&scenario.world, scenario.now, horizon_days);
        match session.run(&task.query, &context) {
            Ok(run) => {
                let trace_hash = trace_of(&recorder);
                QueryOutcome {
                    provenance: provenance(epoch, trace_hash),
                    query: task.query.clone(),
                    metrics: QueryMetrics::extract(&run.solution.workflow, &run.report),
                    retries: run.report.retries,
                    health: run.health,
                    trace_hash,
                    error: None,
                }
            }
            Err(e) => {
                let trace_hash = trace_of(&recorder);
                failed(epoch, e, trace_hash)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::ComposedFamily;
    use crate::ensemble::CampaignFamily;
    use arachnet::DeterministicExpertModel;
    use scenario_forge::{Family, FamilyParams};
    use std::sync::atomic::{AtomicBool, Ordering};

    const FORENSICS_QUERY: &str =
        "Multiple origin ASes were observed announcing the same prefixes starting two \
         days ago. Determine whether a prefix hijack or a route leak caused this, and \
         identify the offending AS.";

    fn engine() -> Engine {
        Engine::new(Arc::new(DeterministicExpertModel::new()), toolkit::standard_registry())
    }

    fn small_spec() -> CampaignSpec {
        let params = FamilyParams { variants: 1, ..FamilyParams::default() };
        CampaignSpec::new(
            vec![
                EnsembleSpec::new(Family::TargetedPrefixHijack, params.clone()),
                EnsembleSpec::new(
                    CampaignFamily::Composed(ComposedFamily::HijackDuringCascade),
                    params,
                ),
            ],
            vec![FORENSICS_QUERY.to_string()],
        )
    }

    #[test]
    fn campaign_serves_and_reduces() {
        let engine = engine();
        let report = CampaignRunner::new(&engine).with_workers(2).run(&small_spec());
        assert_eq!(report.outcomes.len(), 2, "2 scenarios × 1 query");
        assert_eq!(report.scorecard.queries, 2);
        assert_eq!(report.scorecard.failed, 0, "outcomes: {:?}", report.outcomes);
        assert_eq!(report.registration.fresh, 2);
        assert_eq!(report.registration.mismatched, 0);
        for outcome in &report.outcomes {
            assert!(outcome.error.is_none());
            assert!(outcome.metrics.detector_hit(), "hijack campaigns detect");
            assert_eq!(outcome.provenance.registry_epoch, 0);
            assert_eq!(outcome.provenance.fault_seed, None);
            assert!(outcome.provenance.scenario_key.contains("/d0/"));
        }
        // The two ensembles share the default seed's base config: one world.
        assert_eq!(engine.world_cache().generations(), 1);
    }

    #[test]
    fn rerunning_the_same_spec_is_idempotent_and_byte_identical() {
        let engine = engine();
        let runner = CampaignRunner::new(&engine);
        let first = runner.run(&small_spec());
        let second = runner.run(&small_spec());
        assert_eq!(first.outcomes, second.outcomes);
        assert_eq!(first.scorecard, second.scorecard);
        // Second pass re-registers the same timelines: kept, matched.
        assert_eq!(second.registration.fresh, 0);
        assert_eq!(second.registration.kept_existing, 2);
        assert_eq!(second.registration.mismatched, 0);
    }

    #[test]
    fn tracing_stamps_outcomes_with_reproducible_trace_hashes() {
        let engine = engine();
        let runner = CampaignRunner::new(&engine).with_workers(2).with_tracing(true);
        let first = runner.run(&small_spec());
        let second = runner.run(&small_spec());
        for outcome in &first.outcomes {
            assert!(outcome.trace_hash.is_some(), "tracing stamps every outcome");
            assert_eq!(outcome.trace_hash, outcome.provenance.trace_hash);
        }
        let hashes = |report: &CampaignReport| {
            report.outcomes.iter().map(|o| o.trace_hash).collect::<Vec<_>>()
        };
        assert_eq!(hashes(&first), hashes(&second), "traces replay bit-identically");
        // Without tracing the stamp stays empty.
        let untraced = CampaignRunner::new(&engine).run(&small_spec());
        assert!(untraced.outcomes.iter().all(|o| o.trace_hash.is_none()));
    }

    #[test]
    fn registration_counts_only_this_campaigns_scenarios() {
        // Another thread registering on the same engine while the
        // campaign registers its fleet must not leak into the campaign's
        // counts. The noise cycles over 64 keys to keep memory flat; each
        // re-registration still counts in the engine-wide stats.
        let engine = engine();
        let params = FamilyParams { variants: 1, ..FamilyParams::default() };
        let noise = engine.register_family(Family::RegionalBlackout, &params);
        let noise = (*noise[0].scenario).clone();
        let spec = CampaignSpec::new(
            vec![EnsembleSpec::new(Family::TargetedPrefixHijack, FamilyParams::default())
                .with_draws(4)],
            vec![FORENSICS_QUERY.to_string()],
        );
        let done = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut i = 0u64;
                while !done.load(Ordering::Relaxed) {
                    engine.register_scenario(&format!("noise/{}", i % 64), noise.clone());
                    i += 1;
                }
            });
            let report = CampaignRunner::new(&engine).with_workers(2).run(&spec);
            done.store(true, Ordering::Relaxed);
            report
        });
        assert_eq!(report.outcomes.len(), 12, "4 draws × 3 variants × 1 query");
        assert_eq!(report.registration.registered, report.outcomes.len() / spec.queries.len());
        assert_eq!(report.registration.fresh, 12);
        assert_eq!(report.registration.kept_existing, 0);
        assert_eq!(report.registration.mismatched, 0);
    }

    #[test]
    fn pipeline_errors_fail_closed_into_the_scorecard() {
        // A model that faults on every completion turns each served query
        // into a pipeline error; the runner must absorb those as Failed
        // outcomes instead of panicking or dropping tasks.
        let model = llm::FaultyModel::new(DeterministicExpertModel::new(), usize::MAX);
        let engine = Engine::new(Arc::new(model), toolkit::standard_registry());
        let spec = CampaignSpec::new(
            vec![EnsembleSpec::new(
                Family::TargetedPrefixHijack,
                FamilyParams { variants: 1, ..FamilyParams::default() },
            )],
            vec![FORENSICS_QUERY.to_string()],
        );
        let report = CampaignRunner::new(&engine).run(&spec);
        assert_eq!(report.scorecard.queries, 1);
        assert_eq!(report.scorecard.failed, 1);
        assert_eq!(report.scorecard.failed_rate, 1.0);
        assert!(report.outcomes[0].error.is_some());
        assert!(matches!(report.outcomes[0].health, RunHealth::Failed { .. }));
    }
}
