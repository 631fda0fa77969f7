//! The campaign runner: thousands of scenario-queries through the
//! engine's session pool, reduced to a scorecard with provenance.
//!
//! Determinism is the design constraint everything here bends around.
//! The task list is built in spec order (ensembles → draws → fleet
//! order → queries). Workers *pull* tasks: each claims the next task
//! index from a shared counter, so a worker that drew cheap scenarios
//! takes more of them instead of idling while another finishes a fixed
//! half. Each outcome goes into the write-once slot at its task index
//! (not lock-and-push — completion order never leaks into the output),
//! and the scorecard folds the outcomes in task order afterwards. The
//! same spec therefore produces byte-identical outcomes, scorecards and
//! provenance records at 1, 2 or 8 workers, with or without a fault plan
//! installed.
//!
//! Campaign workers are the serving stack's one layer of parallelism:
//! the workflow executor and the substrate kernels a query reaches
//! (routing tables, RIB captures, update derivation) compute on the
//! worker's own thread. The same workers build the campaign's cold
//! worlds before registration, pulling configs from a counter the same
//! way; the world cache is content-addressed, so which worker built a
//! world, and when, never reaches an output.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use arachnet::{Engine, RegistrationStats};
use telemetry::Recorder;
use toolkit::QueryMetrics;
use workflow::RunHealth;
use world::{Scenario, WorldConfig};

use crate::ensemble::{EnsembleDraw, EnsembleSpec};
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
    /// timelines already registered on the engine; those blueprints'
    /// tasks are `Failed` outcomes, not served).
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
    /// Why the task is not served: its key already held a different
    /// timeline, so the session would serve another scenario.
    refused: Option<String>,
}

/// Executes campaigns against a borrowed engine.
pub struct CampaignRunner<'a> {
    engine: &'a Engine,
    workers: usize,
    tracing: bool,
}

impl<'a> CampaignRunner<'a> {
    /// A runner with one worker per core, capped at 8: the campaign's
    /// workers are the only threads a campaign runs.
    pub fn new(engine: &'a Engine) -> CampaignRunner<'a> {
        #[expect(
            clippy::disallowed_methods,
            reason = "campaign workers are the one layer of threads, sized from the cores"
        )]
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(8);
        CampaignRunner { engine, workers, tracing: false }
    }

    /// Overrides the campaign-level worker count (each worker pulls the
    /// next unclaimed task and serves it through its own session).
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
    /// The spec expands serially, in spec order. The workers then build
    /// the campaign's cold worlds: every distinct config the engine's
    /// cache does not hold yet, generated once through that
    /// content-addressed cache (draws that share a config share one
    /// `Arc<World>`). Registration follows, serially and in spec order,
    /// and finds every world built: each scenario registers under
    /// `"<family>/d<draw>/<variant>"`. A blueprint whose key already
    /// holds a different timeline is not served; its tasks are `Failed`
    /// outcomes whose error names the key. The task list is then served
    /// across the worker pool.
    pub fn run(&self, spec: &CampaignSpec) -> CampaignReport {
        let draws: Vec<(&'static str, EnsembleDraw)> = spec
            .ensembles
            .iter()
            .flat_map(|ensemble| {
                let family = ensemble.family.id();
                ensemble.expand().into_iter().map(move |draw| (family, draw))
            })
            .collect();
        self.build_worlds(&draws);

        let mut registration = RegistrationStats::default();
        let mut tasks: Vec<Task> = Vec::new();
        for (family, draw) in &draws {
            let prefix = format!("{family}/d{}", draw.draw);
            let params_hash = draw.params.content_hash();
            let fleet = self.engine.register_blueprints(&prefix, &draw.blueprints);
            for (registered, blueprint) in fleet.into_iter().zip(&draw.blueprints) {
                registration.count(!registered.fresh, registered.matched);
                // A kept slot with another timeline would serve that
                // scenario under this draw's provenance: stamp the
                // offered scenario instead, and refuse to serve it.
                let (scenario, refused) = if registered.matched {
                    (registered.scenario, None)
                } else {
                    let world = self.engine.world_cache().get_or_generate(&blueprint.config);
                    let error = format!(
                        "scenario key {:?} already holds a different timeline",
                        registered.key
                    );
                    (Arc::new(blueprint.realize(world)), Some(error))
                };
                for query in &spec.queries {
                    tasks.push(Task {
                        key: registered.key.clone(),
                        query: query.clone(),
                        family,
                        params_hash,
                        draw: draw.draw,
                        scenario: Arc::clone(&scenario),
                        refused: refused.clone(),
                    });
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

    /// Builds the worlds of `draws` that the engine's cache does not hold
    /// yet: each distinct config once, in first-seen spec order, pulled
    /// across the workers. A spec whose worlds are all warm starts no
    /// thread.
    fn build_worlds(&self, draws: &[(&str, EnsembleDraw)]) {
        let cache = self.engine.world_cache();
        let mut seen: BTreeSet<&WorldConfig> = BTreeSet::new();
        let cold: Vec<&WorldConfig> = draws
            .iter()
            .flat_map(|(_, draw)| &draw.blueprints)
            .map(|blueprint| &blueprint.config)
            .filter(|config| seen.insert(config) && cache.get(config).is_none())
            .collect();
        self.pull(cold.len(), |i| {
            if let Some(config) = cold.get(i) {
                cache.get_or_generate(config);
            }
        });
    }

    /// Serves the task list across the worker pool: slot `i` holds task
    /// `i`'s outcome regardless of which worker ran it or when.
    fn serve(&self, tasks: &[Task]) -> Vec<QueryOutcome> {
        let slots: Vec<OnceLock<QueryOutcome>> = tasks.iter().map(|_| OnceLock::new()).collect();
        self.pull(tasks.len(), |i| {
            if let (Some(task), Some(slot)) = (tasks.get(i), slots.get(i)) {
                // Each index is claimed once, so each slot is set once.
                let _ = slot.set(self.execute(task));
            }
        });
        slots.into_iter().filter_map(OnceLock::into_inner).collect()
    }

    /// Runs `job(i)` for every `i` in `0..n` on `min(workers, n)` scoped
    /// threads. Workers claim indices in ascending order from one
    /// counter until none is left, so a worker that drew cheap jobs
    /// takes more of them.
    fn pull(&self, n: usize, job: impl Fn(usize) + Sync) {
        let next = AtomicUsize::new(0);
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= n {
                break;
            }
            job(i);
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "the workers pull jobs and join before registration or the scorecard fold"
        )]
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(worker);
            }
        });
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
        let failed = |epoch: u64, error: String, trace_hash: Option<u64>| QueryOutcome {
            provenance: provenance(epoch, trace_hash),
            query: task.query.clone(),
            health: RunHealth::Failed { failed_steps: Vec::new() },
            metrics: QueryMetrics::default(),
            retries: 0,
            trace_hash,
            error: Some(error),
        };
        let trace_of = |recorder: &Option<Arc<Recorder>>| {
            recorder.as_ref().map(|r| r.trace_hash())
        };
        if let Some(error) = &task.refused {
            let trace_hash = trace_of(&recorder);
            return failed(self.engine.epoch().sequence, error.clone(), trace_hash);
        }
        let session = match self.engine.session(&task.key) {
            Ok(session) => match &recorder {
                Some(rec) => session.with_recorder(Arc::clone(rec)),
                None => session,
            },
            Err(e) => {
                let trace_hash = trace_of(&recorder);
                return failed(self.engine.epoch().sequence, e.to_string(), trace_hash);
            }
        };
        let epoch = session.epoch_sequence();
        match session.run(&task.query, &session.context()) {
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
                failed(epoch, e.to_string(), trace_hash)
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
    fn pulled_tasks_land_in_task_order_at_any_worker_count() {
        let run = |spec: &CampaignSpec, workers: usize| {
            CampaignRunner::new(&engine()).with_workers(workers).run(spec)
        };
        // More workers than tasks: only two start.
        let small = small_spec();
        let one = run(&small, 1);
        let eight = run(&small, 8);
        assert_eq!(eight.outcomes.len(), 2);
        assert_eq!(eight.outcomes, one.outcomes);
        assert_eq!(eight.scorecard, one.scorecard);

        // Skewed costs: quiet de-peering scenarios (no event, no update
        // derivation) ahead of cut cascades and hijacks, so one worker
        // races through the cheap tasks while the other is still busy.
        let params = FamilyParams { variants: 2, ..FamilyParams::default() };
        let skewed = CampaignSpec::new(
            vec![
                EnsembleSpec::new(Family::TransitDePeering, params.clone()),
                EnsembleSpec::new(Family::CableCutCascade, params.clone()),
                EnsembleSpec::new(
                    CampaignFamily::Composed(ComposedFamily::HijackDuringCascade),
                    params,
                ),
            ],
            vec![FORENSICS_QUERY.to_string()],
        );
        let one = run(&skewed, 1);
        let two = run(&skewed, 2);
        assert_eq!(one.scorecard.failed, 0, "outcomes: {:?}", one.outcomes);
        assert_eq!(two.outcomes, one.outcomes);
        assert_eq!(two.scorecard, one.scorecard);
        assert_eq!(two.provenance_hashes(), one.provenance_hashes());
        let families: Vec<&str> =
            two.outcomes.iter().map(|o| o.provenance.family.as_str()).collect();
        let expected = ["transit-depeering", "cable-cut-cascade", "hijack-during-cascade"];
        assert_eq!(families, expected.map(|f| [f, f]).concat(), "task order");
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
        #[expect(
            clippy::disallowed_methods,
            reason = "a noise thread registers scenarios while the campaign runs"
        )]
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
    fn colliding_keys_fail_closed_instead_of_serving_the_kept_scenario() {
        // Two ensembles of one family at different seeds share the key
        // prefix `<family>/d0`, and blueprint names ignore the seed: the
        // second ensemble's blueprint finds the first one's slot.
        let ensemble = |seed| {
            let params = FamilyParams { seed, variants: 1, ..FamilyParams::default() };
            EnsembleSpec::new(Family::TransitDePeering, params)
        };
        let spec = CampaignSpec::new(vec![ensemble(1), ensemble(2)], vec![FORENSICS_QUERY.into()]);
        let engine = engine();
        let report = CampaignRunner::new(&engine).with_workers(2).run(&spec);
        assert_eq!(report.registration.fresh, 1);
        assert_eq!(report.registration.mismatched, 1);
        let [first, second] = &report.outcomes[..] else {
            panic!("2 scenarios × 1 query, got {:?}", report.outcomes);
        };
        assert_eq!(first.provenance.scenario_key, second.provenance.scenario_key);
        assert!(first.error.is_none(), "the first ensemble serves: {first:?}");
        let key = &second.provenance.scenario_key;
        assert_eq!(
            second.error.as_deref(),
            Some(format!("scenario key {key:?} already holds a different timeline").as_str())
        );
        assert!(matches!(second.health, RunHealth::Failed { .. }));
        assert_eq!(report.scorecard.failed, 1);
        // The refused outcome stamps the scenario its own draw offered,
        // not the kept one.
        let offered = ensemble(2).expand().remove(0).blueprints.remove(0);
        assert_eq!(second.provenance.world_hash, offered.world_hash());
        assert_ne!(second.provenance.world_hash, first.provenance.world_hash);
        assert_ne!(second.provenance.scenario_hash, first.provenance.scenario_hash);
        assert_eq!(second.provenance.params_hash, ensemble(2).params.content_hash());
        // A rerun on the same engine refuses the same blueprint again.
        let rerun = CampaignRunner::new(&engine).run(&spec);
        assert_eq!(rerun.outcomes, report.outcomes);
    }

    #[test]
    fn workers_build_each_cold_world_once_before_registration() {
        // Three families over two draws, where blueprints of one draw
        // share a config. The engine is fresh, so every world starts cold.
        let params = FamilyParams { variants: 1, ..FamilyParams::default() };
        let families =
            [Family::TargetedPrefixHijack, Family::TransitDePeering, Family::RegionalBlackout];
        let spec = CampaignSpec::new(
            families.map(|f| EnsembleSpec::new(f, params.clone()).with_draws(2)).to_vec(),
            vec![FORENSICS_QUERY.to_string()],
        );
        let blueprints: Vec<_> = spec
            .ensembles
            .iter()
            .flat_map(EnsembleSpec::expand)
            .flat_map(|draw| draw.blueprints)
            .collect();
        let configs: BTreeSet<&WorldConfig> = blueprints.iter().map(|b| &b.config).collect();
        assert!(configs.len() < blueprints.len(), "several blueprints share a config");

        let recorder = Arc::new(Recorder::new());
        let engine = engine().with_recorder(Arc::clone(&recorder));
        let report =
            CampaignRunner::new(&engine).with_workers(2).with_tracing(true).run(&spec);
        assert_eq!(report.scorecard.failed, 0, "outcomes: {:?}", report.outcomes);
        assert_eq!(engine.world_cache().generations(), configs.len());
        // Registration found every world built: the engine's warmth
        // probe reads a hit for each blueprint and never a miss.
        let metrics = recorder.metrics_snapshot();
        assert_eq!(metrics.counter("world_cache.miss"), 0);
        assert_eq!(metrics.counter("world_cache.hit"), blueprints.len() as u64);
        for config in configs {
            let built = engine.world_cache().get(config);
            let built = built.map(|world| format!("{world:?}"));
            let fresh = format!("{:?}", world::generate(config));
            assert_eq!(built.as_ref(), Some(&fresh), "the worker built the generated world");
        }
    }

    #[test]
    fn dropping_the_engine_frees_its_worlds_and_world_stores() {
        // Nothing outside the engine keeps a campaign's worlds or its
        // world-level artifacts alive: once the engine and the report
        // are dropped, every handle to them is dead.
        let engine = engine();
        let spec = small_spec();
        let report = CampaignRunner::new(&engine).with_workers(2).run(&spec);
        assert_eq!(report.scorecard.failed, 0, "outcomes: {:?}", report.outcomes);
        let worlds: Vec<_> = spec
            .ensembles
            .iter()
            .flat_map(EnsembleSpec::expand)
            .flat_map(|draw| draw.blueprints)
            .map(|blueprint| engine.world_cache().get(&blueprint.config))
            .map(|world| Arc::downgrade(&world.expect("the campaign built every world")))
            .collect();
        let key = &report.outcomes[0].provenance.scenario_key;
        let runtime = engine.session(key).expect("registered").runtime();
        let mapping = registry::FunctionId::from("nautilus.map_links");
        workflow::ToolRuntime::invoke(&runtime, &mapping, &Default::default()).expect("maps");
        assert!(runtime.world_artifacts().contains("nautilus.mapping"));
        let store = Arc::downgrade(runtime.world_artifacts());
        drop((runtime, report, engine));
        assert!(worlds.iter().all(|world| world.upgrade().is_none()), "a world outlived its engine");
        assert!(store.upgrade().is_none(), "a world store outlived its engine");
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
