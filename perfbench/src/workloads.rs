//! The three workloads: what each sets up, how its clients loop, and
//! what its output checks compare.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use arachnet::{
    BreakerConfig, DeterministicExpertModel, Engine, FaultKind, FaultPlan, LanguageModel,
    PipelineError, Recorder, ResilienceConfig, RetryPolicy, RunHealth,
};
use arachnet_repro::CaseStudy;
use campaign::{
    CampaignReport, CampaignRunner, CampaignSpec, ComposedFamily, EnsembleSpec, Family,
    FamilyParams,
};
use llm::protocol::QueryContext;
use registry::Registry;
use scenario_forge::ScenarioBlueprint;
use toolkit::{catalog, scenarios};
use world::Scenario;

use crate::stack::{fnv, run_traced, run_untraced, Fingerprint, Served, StackConfig, FNV_SEED};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeWarm,
    CampaignCold,
    FaultDrill,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeWarm,
        Workload::CampaignCold,
        Workload::FaultDrill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve_warm",
            Workload::CampaignCold => "campaign_cold",
            Workload::FaultDrill => "fault_drill",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Background transient-failure rate of the fault drill. With two
/// retries a critical step fails only when three attempts in a row are
/// hit (about 8 in a million per step), so no drill query fails.
const DRILL_BACKGROUND_PPM: u32 = 20_000;

/// Worlds the fault drill draws its hijack/leak fleet from, one variant
/// per family each. Per-query cost follows the world a seed derives: at
/// 4 worlds of 3 variants, one seed ran 6–19% faster than the next, run
/// back to back; 12 worlds average that out.
const DRILL_WORLDS: u64 = 12;

/// Campaign-level workers and per-query executor workers: together no
/// more threads than the two cores the benchmark is sized for.
const CAMPAIGN_WORKERS: usize = 2;

/// Counts and samples gathered by clients.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Pipeline errors, `RunHealth::Failed`, failed output checks and
    /// registration mismatches.
    pub failed: u64,
    /// The subset of `failed` whose output differed from its reference.
    pub mismatched: u64,
    /// One sample per request: a query, or a whole campaign.
    pub latencies_ms: Vec<f64>,
    /// When each request returned, in the order of `latencies_ms`.
    pub done: Vec<Instant>,
    /// Per-layer counts summed over queries (traced runs only).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.latencies_ms.extend(other.latencies_ms);
        self.done.extend(other.done);
        for (name, value) in other.layer {
            *self.layer.entry(name).or_default() += value;
        }
    }

    /// Records one request that started at `start` and returned now.
    fn sample(&mut self, start: Instant) {
        let now = Instant::now();
        self.latencies_ms.push((now - start).as_secs_f64() * 1e3);
        self.done.push(now);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.layer.entry(name).or_default() += value;
    }

    /// Judges one served query against its reference fingerprint.
    fn judge(
        &mut self,
        result: &Result<Served, PipelineError>,
        trace: Option<u64>,
        expected: &Fingerprint,
    ) {
        self.attempted += 1;
        match result {
            Err(_) => self.failed += 1,
            Ok(served) => {
                if Fingerprint::of(served, trace) != *expected {
                    self.mismatched += 1;
                    self.failed += 1;
                } else if matches!(served.report.health, RunHealth::Failed { .. }) {
                    self.failed += 1;
                }
            }
        }
    }

    /// Per-layer counts a traced query leaves in its report and recorder.
    fn count_layers(&mut self, served: &Served, recorder: &Recorder, recorded: bool) {
        self.add("core.repairs", served.solution.repair_attempts as f64);
        self.add("workflow.steps", served.report.executed as f64);
        self.add("workflow.retries", served.report.retries as f64);
        self.add("workflow.poisoned", served.report.poisoned as f64);
        let metrics = recorder.metrics_snapshot();
        let hits = metrics.counter("artifact_cache.hit");
        let probes = hits + metrics.counter("artifact_cache.miss");
        self.add("toolkit.artifact_hits", hits as f64);
        self.add("toolkit.artifact_probes", probes as f64);
        self.add(
            "chaos.faults_injected",
            metrics.counter("events.fault_injected") as f64,
        );
        self.add(
            "resilience.calls_shed",
            metrics.counter("events.call_shed") as f64,
        );
        self.add(
            "resilience.breaker_transitions",
            metrics.counter("events.breaker_transition") as f64,
        );
        if recorded {
            let trace = recorder.trace();
            self.add("telemetry.spans", trace.spans.len() as f64);
            self.add("telemetry.events", trace.events.len() as f64);
        }
    }
}

/// splitmix64: the benchmark's seeded input generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e9b5);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn context_of(scenario: &Scenario) -> QueryContext {
    let days = (scenario.horizon.duration().as_seconds() / 86_400).max(1);
    catalog::query_context(&scenario.world, scenario.now, days)
}

/// One scenario-query a client serves, with the fingerprint its warm-up
/// run left.
pub struct Job {
    pub key: String,
    pub query: String,
    pub context: QueryContext,
    pub expected: Fingerprint,
}

/// Closed-loop clients serving a fixed job list against one engine.
pub struct QueryFleet {
    pub engine: Engine,
    pub config: StackConfig,
    pub jobs: Vec<Job>,
    pub clients: usize,
}

fn serve_warm_config() -> StackConfig {
    StackConfig {
        exec_workers: 1,
        retry: RetryPolicy::default(),
        faults: None,
        resilience: None,
        record: false,
    }
}

/// One executor worker: at two, every query parks and wakes a second
/// thread, and on a 2-vCPU shared host its p99 swung between 8 and 22 ms
/// from one run of a seed to the next (6.2–6.6 ms at one worker). The
/// drill serves two clients: one client's throughput followed the vCPU it
/// ran on (a 42% range over six runs, 23% at two clients).
fn fault_drill_config(seed: u64) -> StackConfig {
    StackConfig {
        exec_workers: 1,
        retry: RetryPolicy::with_retries(2),
        faults: Some(
            FaultPlan::new(seed)
                .with_fault("bgp.valley_violations", FaultKind::Persistent)
                .with_fault("bgp.detect_moas", FaultKind::Transient { failures: 1 })
                .with_background_failures(DRILL_BACKGROUND_PPM),
        ),
        resilience: Some(ResilienceConfig::new(BreakerConfig::default())),
        record: true,
    }
}

/// Builds the engine, registers the workload's scenarios and serves
/// each job once to warm the artifact stores and record its fingerprint.
fn query_fleet(
    workload: Workload,
    seed: u64,
    model: Arc<dyn LanguageModel>,
) -> Result<QueryFleet, String> {
    let (config, clients) = match workload {
        Workload::ServeWarm => (serve_warm_config(), 2),
        Workload::FaultDrill => (fault_drill_config(seed), 2),
        Workload::CampaignCold => return Err("campaign_cold serves campaigns".into()),
    };
    let engine = config.engine(model, catalog::standard_registry());
    let mut keyed: Vec<(String, String)> = Vec::new();
    if workload == Workload::ServeWarm {
        for case in CaseStudy::ALL {
            let key = format!("cs{}", case.index());
            engine.register_scenario(&key, case.scenario());
            keyed.push((key, case.query().to_string()));
        }
        engine.register_scenario("cs5", scenarios::cs5_hijack_scenario());
        keyed.push(("cs5".into(), scenarios::CS5_QUERY.into()));
    } else {
        let root = FamilyParams {
            seed,
            variants: 1,
            ..FamilyParams::default()
        };
        for world in 0..DRILL_WORLDS {
            let params = root.reseed(world);
            let families: [(&str, Vec<ScenarioBlueprint>); 4] = [
                (
                    Family::TargetedPrefixHijack.id(),
                    Family::TargetedPrefixHijack.expand(&params),
                ),
                (
                    Family::AccidentalTransitLeak.id(),
                    Family::AccidentalTransitLeak.expand(&params),
                ),
                (
                    ComposedFamily::ALL[0].id(),
                    ComposedFamily::ALL[0].expand(&params),
                ),
                (
                    ComposedFamily::ALL[1].id(),
                    ComposedFamily::ALL[1].expand(&params),
                ),
            ];
            for (id, blueprints) in families {
                // Blueprint names ignore the seed: the prefix keeps draws apart.
                let fleet = engine.register_blueprints(&format!("{id}/w{world}"), &blueprints);
                keyed.extend(
                    fleet
                        .into_iter()
                        .map(|s| (s.key, scenarios::CS5_QUERY.to_string())),
                );
            }
        }
    }
    let mut jobs = Vec::with_capacity(keyed.len());
    for (key, query) in keyed {
        let session = engine.session(&key).map_err(|e| format!("{key}: {e}"))?;
        let context = context_of(session.scenario());
        let recorder = Arc::new(Recorder::new());
        let served = run_untraced(&engine, &config, &key, &query, &context, &recorder)
            .map_err(|e| format!("warm-up of {key}: {e}"))?;
        let expected = Fingerprint::of(&served, config.record.then(|| recorder.trace_hash()));
        jobs.push(Job {
            key,
            query,
            context,
            expected,
        });
    }
    Ok(QueryFleet {
        engine,
        config,
        jobs,
        clients,
    })
}

impl QueryFleet {
    /// Runs every client until `deadline`; each sends its next query only
    /// after the previous one returned.
    pub fn serve(&self, seed: u64, deadline: Instant, tracer: Option<&Tracer>) -> Tally {
        let mut tally = Tally::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|client| scope.spawn(move || self.client(seed, client, deadline, tracer)))
                .collect();
            for handle in handles {
                tally.merge(handle.join().expect("client thread panicked"));
            }
        });
        tally
    }

    fn client(
        &self,
        seed: u64,
        client: usize,
        deadline: Instant,
        tracer: Option<&Tracer>,
    ) -> Tally {
        let mut rng = SplitMix(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        let mut tally = Tally::default();
        while Instant::now() < deadline {
            rng.shuffle(&mut order);
            for &i in &order {
                if Instant::now() >= deadline {
                    break;
                }
                let job = &self.jobs[i];
                match tracer {
                    None => self.query_untraced(job, &mut tally),
                    Some(tracer) => tracer.span("bench.request", &job.key, || {
                        self.query_traced(tracer, job, &mut tally)
                    }),
                }
            }
        }
        tally
    }

    fn query_untraced(&self, job: &Job, tally: &mut Tally) {
        let recorder = Arc::new(Recorder::new());
        let start = Instant::now();
        let result = run_untraced(
            &self.engine,
            &self.config,
            &job.key,
            &job.query,
            &job.context,
            &recorder,
        );
        tally.sample(start);
        let trace = self.config.record.then(|| recorder.trace_hash());
        tally.judge(&result, trace, &job.expected);
    }

    fn query_traced(&self, tracer: &Tracer, job: &Job, tally: &mut Tally) {
        let recorder = Arc::new(Recorder::new());
        let start = Instant::now();
        let result = tracer.span("query", &job.key, || {
            let (engine, config) = (&self.engine, &self.config);
            run_traced(
                tracer,
                engine,
                config,
                &job.key,
                &job.query,
                &job.context,
                &recorder,
            )
        });
        tally.sample(start);
        let trace = self
            .config
            .record
            .then(|| tracer.span("telemetry.trace_hash", "", || recorder.trace_hash()));
        if let Ok(served) = &result {
            tally.count_layers(served, &recorder, self.config.record);
        }
        tracer.span("bench.check", "", || {
            tally.judge(&result, trace, &job.expected)
        });
    }
}

/// The queries every campaign scenario is asked: control-plane forensics
/// (bgp-heavy) and country-level cable impact (nautilus/xaminer-heavy).
fn campaign_queries() -> Vec<String> {
    vec![
        scenarios::CS5_QUERY.to_string(),
        CaseStudy::Cs1CableImpact.query().to_string(),
    ]
}

/// All 11 base families and both composed families, one variant each,
/// two reseeded draws, two queries: 52 scenario-queries over worlds
/// derived from `root`.
fn campaign_spec(root: u64) -> CampaignSpec {
    let params = FamilyParams {
        seed: root,
        variants: 1,
        ..FamilyParams::default()
    };
    let mut ensembles: Vec<EnsembleSpec> = Family::ALL
        .iter()
        .map(|&f| EnsembleSpec::new(f, params.clone()).with_draws(2))
        .collect();
    ensembles.extend(
        ComposedFamily::ALL
            .iter()
            .map(|&f| EnsembleSpec::new(f, params.clone()).with_draws(2)),
    );
    CampaignSpec::new(ensembles, campaign_queries())
}

fn campaign_config() -> StackConfig {
    StackConfig {
        exec_workers: 1,
        ..serve_warm_config()
    }
}

/// Digest of a campaign's provenance records, in task order.
fn provenance_digest(report: &CampaignReport) -> u64 {
    report
        .provenance_hashes()
        .iter()
        .fold(FNV_SEED, |h, p| fnv(h, &p.to_le_bytes()))
}

/// What every campaign iteration starts from.
pub struct CampaignFleet {
    pub model: Arc<dyn LanguageModel>,
    pub registry: Registry,
    pub config: StackConfig,
    /// Root seed and provenance digest of the warm-up campaign.
    pub warm_root: u64,
    pub warm_digest: u64,
}

/// One campaign on a fresh engine (campaign keys ignore the root seed, so
/// a reused engine would keep stale scenarios).
fn run_campaign(fleet: &CampaignFleet, root: u64) -> CampaignReport {
    let engine = fleet
        .config
        .engine(Arc::clone(&fleet.model), fleet.registry.clone());
    CampaignRunner::new(&engine)
        .with_workers(CAMPAIGN_WORKERS)
        .run(&campaign_spec(root))
}

/// Builds the shared model and registry and runs a warm-up campaign at
/// root `seed`, whose digest the final check reproduces.
fn campaign_fleet(seed: u64, model: Arc<dyn LanguageModel>) -> Result<CampaignFleet, String> {
    let mut fleet = CampaignFleet {
        model,
        registry: catalog::standard_registry(),
        config: campaign_config(),
        warm_root: seed,
        warm_digest: 0,
    };
    let warm = run_campaign(&fleet, seed);
    if warm.scorecard.failed > 0 || warm.registration.mismatched > 0 {
        return Err(format!(
            "warm-up campaign: {} failed, {} mismatched registrations",
            warm.scorecard.failed, warm.registration.mismatched
        ));
    }
    fleet.warm_digest = provenance_digest(&warm);
    Ok(fleet)
}

impl CampaignFleet {
    /// Runs campaigns at roots `seed + first`, `seed + first + 1`, … until
    /// `deadline`. Returns the tally and the next unused iteration.
    pub fn serve(
        &self,
        seed: u64,
        first: u64,
        deadline: Instant,
        tracer: Option<&Tracer>,
    ) -> (Tally, u64) {
        let mut tally = Tally::default();
        let mut digests: Vec<u64> = vec![self.warm_digest];
        let mut i = first;
        while Instant::now() < deadline {
            let root = seed.wrapping_add(i);
            i += 1;
            let start = Instant::now();
            let outcome = match tracer {
                None => {
                    let report = run_campaign(self, root);
                    let digest = provenance_digest(&report);
                    let failed = report.scorecard.failed as u64;
                    (
                        report.scorecard.queries as u64,
                        failed,
                        report.registration.mismatched,
                        digest,
                    )
                }
                Some(tracer) => self.traced_campaign(tracer, root, &mut tally),
            };
            tally.sample(start);
            let (queries, failed, mismatched, digest) = outcome;
            tally.attempted += queries;
            tally.failed += failed + mismatched as u64;
            // A campaign at a new root must not repeat an earlier one's
            // provenance: equal digests mean stale scenarios were served.
            if digests.contains(&digest) {
                tally.mismatched += queries;
                tally.failed += queries;
            }
            digests.push(digest);
        }
        (tally, i)
    }

    /// Reruns the warm-up root on a fresh engine: its provenance must
    /// reproduce bit for bit.
    pub fn recheck(&self) -> bool {
        provenance_digest(&run_campaign(self, self.warm_root)) == self.warm_digest
    }

    /// `CampaignRunner::run` made one layer at a time: timed blueprint
    /// registration, then every scenario-query served through the traced
    /// stack by the same number of workers, each on a contiguous slice of
    /// the task list. Returns `(queries, failed, mismatched, digest)`;
    /// the digest covers the registered scenarios' content.
    fn traced_campaign(
        &self,
        tracer: &Tracer,
        root: u64,
        tally: &mut Tally,
    ) -> (u64, u64, usize, u64) {
        tracer.span("campaign.run", &root.to_string(), || {
            let engine = self
                .config
                .engine(Arc::clone(&self.model), self.registry.clone());
            let spec = campaign_spec(root);
            let mut digest = FNV_SEED;
            let mut tasks: Vec<(String, &str, QueryContext)> = Vec::new();
            for ensemble in &spec.ensembles {
                for draw in ensemble.expand() {
                    let prefix = format!("{}/d{}", ensemble.family.id(), draw.draw);
                    let fleet = tracer.span("scenario_forge.register", &prefix, || {
                        engine.register_blueprints(&prefix, &draw.blueprints)
                    });
                    for registered in fleet {
                        let hash = registered.scenario.content_hash();
                        digest = fnv(digest, &hash.to_le_bytes());
                        let context = context_of(&registered.scenario);
                        for query in &spec.queries {
                            tasks.push((registered.key.clone(), query, context.clone()));
                        }
                    }
                }
            }
            tally.add(
                "scenario_forge.worlds_generated",
                engine.world_cache().generations() as f64,
            );
            let parent = Tracer::current();
            let (engine, config) = (&engine, &self.config);
            let parts: Vec<Tally> = std::thread::scope(|scope| {
                let handles: Vec<_> = tasks
                    .chunks(tasks.len().div_ceil(CAMPAIGN_WORKERS).max(1))
                    .map(|slice| {
                        scope.spawn(move || {
                            let mut part = Tally::default();
                            for (key, query, context) in slice {
                                let recorder = Arc::new(Recorder::new());
                                let result = tracer.span_under(parent, "query", key, || {
                                    run_traced(
                                        tracer, engine, config, key, query, context, &recorder,
                                    )
                                });
                                match &result {
                                    Ok(served) => {
                                        part.count_layers(served, &recorder, config.record);
                                        let health = &served.report.health;
                                        if matches!(health, RunHealth::Failed { .. }) {
                                            part.failed += 1;
                                        }
                                    }
                                    Err(_) => part.failed += 1,
                                }
                            }
                            part
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("campaign worker panicked"))
                    .collect()
            });
            let mut failed = 0;
            for part in parts {
                failed += part.failed;
                for (name, value) in part.layer {
                    tally.add(name, value);
                }
            }
            let mismatched = engine.registration_stats().mismatched;
            (tasks.len() as u64, failed, mismatched, digest)
        })
    }
}

/// A prepared workload: everything set-up builds before the clock starts.
pub enum Prepared {
    Queries(Box<QueryFleet>),
    Campaigns(CampaignFleet),
}

/// Set-up: engine construction, world generation, scenario registration
/// and the warm-up queries.
pub fn prepare(
    workload: Workload,
    seed: u64,
    model: Arc<dyn LanguageModel>,
) -> Result<Prepared, String> {
    match workload {
        Workload::CampaignCold => campaign_fleet(seed, model).map(Prepared::Campaigns),
        _ => query_fleet(workload, seed, model).map(|fleet| Prepared::Queries(Box::new(fleet))),
    }
}

pub fn plain_model() -> Arc<dyn LanguageModel> {
    Arc::new(DeterministicExpertModel::new())
}
