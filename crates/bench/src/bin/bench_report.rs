//! Bench trajectory: the component rows behind the paper's timing claims,
//! written as `BENCH_pr32.json` at the repo root.
//!
//! ```text
//! cargo run --release -p benchkit --bin bench_report            # repo root
//! cargo run --release -p benchkit --bin bench_report -- out.json
//! ```
//!
//! Every row is one entry of [`rows`]: an id, a round count, the measured
//! arm, an optional baseline arm and the row's static fields.
//! [`benchkit::sample`] times a row's arms interleaved, alternating which
//! goes first, and reports nearest-rank p10/median/p90 per arm;
//! `speedup` and `overhead_pct` divide the two medians of the same row.
//! Row ids are stable across PRs, so the `BENCH_pr*.json` files diff.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use arachnet::{ChaosRuntime, Engine, FaultKind, FaultPlan, LanguageModel, Recorder};
use arachnet_repro::{case_study_engine, CaseStudy};
use benchkit::{BusyRuntime, Spread};
use serde_json::{json, Value};
use toolkit::catalog;
use workflow::{ExecOptions, ToolRuntime};
use world::{generate, Scenario, WorldConfig};

type Arm<'a> = Box<dyn FnMut() + 'a>;

fn arm<'a, T>(mut f: impl FnMut() -> T + 'a) -> Arm<'a> {
    Box::new(move || {
        black_box(f());
    })
}

/// One row of the table.
struct Row<'a> {
    id: String,
    rounds: usize,
    measured: Arm<'a>,
    baseline: Option<(&'static str, Arm<'a>)>,
    /// Also report `overhead_pct`: the measured arm's cost over the
    /// baseline's, for pass-through layers pinned near zero.
    overhead: bool,
    fields: BTreeMap<String, Value>,
}

fn row<'a, T>(id: impl Into<String>, rounds: usize, f: impl FnMut() -> T + 'a) -> Row<'a> {
    Row {
        id: id.into(),
        rounds,
        measured: arm(f),
        baseline: None,
        overhead: false,
        fields: BTreeMap::new(),
    }
}

impl<'a> Row<'a> {
    fn vs<T>(mut self, label: &'static str, f: impl FnMut() -> T + 'a) -> Self {
        self.baseline = Some((label, arm(f)));
        self
    }

    fn overhead<T>(self, label: &'static str, f: impl FnMut() -> T + 'a) -> Self {
        Row { overhead: true, ..self.vs(label, f) }
    }

    fn with(mut self, key: &str, value: usize) -> Self {
        self.fields.insert(key.to_string(), json!(value));
        self
    }

    /// What a reader of the row's trajectory should know about its arm.
    fn note(mut self, text: &str) -> Self {
        self.fields.insert("note".to_string(), json!(text));
        self
    }

    /// Samples the row and renders its JSON record.
    fn run(mut self) -> Value {
        let mut out = self.fields;
        out.insert("id".into(), json!(self.id));
        out.insert("rounds".into(), json!(self.rounds));
        let mut put = |prefix: &str, s: Spread| {
            out.insert(format!("{prefix}median_ms"), json!(s.median_ms));
            out.insert(format!("{prefix}p10_ms"), json!(s.p10_ms));
            out.insert(format!("{prefix}p90_ms"), json!(s.p90_ms));
        };
        match self.baseline {
            None => {
                let [m] = benchkit::sample(self.rounds, &mut [&mut *self.measured]);
                put("", m);
            }
            Some((label, mut base)) => {
                let [m, b] =
                    benchkit::sample(self.rounds, &mut [&mut *self.measured, &mut *base]);
                put("", m);
                put("baseline_", b);
                out.insert("baseline".into(), json!(label));
                out.insert("speedup".into(), json!(b.median_ms / m.median_ms));
                if self.overhead {
                    out.insert(
                        "overhead_pct".into(),
                        json!((m.median_ms / b.median_ms - 1.0) * 100.0),
                    );
                }
            }
        }
        Value::Object(out)
    }
}

/// What more than one arm borrows. Everything else a row needs is built
/// in [`rows`] and moved into its arm.
struct Fixtures {
    /// The default world, quiet for ten days.
    scenario: Scenario,
    peers: Vec<net_model::Asn>,
    dag: (registry::Registry, workflow::Workflow),
    busy: BusyRuntime,
    chaotic: ChaosRuntime<BusyRuntime>,
    model: Arc<dyn LanguageModel>,
    fleet_params: arachnet::FamilyParams,
    cs5: Scenario,
    campaign_engine: Engine,
    campaign_spec: campaign::CampaignSpec,
    campaign_scenarios: usize,
}

/// At least 4 workers even on small boxes, so the concurrent paths are
/// what gets measured; a single-CPU box honestly reads ~1.0 there.
#[expect(
    clippy::disallowed_methods,
    reason = "the bench sizes its concurrent callers from the cores"
)]
fn max_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(4, 8)
}

impl Fixtures {
    fn new() -> Fixtures {
        let scenario = Scenario::quiet(generate(&WorldConfig::default()), 10);
        // Every base and composed family, with enough query phrasings that
        // scenarios × queries clears 1k tasks.
        let params = campaign::FamilyParams::default();
        let mut ensembles: Vec<campaign::EnsembleSpec> = arachnet::Family::ALL
            .iter()
            .map(|&f| campaign::EnsembleSpec::new(f, params.clone()))
            .collect();
        ensembles.extend(
            campaign::ComposedFamily::ALL
                .iter()
                .map(|&f| campaign::EnsembleSpec::new(f, params.clone())),
        );
        let campaign_scenarios: usize =
            ensembles.iter().map(|e| e.expand()[0].blueprints.len()).sum();
        let queries = (0..1000usize.div_ceil(campaign_scenarios))
            .map(|i| {
                format!(
                    "Case {i}: multiple origin ASes were observed announcing the same \
                     prefixes. Determine whether a prefix hijack or a route leak caused \
                     this, and identify the offending AS."
                )
            })
            .collect();
        let model: Arc<dyn LanguageModel> = Arc::new(llm::DeterministicExpertModel::new());
        let campaign_engine = Engine::new(Arc::clone(&model), catalog::standard_registry());

        Fixtures {
            peers: scenario.world.ases.iter().take(40).map(|a| a.asn).collect(),
            scenario,
            dag: benchkit::exec_dag_workload(24),
            busy: BusyRuntime { rounds: 400_000 },
            chaotic: ChaosRuntime::new(BusyRuntime { rounds: 400_000 }, FaultPlan::empty()),
            model,
            fleet_params: arachnet::FamilyParams::default(),
            cs5: toolkit::scenarios::cs5_hijack_scenario(),
            campaign_engine,
            campaign_spec: campaign::CampaignSpec::new(ensembles, queries),
            campaign_scenarios,
        }
    }

    fn exec_dag(&self, runtime: &dyn ToolRuntime, recorder: Option<Arc<Recorder>>) -> usize {
        let options = ExecOptions { recorder, ..Default::default() };
        let (registry, workflow) = &self.dag;
        workflow::execute_with(workflow, registry, runtime, &BTreeMap::new(), &options).executed
    }
}

/// The note of the overhead rows, whose ids predate the sequential
/// executor.
const SEQUENTIAL_EXECUTOR: &str = "since BENCH_pr26 both arms run the DAG's steps one after \
    another on the caller's thread; earlier files ran them on a worker pool";

/// The note of the rows whose ids predate routing on the caller's thread.
const CALLERS_THREAD: &str = "since BENCH_pr23 the measured arm computes its routing table on \
    the caller's thread; earlier files shard it across every core";

/// The note of the cold-session rows.
const COLD_SESSION: &str = "a fresh Engine and session each round, so the artifact stores start \
    empty and the Nautilus mapping runs cold; the case studies' standard world is generated once \
    per process and therefore warm";

/// The table. Nothing is timed until a row runs.
fn rows(fx: &Fixtures) -> Vec<Row<'_>> {
    let scenario = &fx.scenario;
    let world = &*scenario.world;
    let workers = max_workers();
    let victim = world.prefixes[0];
    let origin =
        world.ases.iter().map(|a| a.asn).find(|&a| a != victim.origin).expect("another AS");
    let cut_at = net_model::SimTime(5 * 86_400);
    let cable_cut = Scenario::quiet(scenario.world_handle(), 10).with_event(
        world::EventKind::CableCut {
            cable: world.cable_by_name("SeaMeWe-5").expect("curated cable").id,
        },
        cut_at,
    );
    let hijack = Scenario::quiet(scenario.world_handle(), 10).with_event(
        world::EventKind::PrefixHijack { origin, victim_prefix: victim.net },
        net_model::SimTime(5 * 86_400),
    );
    let traced = Arc::new(Recorder::new());
    fx.exec_dag(&fx.busy, Some(Arc::clone(&traced)));
    let spans = traced.trace().spans.len();
    let mapping =
        nautilus_sim::NautilusMapper::new(nautilus_sim::MappingConfig::default()).map_world(world);
    let deps = nautilus_sim::DependencyTable::from_ground_truth(world);
    let cable = world.cable_by_name("SeaMeWe-5").expect("curated cable").id;
    let failure = xaminer_sim::FailureEvent::CableFailure { cable };
    let initial = xaminer_sim::process_event(world, &deps, &failure);
    let cascade = xaminer_sim::CascadeConfig { base_load: 0.75, ..Default::default() };
    let tracer = traceroute_sim::TracerouteSimulator::new(scenario);
    let probe = world.probes[0].id;
    let dst = world.prefixes[100].net.host(1);
    let countries: Vec<net_model::Country> = world.ases.iter().map(|a| a.country).collect();
    let search = ["map submarine cables", "process failure event impact",
        "bgp updates for a time window", "country level impact table"];
    let search_400 = benchkit::padded_registry(400);
    let fleet_registry = benchkit::padded_registry(40);
    let fleet_params = &fx.fleet_params;
    let fleet_size: usize =
        arachnet::Family::ALL.iter().map(|f| f.expand(fleet_params).len()).sum();
    let serve_query = "Identify the impact at a country level due to SeaMeWe-5 cable failure";
    let serve_cs5 = move |plan: FaultPlan| {
        let engine = Engine::new(Arc::clone(&fx.model), catalog::standard_registry())
            .with_fault_plan(plan);
        engine.register_scenario("cs5", fx.cs5.clone());
        let session = engine.session("cs5").expect("cs5 registered");
        let run = session.run(toolkit::scenarios::CS5_QUERY, &session.context());
        run.expect("query serves").report.executed
    };
    let scenario_queries = fx.campaign_scenarios * fx.campaign_spec.queries.len();
    let campaign = move |workers| {
        let report = campaign::CampaignRunner::new(&fx.campaign_engine)
            .with_workers(workers)
            .run(&fx.campaign_spec);
        assert_eq!(report.scorecard.failed, 0, "campaign serves cleanly");
        assert_eq!(report.scorecard.queries, scenario_queries);
        report.scorecard.queries
    };
    // The warm forensic kernels on the case-study inputs a served query
    // hands them: CS4's campaign (built once here, as the artifact store
    // keeps it), CS5's hijack, and a multi-homed leaker.
    let cs4 = toolkit::scenarios::cs4_scenario();
    let cs4_args = baselines::expert::expert_args(4, cs4.horizon.end.0);
    let cs4_campaign_cold = move || {
        toolkit::StandardRuntime::new(cs4.clone())
            .invoke(&registry::FunctionId::from("traceroute.campaign"), &cs4_args)
            .expect("the CS4 campaign serves")
    };
    let cs4_campaign: toolkit::data::CampaignData =
        cs4_campaign_cold().parse().expect("a campaign");
    let cs4_measurements = cs4_campaign.measurements.len();
    let cs5_world = &*fx.cs5.world;
    let (hijacker, hijacked) = toolkit::scenarios::cs5_actors(cs5_world);
    let cs5_hijack = [xaminer_sim::ControlPlaneIncident::PrefixHijack {
        origin: hijacker,
        victim_prefix: hijacked,
    }];
    let quiet = xaminer_sim::control_plane::quiet_graph(world);
    let leaker = world
        .ases
        .iter()
        .map(|a| a.asn)
        .find(|&a| quiet.providers(a).len() >= 2)
        .expect("a multi-homed AS");
    let leak = xaminer_sim::ControlPlaneIncident::RouteLeak { leaker };
    // CS5 and the leak world of perfbench's `fault_drill` at seed 7,
    // world 0. Counting their horizon-wide updates derives (and caches)
    // each one's `bgp.observation`, so the row times warm stores.
    let drill_leak = arachnet::FamilyParams { seed: 7, variants: 1, ..Default::default() };
    let control_plane: Vec<(toolkit::StandardRuntime, workflow::Value)> = [
        fx.cs5.clone(),
        arachnet::Family::AccidentalTransitLeak.expand(&drill_leak)[0]
            .forge(&arachnet::WorldCache::new()),
    ]
    .into_iter()
    .map(|scenario| {
        let horizon = scenario.horizon;
        let window = json!({ "start": horizon.start.0, "end": horizon.end.0 });
        let rt = toolkit::StandardRuntime::new(scenario);
        (rt, workflow::Value::new(registry::DataFormat::TimeWindow, window))
    })
    .collect();
    let control_plane_updates: usize = control_plane
        .iter()
        .map(|(rt, window)| {
            let args = BTreeMap::from([("window".to_string(), window.clone())]);
            let updates = rt.invoke(&registry::FunctionId::from("bgp.updates"), &args);
            updates.expect("updates serve").native_ref::<bgp_sim::UpdateWindow>().map_or(0, |w| w.len())
        })
        .sum();
    // `campaign_cold`'s fleet at root 7: 26 scenarios over 8 worlds,
    // forged here.
    let fleet_cache = arachnet::WorldCache::new();
    let campaign_fleet: Vec<Scenario> = campaign_cold_spec(7)
        .ensembles
        .iter()
        .flat_map(campaign::EnsembleSpec::expand)
        .flat_map(|draw| draw.blueprints)
        .map(|bp| bp.forge(&fleet_cache))
        .collect();
    let (fleet_scenarios, fleet_worlds) = (campaign_fleet.len(), fleet_cache.generations());
    // Whole `campaign_cold` campaigns on a fresh engine each round, so
    // every round's worlds and world artifacts are cold. The arms take
    // alternate roots from a range no other row touches.
    let cold_campaign = move |root: u64, workers: usize| {
        let engine = Engine::new(Arc::clone(&fx.model), catalog::standard_registry());
        let report = campaign::CampaignRunner::new(&engine)
            .with_workers(workers)
            .run(&campaign_cold_spec(root));
        assert_eq!(report.scorecard.failed, 0, "campaign serves cleanly");
        report.scorecard.queries
    };
    let cold_queries = fleet_scenarios * campaign_cold_spec(7).queries.len();

    let mut rows = vec![
        row("substrates/bgp/full_routing_table", 9, move || {
            let g = bgp_sim::AsGraph::at_time(scenario, net_model::SimTime::EPOCH);
            bgp_sim::RoutingTable::compute(&g, world).reachable_from(world.ases[0].asn)
        })
        .vs("seed BTreeMap engine (bgp_sim::routing::reference)", move || {
            let g = bgp_sim::AsGraph::at_time(scenario, net_model::SimTime::EPOCH);
            bgp_sim::routing::reference::compute(&g, world).len()
        })
        .note(CALLERS_THREAD),
        row("substrates/xaminer/impact_report", 25, move || {
            let impact = xaminer_sim::process_event(world, &deps, &failure);
            xaminer_sim::impact::aggregate(world, &impact).total_links
        }),
        row("substrates/xaminer/cascade", 25, move || {
            xaminer_sim::cascade::propagate(world, &initial, &cascade).depth()
        }),
        row("substrates/nautilus/map_world", 7, move || {
            nautilus_sim::NautilusMapper::new(nautilus_sim::MappingConfig::default())
                .map_world(world)
                .mapped_count()
        }),
        row("substrates/nautilus/dependency_table", 25, move || {
            nautilus_sim::DependencyTable::from_mapping(world, &mapping, 0.2).cables().len()
        }),
        row("substrates/traceroute/single_measurement", 51, move || {
            tracer.measure(probe, dst, net_model::SimTime(3600), 0).hops.len()
        }),
        row("registry/search_400_entries", 51, move || {
            search.iter().map(|q| search_400.search(q, 10).len()).sum::<usize>()
        }),
        row("world/cross_layer_lookups", 51, move || {
            let mut acc = 0usize;
            for c in &world.cables {
                acc += world.links_on_cable_ref(c.id).len();
                acc += world.cable_by_name(&c.name).map_or(0, |c| c.landings.len());
            }
            acc + countries.iter().map(|&c| world.as_count_in_country(c)).sum::<usize>()
        }),
        row("substrates/bgp/rib_capture_40_peers", 7, move || {
            bgp_sim::RibSnapshot::capture(scenario, &fx.peers, net_model::SimTime::EPOCH)
                .entries
                .len()
        })
        .note(CALLERS_THREAD),
        // The overhead rows are pinned at a couple of percent, so they
        // take enough rounds that scheduler jitter stays under that.
        row("engine/chaos_overhead", 21, move || fx.exec_dag(&fx.chaotic, None))
            .overhead("the same DAG on the bare runtime", move || fx.exec_dag(&fx.busy, None))
            .note(SEQUENTIAL_EXECUTOR),
        row("engine/telemetry_overhead", 21, move || {
            fx.exec_dag(&fx.busy, Some(Arc::new(Recorder::new())))
        })
        .overhead("the same DAG untraced", move || fx.exec_dag(&fx.busy, None))
        .note(SEQUENTIAL_EXECUTOR),
        row("workflow/trace_export", 51, move || {
            traced.trace_json().len() + traced.chrome_trace().len()
        })
        .with("spans", spans),
        // Each call serves from a fresh engine, so both arms pay one cold
        // mapping run, which the engine's world store then shares across
        // the sessions; the contrast is thread scaling over that store.
        row("engine/concurrent_sessions", 7, move || {
            benchkit::serve_sessions(scenario, serve_query, 8, true, workers)
        })
        .vs("same shared-store load at 1 session thread", move || {
            benchkit::serve_sessions(scenario, serve_query, 8, true, 1)
        })
        .with("queries", 8)
        .with("session_threads", workers),
        row("world/generate_cold", 7, move || generate(&WorldConfig::default()).links.len()),
        row("world/generate_cached", 101, {
            let (cache, config) = (arachnet::WorldCache::new(), WorldConfig::default());
            move || cache.get_or_generate(&config).links.len()
        })
        .vs("one full world generation (world/generate_cold)", move || {
            generate(&WorldConfig::default()).links.len()
        }),
        // Engine setup + fleet registration of cold worlds: every call
        // builds a fresh engine, whose world cache starts empty, so the
        // arm generates each distinct world once. The baseline generates
        // one world per scenario from the same reseeded draws. The model
        // and registry are built outside the arm.
        row("forge/register_family_fleet", 3, {
            let mut draw = 0;
            move || {
                draw += 1;
                Engine::new(Arc::clone(&fx.model), fleet_registry.clone())
                    .register_families(&arachnet::Family::ALL, &fleet_params.reseed(draw))
                    .len()
            }
        })
        .vs("one cold world generation per scenario (no cache)", {
            let mut draw = 0;
            move || {
                draw += 1;
                let params = fleet_params.reseed(draw);
                arachnet::Family::ALL
                    .iter()
                    .flat_map(|f| f.expand(&params))
                    .map(|bp| bp.realize(Arc::new(generate(&bp.config))).events.len())
                    .sum::<usize>()
            }
        })
        .with("scenarios", fleet_size)
        .with("families", arachnet::Family::ALL.len()),
        row("bgp/derive_updates_hijack", 7, move || {
            bgp_sim::updates::derive_updates(&hijack, &fx.peers).len()
        }),
        // The cold bgp work of one `campaign_cold` campaign: one
        // observation per scenario, each on the caller's thread.
        row("bgp/observe_campaign_fleet", 5, move || {
            campaign_fleet
                .iter()
                .map(|s| bgp_sim::BgpSimulator::new(s).observe().updates().len())
                .sum::<usize>()
        })
        .with("scenarios", fleet_scenarios)
        .with("worlds", fleet_worlds),
        // The quiet start and the first instant after a SeaMeWe-5 cut.
        row("bgp/as_graph_at_time", 51, move || {
            [net_model::SimTime::EPOCH, cut_at + net_model::SimDuration::hours(1)]
                .map(|t| bgp_sim::AsGraph::at_time(&cable_cut, t).edge_count())
        }),
        // Four scenarios over one world, registered on a fresh engine each
        // round: its world store runs the mapping once and serves the
        // other three sessions from it.
        row("toolkit/mapping_shared_world", 5, move || {
            let engine = Engine::new(Arc::clone(&fx.model), catalog::standard_registry());
            (0..4)
                .map(|i| {
                    let key = format!("quiet{i}");
                    engine.register_scenario(&key, Scenario::quiet(scenario.world_handle(), 10));
                    let rt = engine.session(&key).expect("registered").runtime();
                    rt.invoke(&registry::FunctionId::from("nautilus.map_links"), &BTreeMap::new())
                        .expect("mapping serves")
                        .is_native()
                })
                .filter(|&native| native)
                .count()
        })
        .vs("one Nautilus mapping run per scenario (per-scenario-key artifact stores)", move || {
            (0..4)
                .map(|_| {
                    nautilus_sim::NautilusMapper::new(nautilus_sim::MappingConfig::default())
                        .map_world(world)
                        .mappings
                        .len()
                })
                .sum::<usize>()
        })
        .with("scenarios", 4),
        // The poisoned attribution steps are skipped, so the degraded run
        // is cheaper than the healthy one, never slower.
        row("engine/degraded_session", 7, move || {
            serve_cs5(FaultPlan::new(7).with_fault("bgp.valley_violations", FaultKind::Persistent))
        })
        .vs("the same CS5 forensics query served healthy (empty fault plan)", move || {
            serve_cs5(FaultPlan::empty())
        }),
        row("forge/campaign_cold", 11, {
            let mut root = 1_000_001;
            move || {
                root += 2;
                cold_campaign(root, 2)
            }
        })
        .vs("the same campaign served at 1 worker", {
            let mut root = 1_000_000;
            move || {
                root += 2;
                cold_campaign(root, 1)
            }
        })
        .with("scenario_queries", cold_queries)
        .with("worlds", fleet_worlds)
        .with("workers", 2),
        row("forge/campaign_10k", 3, move || campaign(workers))
            .vs("the identical campaign served at 1 worker", move || campaign(1))
            .with("scenario_queries", scenario_queries)
            .with("scenarios", fx.campaign_scenarios)
            .with("workers", workers),
        // A fresh runtime each round, so its artifact store holds no
        // campaign: the simulator build and the whole probe grid.
        row("toolkit/traceroute_campaign_cold", 11, cs4_campaign_cold)
            .with("measurements", cs4_measurements),
        row("toolkit/detect_anomaly_cs4", 51, move || {
            toolkit::analysis::detect_anomaly(&cs4_campaign).affected_pairs.len()
        })
        .with("measurements", cs4_measurements),
        // The drill's warm control-plane pair on CS5 and on a drill leak
        // world: `bgp.updates` over the horizon, then `bgp.detect_moas`,
        // both against a warm `bgp.observation`.
        row("toolkit/control_plane_window_warm", 51, move || {
            control_plane.iter().map(|(rt, window)| warm_moas(rt, window)).sum::<usize>()
        })
        .with("updates", control_plane_updates),
        row("xaminer/control_plane_hijack_cs5", 51, move || {
            xaminer_sim::control_plane::assess_many(cs5_world, &cs5_hijack)[0].affected_ases.len()
        }),
        row("xaminer/control_plane_leak", 25, move || {
            xaminer_sim::control_plane::assess(world, &leak).affected_ases.len()
        }),
    ];
    let cs5 = Engine::new(Arc::clone(&fx.model), catalog::standard_registry());
    cs5.register_scenario("cs5", fx.cs5.clone());
    let plans = CaseStudy::ALL
        .iter()
        .map(|&case| (case_study_engine(case), format!("cs{}", case.index()), case.query()))
        .chain([(cs5, "cs5".to_string(), toolkit::scenarios::CS5_QUERY)]);
    for (engine, key, query) in plans {
        let session = engine.session(&key).expect("registered");
        let context = session.context();
        rows.push(row(format!("engine/plan_only/{key}"), 11, move || {
            session.generate(query, &context).expect("generation succeeds").loc
        }));
    }
    for case in [CaseStudy::Cs3CascadingFailure, CaseStudy::Cs4ForensicRca] {
        let key = format!("cs{}", case.index());
        rows.push(
            row(format!("engine/cold_session/{key}"), 11, move || {
                let session = case_study_engine(case).session(&key).expect("registered");
                session.run(case.query(), &session.context()).expect("query serves").report.executed
            })
            .note(COLD_SESSION),
        );
    }
    let case = CaseStudy::Cs1CableImpact;
    let session = case_study_engine(case).session("cs1").expect("registered");
    let context = catalog::query_context(&session.scenario().world, session.scenario().now, 10);
    rows.push(row("engine/ensemble_cs1_x5", 9, move || {
        arachnet::ensemble::generate_ensemble(&session, case.query(), &context, 5)
            .expect("ensemble succeeds")
            .consensus
    }));
    for pad in [0, 100, 400] {
        let registry = benchkit::padded_registry(pad);
        rows.push(row(format!("registry/search_padded_{pad}"), 51, move || {
            registry.search("rank suspect cables by latency evidence", 5).len()
        }));
    }
    rows
}

/// perfbench's `campaign_cold` campaign at `root`: every base and
/// composed family, one variant, two draws, the CS5 and CS1 queries.
fn campaign_cold_spec(root: u64) -> campaign::CampaignSpec {
    let params = campaign::FamilyParams { seed: root, variants: 1, ..Default::default() };
    let base = arachnet::Family::ALL.map(campaign::CampaignFamily::from);
    let composed = campaign::ComposedFamily::ALL.map(campaign::CampaignFamily::from);
    let ensembles = base
        .into_iter()
        .chain(composed)
        .map(|f| campaign::EnsembleSpec::new(f, params.clone()).with_draws(2))
        .collect();
    let queries = [toolkit::scenarios::CS5_QUERY, CaseStudy::Cs1CableImpact.query()];
    campaign::CampaignSpec::new(ensembles, queries.map(String::from).to_vec())
}

/// `bgp.updates` over `window`, then `bgp.detect_moas` on the result:
/// how many conflicts the window shows.
fn warm_moas(rt: &toolkit::StandardRuntime, window: &workflow::Value) -> usize {
    let invoke = |function: &str, name: &str, arg: workflow::Value| {
        let args = BTreeMap::from([(name.to_string(), arg)]);
        rt.invoke(&registry::FunctionId::from(function), &args).expect("bgp serves")
    };
    let updates = invoke("bgp.updates", "window", window.clone());
    let moas = invoke("bgp.detect_moas", "updates", updates);
    moas.native_ref::<Vec<bgp_sim::MoasConflict>>().map_or(0, Vec::len)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| {
        // The binary lives in crates/bench; the trajectory file lives at
        // the repo root.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr32.json").to_string()
    });

    let fx = Fixtures::new();
    let world = &fx.scenario.world;
    let graph = bgp_sim::AsGraph::at_time(&fx.scenario, net_model::SimTime::EPOCH);
    let benchmarks: Vec<Value> = rows(&fx).into_iter().map(Row::run).collect();

    #[expect(clippy::disallowed_methods, reason = "the machine stamp records the core count")]
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let report = json!({
        "pr": 32,
        "machine": { "cpus": cpus, "profile": profile },
        "world": {
            "ases": world.ases.len(),
            "links": world.links.len(),
            "cables": world.cables.len(),
            "prefixes": world.prefixes.len(),
        },
        "graph": { "nodes": graph.node_count(), "edges": graph.edge_count() },
        "benchmarks": benchmarks,
    });

    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, format!("{text}\n")).expect("write bench report");
    println!("{text}");
    eprintln!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Committed row ids whose code went away on purpose.
    /// `workflow/exec_dag` timed the executor's worker pool against one
    /// worker; steps now always run on the caller's thread.
    /// `conformance/scan_workspace` timed the token scanner that clippy's
    /// lint contract replaced.
    const RETIRED: [&str; 2] = ["workflow/exec_dag", "conformance/scan_workspace"];

    #[test]
    fn table_ids_are_unique_and_keep_every_committed_id() {
        let fx = Fixtures::new();
        let ids: Vec<String> = rows(&fx).into_iter().map(|r| r.id).collect();
        let unique: std::collections::BTreeSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate row ids in {ids:?}");

        let committed: Value =
            serde_json::from_str(include_str!("../../../../BENCH_pr10.json")).expect("parses");
        let committed = committed.get("benchmarks").and_then(Value::as_array).expect("rows");
        assert_eq!(committed.len(), 18);
        for entry in committed {
            let id = entry.get("id").and_then(Value::as_str).expect("row id");
            if RETIRED.contains(&id) {
                assert!(!ids.iter().any(|i| i == id), "retired row {id} is back");
                continue;
            }
            assert!(ids.iter().any(|i| i == id), "row {id} dropped from the table");
        }
    }
}
