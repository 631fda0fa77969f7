//! Bench trajectory: plain wall-clock medians for the substrate and
//! serving hot paths, written as `BENCH_pr10.json` at the repo root (and
//! uploaded as a CI artifact alongside the committed `BENCH_pr2.json`
//! through `BENCH_pr9.json`).
//!
//! ```text
//! cargo run --release -p benchkit --bin bench_report            # repo root
//! cargo run --release -p benchkit --bin bench_report -- out.json
//! ```
//!
//! Unlike the criterion benches (statistical, interactive), this is the
//! cheap comparable record each PR leaves behind: one JSON file with a
//! median per hot path. Benchmark ids are stable across PRs — `BENCH_pr7`
//! repeats every earlier row:
//!
//! * `workflow/exec_dag` — the parallel DAG executor on a fan-out
//!   workload, max workers vs 1 worker (measured in-tree, like the
//!   routing row measures the retained seed engine);
//! * `engine/concurrent_sessions` — N identical queries served end-to-end
//!   (generate + execute) through engine sessions over one shared
//!   scenario, max session threads vs 1 (rebaselined in PR 6: PR 5's
//!   world-keyed artifact stores erased the old cold-store-per-query
//!   baseline — both arms now share the mapping run, so that contrast
//!   reads ~1.0 everywhere — and the contrast that remains in-tree is
//!   thread scaling);
//! * `world/generate_cold` / `world/generate_cached` — one full world
//!   generation vs a content-addressed cache hit on the same config;
//! * `forge/register_family_fleet` — registering every scenario family's
//!   fleet through `Engine::register_family` (worlds deduplicated by the
//!   process-wide cache) vs realizing the same fleet with one cold
//!   generation per scenario;
//! * `bgp/derive_updates_hijack` — the full update-stream derivation for
//!   a control-plane (prefix hijack) scenario: topology-identical
//!   boundaries that the policy-aware memoization must still capture;
//! * `toolkit/mapping_shared_world` — serving the Nautilus mapping
//!   artifact to N scenarios sharing one world through the world-keyed
//!   store vs recomputing the mapping run per scenario (the pre-PR-5
//!   behaviour);
//! * `engine/chaos_overhead` — the `workflow/exec_dag` workload executed
//!   through a `ChaosRuntime` with an *empty* fault plan vs the bare
//!   runtime: the pass-through tax of the injection layer, which the
//!   PR 7 acceptance pins at ≤2% (speedup ≈ 1.0);
//! * `engine/degraded_session` — the CS5 forensics query served with
//!   `bgp.valley_violations` persistently failed (run completes
//!   `Degraded`, skipping the poisoned attribution work) vs the same
//!   query served healthy;
//! * `forge/campaign_10k` — a full campaign (every base family plus both
//!   composed families, ~1k scenario-queries) expanded, registered and
//!   served through `CampaignRunner` at max workers vs the same campaign
//!   at 1 worker;
//! * `engine/telemetry_overhead` — the `workflow/exec_dag` workload with
//!   a fresh `telemetry::Recorder` attached to the executor (every
//!   attempt buffered, spans assembled in the fold) vs the untraced run:
//!   the recording tax, which the PR 9 acceptance pins at ≤2%;
//! * `workflow/trace_export` — serializing a recorded trace to both
//!   canonical JSON and the Chrome `trace_event` format;
//! * `conformance/scan_workspace` — the parallel conformance scanner
//!   (lex + item tree + all rules + crate graph) over the whole
//!   workspace at per-CPU workers vs the serial scan. Both arms scan
//!   cold: the scanner keeps no cache between scans.

// conformance: allow(no-wall-clock, reason = "the bench report exists to measure wall time")
use std::time::Instant;

use serde_json::{json, Value};
use workflow::ToolRuntime;
use world::{generate, Scenario, WorldConfig};

/// Median wall-clock milliseconds over `iters` runs of `f` (plus one
/// untimed warmup).
fn median_ms<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            // conformance: allow(no-wall-clock, reason = "median_ms samples the clock being benchmarked")
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn bench(id: &str, median: f64) -> Value {
    json!({ "id": id, "median_ms": median })
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| {
        // The binary lives in crates/bench; the trajectory file lives at
        // the repo root.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr10.json").to_string()
    });

    let world = generate(&WorldConfig::default());
    let scenario = Scenario::quiet(world, 10);
    let world = &scenario.world;
    let mut benchmarks: Vec<Value> = Vec::new();

    // --- BGP full routing table: dense engine vs retained seed engine ---
    let graph = bgp_sim::AsGraph::at_time(&scenario, net_model::SimTime::EPOCH);
    let dense = median_ms(15, || {
        let g = bgp_sim::AsGraph::at_time(&scenario, net_model::SimTime::EPOCH);
        bgp_sim::RoutingTable::compute(&g, world).reachable_from(world.ases[0].asn)
    });
    let reference = median_ms(7, || {
        let g = bgp_sim::AsGraph::at_time(&scenario, net_model::SimTime::EPOCH);
        bgp_sim::routing::reference::compute(&g, world).len()
    });
    benchmarks.push(json!({
        "id": "substrates/bgp/full_routing_table",
        "median_ms": dense,
        "baseline": "seed BTreeMap engine (bgp_sim::routing::reference)",
        "baseline_median_ms": reference,
        "speedup": reference / dense,
    }));

    // --- Xaminer: oracle impact report for a major cable failure --------
    let engine = xaminer_sim::XaminerEngine::oracle(world);
    let cable = world.cable_by_name("SeaMeWe-5").expect("curated cable").id;
    benchmarks.push(bench(
        "substrates/xaminer/impact_report",
        median_ms(25, || {
            engine
                .impact_report(&xaminer_sim::FailureEvent::CableFailure { cable })
                .total_links
        }),
    ));

    // --- Registry: E5-style search against a padded registry ------------
    let registry = benchkit::padded_registry(400);
    let queries = [
        "map submarine cables",
        "process failure event impact",
        "bgp updates for a time window",
        "country level impact table",
    ];
    benchmarks.push(bench(
        "registry/search_400_entries",
        median_ms(50, || {
            queries.iter().map(|q| registry.search(q, 10).len()).sum::<usize>()
        }),
    ));

    // --- World: cross-layer index lookups (Xaminer/toolkit hot loops) ---
    let countries: Vec<net_model::Country> =
        world.ases.iter().map(|a| a.country).collect();
    benchmarks.push(bench(
        "world/cross_layer_lookups",
        median_ms(50, || {
            let mut acc = 0usize;
            for c in &world.cables {
                acc += world.links_on_cable_ref(c.id).len();
                acc += world.cable_by_name(&c.name).map(|c| c.landings.len()).unwrap_or(0);
            }
            for &c in &countries {
                acc += world.as_count_in_country(c);
            }
            acc
        }),
    ));

    // --- RIB capture: routing + per-(peer, origin) path materialization -
    let peers: Vec<net_model::Asn> =
        world.ases.iter().take(40).map(|a| a.asn).collect();
    benchmarks.push(bench(
        "substrates/bgp/rib_capture_40_peers",
        median_ms(7, || {
            bgp_sim::RibSnapshot::capture(&scenario, &peers, net_model::SimTime::EPOCH)
                .entries
                .len()
        }),
    ));

    // --- PR 3: parallel DAG executor, max workers vs 1 ------------------
    // Exercise at least 4 workers even on small containers so the
    // concurrent paths are the thing being measured; on a single-CPU box
    // the speedup honestly reads ~1.0 and CI's multi-core run shows the
    // real scaling.
    let max_workers = workflow::exec::default_workers().max(4);
    let (dag_registry, dag_workflow) = benchkit::exec_dag_workload(24);
    let busy = benchkit::BusyRuntime { rounds: 400_000 };
    let dag_args = std::collections::BTreeMap::new();
    let dag_seq = median_ms(9, || {
        workflow::execute_with(
            &dag_workflow, &dag_registry, &busy, &dag_args,
            &workflow::ExecOptions { workers: 1, ..Default::default() },
        )
        .executed
    });
    // The parallel arm doubles as the baseline for the chaos- and
    // telemetry-overhead rows below, where the acceptance threshold is
    // a couple of percent — sample it (and them) hard enough that
    // scheduler jitter stays under the threshold being measured.
    let dag_par = median_ms(21, || {
        workflow::execute_with(
            &dag_workflow, &dag_registry, &busy, &dag_args,
            &workflow::ExecOptions { workers: max_workers, ..Default::default() },
        )
        .executed
    });
    benchmarks.push(json!({
        "id": "workflow/exec_dag",
        "median_ms": dag_par,
        "baseline": "same DAG at 1 worker",
        "baseline_median_ms": dag_seq,
        "workers": max_workers,
        "speedup": dag_seq / dag_par,
    }));

    // --- PR 7: chaos pass-through tax ------------------------------------
    // The same DAG workload routed through a ChaosRuntime with an empty
    // fault plan: every invocation pays the plan lookup + counter bump
    // and nothing else. The acceptance pins this at ≤2% over the bare
    // runtime (`workflow/exec_dag` parallel arm above).
    let chaotic = arachnet::ChaosRuntime::new(
        benchkit::BusyRuntime { rounds: 400_000 },
        arachnet::FaultPlan::empty(),
    );
    let dag_chaos = median_ms(21, || {
        workflow::execute_with(
            &dag_workflow, &dag_registry, &chaotic, &dag_args,
            &workflow::ExecOptions { workers: max_workers, ..Default::default() },
        )
        .executed
    });
    benchmarks.push(json!({
        "id": "engine/chaos_overhead",
        "median_ms": dag_chaos,
        "baseline": "the same DAG on the bare runtime (workflow/exec_dag)",
        "baseline_median_ms": dag_par,
        "workers": max_workers,
        "overhead_pct": (dag_chaos / dag_par - 1.0) * 100.0,
        "speedup": dag_par / dag_chaos,
    }));

    // --- PR 9: telemetry recording tax ------------------------------------
    // The same DAG workload with a fresh Recorder attached: every
    // invocation's events buffer through the recorder and the fold
    // assembles the span tree. The acceptance pins this at ≤2% over the
    // untraced parallel arm.
    let dag_traced = median_ms(21, || {
        let recorder = std::sync::Arc::new(arachnet::Recorder::new());
        workflow::execute_with(
            &dag_workflow, &dag_registry, &busy, &dag_args,
            &workflow::ExecOptions {
                workers: max_workers,
                recorder: Some(std::sync::Arc::clone(&recorder)),
                ..Default::default()
            },
        )
        .executed
    });
    benchmarks.push(json!({
        "id": "engine/telemetry_overhead",
        "median_ms": dag_traced,
        "baseline": "the same DAG untraced (workflow/exec_dag)",
        "baseline_median_ms": dag_par,
        "workers": max_workers,
        "overhead_pct": (dag_traced / dag_par - 1.0) * 100.0,
        "speedup": dag_par / dag_traced,
    }));

    // --- PR 9: trace exporters --------------------------------------------
    // One recorded DAG execution serialized to both export formats:
    // canonical JSON (the byte-stable artifact provenance records hash)
    // and the Chrome trace_event form.
    let export_recorder = std::sync::Arc::new(arachnet::Recorder::new());
    workflow::execute_with(
        &dag_workflow, &dag_registry, &busy, &dag_args,
        &workflow::ExecOptions {
            workers: max_workers,
            recorder: Some(std::sync::Arc::clone(&export_recorder)),
            ..Default::default()
        },
    );
    let export_spans = export_recorder.trace().spans.len();
    benchmarks.push(json!({
        "id": "workflow/trace_export",
        "median_ms": median_ms(50, || {
            export_recorder.trace_json().len() + export_recorder.chrome_trace().len()
        }),
        "spans": export_spans,
    }));

    // --- PR 3 (rebaselined in PR 6): concurrent serving sessions ---------
    // N identical queries (generate + execute) through engine sessions
    // over one shared scenario. The old baseline — a cold private
    // artifact store per query — stopped existing in PR 5: world-keyed
    // stores share the mapping run across *any* registrations of the
    // same world, so batch-of-one vs shared read ~1.0 on every machine.
    // The contrast that remains in-tree is thread scaling: the same
    // shared-store load at 1 session thread vs max-worker sessions.
    // Like `workflow/exec_dag`, a single-CPU box honestly reads ~1.0 and
    // CI's multi-core run shows the real scaling.
    let serve_queries = 8usize;
    let serve_query = "Identify the impact at a country level due to SeaMeWe-5 cable failure";
    let serve_shared_seq = median_ms(3, || {
        benchkit::serve_sessions(&scenario, serve_query, serve_queries, true, 1)
    });
    let serve_shared_par = median_ms(3, || {
        benchkit::serve_sessions(&scenario, serve_query, serve_queries, true, max_workers)
    });
    benchmarks.push(json!({
        "id": "engine/concurrent_sessions",
        "median_ms": serve_shared_par,
        "baseline": "same shared-store load at 1 session thread",
        "baseline_median_ms": serve_shared_seq,
        "queries": serve_queries,
        "session_threads": max_workers,
        "speedup": serve_shared_seq / serve_shared_par,
    }));

    // --- PR 4: content-addressed world cache -----------------------------
    // One full world generation (the serving stack's cold-start cost)
    // vs a cache hit on the same config: the hit is an Arc bump behind a
    // short map lock, so N scenarios naming one config pay one build.
    let world_config = WorldConfig::default();
    let generate_cold = median_ms(5, || generate(&world_config).links.len());
    let world_cache = arachnet::WorldCache::new();
    world_cache.get_or_generate(&world_config); // warm the slot
    let generate_cached =
        median_ms(200, || world_cache.get_or_generate(&world_config).links.len());
    benchmarks.push(bench("world/generate_cold", generate_cold));
    benchmarks.push(json!({
        "id": "world/generate_cached",
        "median_ms": generate_cached,
        "baseline": "one full world generation (world/generate_cold)",
        "baseline_median_ms": generate_cold,
        "speedup": generate_cold / generate_cached,
    }));

    // --- PR 4: whole-fleet registration through Engine::register_family --
    // Every family's fleet in one call, worlds deduplicated through the
    // engine's cache; the baseline realizes the same blueprints with one
    // cold generation per scenario (what scenario authoring cost before
    // the forge).
    let fleet_params = arachnet::FamilyParams::default();
    let fleet_size: usize =
        arachnet::Family::ALL.iter().map(|f| f.expand(&fleet_params).len()).sum();
    // Registry and model construction stay outside the timed closure —
    // only engine setup + fleet registration is the path under test.
    let fleet_model = std::sync::Arc::new(llm::DeterministicExpertModel::new());
    let fleet_registry = benchkit::padded_registry(40);
    let fleet_cached = median_ms(3, || {
        let engine = arachnet::Engine::new(
            std::sync::Arc::clone(&fleet_model) as std::sync::Arc<dyn llm::LanguageModel>,
            fleet_registry.clone(),
        );
        engine.register_families(&arachnet::Family::ALL, &fleet_params).len()
    });
    let fleet_cold = median_ms(1, || {
        arachnet::Family::ALL
            .iter()
            .flat_map(|f| f.expand(&fleet_params))
            .map(|bp| {
                bp.realize(std::sync::Arc::new(generate(&bp.config))).events.len()
            })
            .sum::<usize>()
    });
    let family_count = arachnet::Family::ALL.len();
    benchmarks.push(json!({
        "id": "forge/register_family_fleet",
        "median_ms": fleet_cached,
        "baseline": "one cold world generation per scenario (no cache)",
        "baseline_median_ms": fleet_cold,
        "scenarios": fleet_size,
        "families": family_count,
        "speedup": fleet_cold / fleet_cached,
    }));

    // --- PR 5: control-plane incident derivation --------------------------
    // The full update stream for a prefix-hijack scenario: every event
    // boundary is topology-identical, so the policy-aware memoization
    // (not `same_topology` alone) decides the captures.
    let hijack_victim = world.prefixes[0];
    let hijack_origin = world
        .ases
        .iter()
        .map(|a| a.asn)
        .find(|&a| a != hijack_victim.origin)
        .expect("another AS exists");
    let hijack_scenario = world::Scenario::quiet(scenario.world_handle(), 10).with_event(
        world::EventKind::PrefixHijack {
            origin: hijack_origin,
            victim_prefix: hijack_victim.net,
        },
        net_model::SimTime(5 * 86_400),
    );
    let hijack_peers: Vec<net_model::Asn> =
        world.ases.iter().take(40).map(|a| a.asn).collect();
    benchmarks.push(bench(
        "bgp/derive_updates_hijack",
        median_ms(7, || {
            bgp_sim::updates::derive_updates(&hijack_scenario, &hijack_peers).len()
        }),
    ));

    // --- PR 5: world-keyed mapping artifacts ------------------------------
    // N scenarios over one Arc<World>: the world-keyed store serves one
    // mapping run to all of them; the baseline recomputes the Nautilus
    // mapping per scenario (what per-scenario-key stores used to do).
    let mapping_scenarios = 4usize;
    let mapping_shared = median_ms(9, || {
        let mut served = 0usize;
        for _ in 0..mapping_scenarios {
            let rt = toolkit::StandardRuntime::new(world::Scenario::quiet(
                scenario.world_handle(),
                10,
            ));
            let map = std::collections::BTreeMap::new();
            let value = rt
                .invoke(&registry::FunctionId::from("nautilus.map_links"), &map)
                .expect("mapping serves");
            served += usize::from(value.is_native());
        }
        served
    });
    let mapping_cold = median_ms(3, || {
        (0..mapping_scenarios)
            .map(|_| {
                nautilus_sim::NautilusMapper::new(nautilus_sim::MappingConfig::default())
                    .map_world(world)
                    .mappings
                    .len()
            })
            .sum::<usize>()
    });
    benchmarks.push(json!({
        "id": "toolkit/mapping_shared_world",
        "median_ms": mapping_shared,
        "baseline": "one Nautilus mapping run per scenario (per-scenario-key artifact stores)",
        "baseline_median_ms": mapping_cold,
        "scenarios": mapping_scenarios,
        "speedup": mapping_cold / mapping_shared,
    }));

    // --- PR 7: degraded serving ------------------------------------------
    // The CS5 forensics query with `bgp.valley_violations` persistently
    // failed: the run completes Degraded — the poisoned attribution and
    // impact steps are skipped, so the degraded path is *cheaper* than
    // the healthy one, never slower. The baseline serves the same query
    // healthy (empty fault plan).
    let cs5 = toolkit::scenarios::cs5_hijack_scenario();
    let serve_cs5 = |plan: arachnet::FaultPlan| {
        let engine = arachnet::Engine::new(
            std::sync::Arc::clone(&fleet_model) as std::sync::Arc<dyn llm::LanguageModel>,
            toolkit::catalog::standard_registry(),
        )
        .with_fault_plan(plan);
        engine.register_scenario("cs5", cs5.clone());
        let session = engine.session("cs5").expect("cs5 registered");
        let scenario = session.scenario();
        let horizon_days = scenario.horizon.duration().as_seconds() / 86_400;
        let context = toolkit::catalog::query_context(&scenario.world, scenario.now, horizon_days);
        let run = session
            .run(toolkit::scenarios::CS5_QUERY, &context)
            .expect("query serves");
        run.report.executed
    };
    let degraded_plan = arachnet::FaultPlan::new(7)
        .with_fault("bgp.valley_violations", arachnet::FaultKind::Persistent);
    let session_healthy = median_ms(5, || serve_cs5(arachnet::FaultPlan::empty()));
    let session_degraded = median_ms(5, || serve_cs5(degraded_plan.clone()));
    benchmarks.push(json!({
        "id": "engine/degraded_session",
        "median_ms": session_degraded,
        "baseline": "the same CS5 forensics query served healthy (empty fault plan)",
        "baseline_median_ms": session_healthy,
        "speedup": session_healthy / session_degraded,
    }));

    // --- PR 8: fleet-scale campaign serving -------------------------------
    // Every base family plus both composed families expanded through one
    // `CampaignSpec` and served end to end (decompose + plan + execute
    // per query) through the engine's session pool: ~1k scenario-queries
    // per run, worlds deduplicated through the shared cache, outcomes
    // reduced to a `ResilienceScorecard` with a provenance record per
    // query. The baseline is the identical campaign at 1 worker.
    let campaign_params = campaign::FamilyParams::default();
    let mut campaign_ensembles: Vec<campaign::EnsembleSpec> = arachnet::Family::ALL
        .iter()
        .map(|&f| campaign::EnsembleSpec::new(f, campaign_params.clone()))
        .collect();
    campaign_ensembles.extend(
        campaign::ComposedFamily::ALL
            .iter()
            .map(|&f| campaign::EnsembleSpec::new(f, campaign_params.clone())),
    );
    let campaign_scenarios: usize =
        campaign_ensembles.iter().map(|e| e.expand()[0].blueprints.len()).sum();
    // Enough query phrasings that scenarios × queries clears 1k tasks.
    let campaign_queries: Vec<String> = (0..1000usize.div_ceil(campaign_scenarios))
        .map(|i| {
            format!(
                "Case {i}: multiple origin ASes were observed announcing the same \
                 prefixes. Determine whether a prefix hijack or a route leak caused \
                 this, and identify the offending AS."
            )
        })
        .collect();
    let campaign_spec =
        campaign::CampaignSpec::new(campaign_ensembles, campaign_queries);
    // Per-query DAGs run at 1 executor worker here so the campaign-level
    // worker pool is the only parallelism being contrasted — otherwise
    // the two pools oversubscribe each other on small containers.
    let campaign_engine = arachnet::Engine::new(
        std::sync::Arc::clone(&fleet_model) as std::sync::Arc<dyn llm::LanguageModel>,
        toolkit::catalog::standard_registry(),
    )
    .with_exec_workers(1);
    let campaign_tasks = std::cell::Cell::new(0usize);
    let campaign_par = median_ms(3, || {
        let report = campaign::CampaignRunner::new(&campaign_engine)
            .with_workers(max_workers)
            .run(&campaign_spec);
        assert_eq!(report.scorecard.failed, 0, "campaign serves cleanly");
        campaign_tasks.set(report.scorecard.queries);
        report.scorecard.queries
    });
    let campaign_seq = median_ms(1, || {
        campaign::CampaignRunner::new(&campaign_engine)
            .with_workers(1)
            .run(&campaign_spec)
            .scorecard
            .queries
    });
    benchmarks.push(json!({
        "id": "forge/campaign_10k",
        "median_ms": campaign_par,
        "baseline": "the identical campaign served at 1 worker",
        "baseline_median_ms": campaign_seq,
        "scenario_queries": campaign_tasks.get(),
        "scenarios": campaign_scenarios,
        "workers": max_workers,
        "speedup": campaign_seq / campaign_par,
    }));

    // --- PR 10: parallel conformance scan ---------------------------------
    // The whole-workspace conformance scan (file collection, lexing, item
    // trees, every file rule, the crate graph and the workspace rules) at
    // per-CPU workers vs the serial scan. The scan_determinism suite pins
    // the two byte-identical; this row records what the parallelism buys.
    let scan_root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let scan_serial = median_ms(5, || {
        conformance::scan(scan_root).expect("workspace scans").findings.len()
    });
    let scan_par = median_ms(9, || {
        conformance::scan::scan_parallel(scan_root, 0)
            .expect("workspace scans")
            .findings
            .len()
    });
    let scan_workers =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let scan_speedup = scan_serial / scan_par;
    benchmarks.push(json!({
        "id": "conformance/scan_workspace",
        "median_ms": scan_par,
        "baseline": "the same scan run serially",
        "baseline_median_ms": scan_serial,
        "workers": scan_workers,
        "speedup": scan_speedup,
    }));

    let report = json!({
        "pr": 10,
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
