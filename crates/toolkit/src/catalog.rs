//! The standard catalog: every measurement function ArachNet can compose,
//! across the four frameworks plus utility and QA entries, declared once.
//!
//! Each function is one row of a static table: its id, framework,
//! capability sentence, typed params, output format, cost class,
//! reliability, tags and constraints — the curated "measurement API" the
//! agents plan against (§3 of the paper, "Registry: Measurement
//! Capability Encoding") — and the handler that runs it on the
//! substrates. [`standard_registry`] maps the rows to registry entries;
//! the [`StandardRuntime`] finds a row by id and calls its handler, which
//! reads its arguments through an accessor that only knows the row's
//! declared params and stamps results with the row's output format.

use std::collections::BTreeMap;

use llm::protocol::QueryContext;
use net_model::{CableId, Region, SimDuration, SimTime, TimeWindow};
use registry::CostClass::{self, Cheap, Expensive, Moderate};
use registry::{CapabilityEntry, DataFormat as F, Param, Registry};
use workflow::{ToolError, Value};
use world::{Scenario, World};

use bgp_sim::{
    detect_moas_conflicts_indexed, detect_update_bursts, detect_valley_violations, BgpSimulator,
    MoasConflict, UpdateWindow, ValleyViolation,
};
use nautilus_sim::{DependencyTable, MappingTable};
use traceroute_sim::TracerouteSimulator;
use xaminer_sim::{CascadeConfig, FailureEvent, FailureImpact};

use crate::analysis;
use crate::data::*;
use crate::disasters;
use crate::runtime::{view_of, Args, StandardRuntime};

/// One catalog row: a function's registry declaration and its handler.
pub(crate) struct Tool {
    pub(crate) id: &'static str,
    framework: &'static str,
    capability: &'static str,
    /// Required params, by name and format.
    pub(crate) params: &'static [(&'static str, F)],
    pub(crate) output: F,
    cost: CostClass,
    reliability: f64,
    tags: &'static [&'static str],
    constraints: &'static [&'static str],
    /// Runs the function in a runtime, reading the call's arguments
    /// through the row's declared params.
    pub(crate) handler: fn(&StandardRuntime, &Args<'_>) -> Result<Value, ToolError>,
}

impl Tool {
    fn entry(&self) -> CapabilityEntry {
        let inputs =
            self.params.iter().map(|&(name, format)| Param::required(name, format)).collect();
        let entry =
            CapabilityEntry::new(self.id, self.framework, self.capability, inputs, self.output)
                .with_cost(self.cost)
                .with_reliability(self.reliability)
                .with_tags(self.tags);
        self.constraints.iter().fold(entry, |entry, c| entry.with_constraint(c))
    }
}

/// The row for function `id`. The table is sorted by id.
pub(crate) fn tool(id: &str) -> Option<&'static Tool> {
    TOOLS.binary_search_by(|t| t.id.cmp(id)).ok().map(|i| &TOOLS[i])
}

/// Builds the standard registry.
pub fn standard_registry() -> Registry {
    registry_of(TOOLS.iter())
}

/// A registry with some functions withheld — case study 1's controlled
/// setup ("we provide the agent with only core Nautilus system functions.
/// We withhold Xaminer's higher-level abstractions").
pub fn restricted_registry(withhold: &[&str]) -> Registry {
    registry_of(TOOLS.iter().filter(|t| !withhold.contains(&t.id)))
}

fn registry_of<'a>(tools: impl Iterator<Item = &'a Tool>) -> Registry {
    let mut r = Registry::new();
    for t in tools {
        #[expect(clippy::expect_used, reason = "catalog ids are unique, and a test pins it")]
        r.register(t.entry()).expect("catalog ids are unique");
    }
    r
}

/// Builds the query context (entity-grounding knowledge) for a scenario.
pub fn query_context(world: &World, now: net_model::SimTime, horizon_days: i64) -> QueryContext {
    QueryContext {
        cable_names: world.cables.iter().map(|c| c.name.clone()).collect(),
        now: now.seconds_since_epoch(),
        horizon_days,
    }
}

/// Every catalog function, sorted by id.
pub(crate) static TOOLS: &[Tool] = &[
    // --- BGP ---------------------------------------------------------------
    Tool {
        id: "bgp.detect_bursts",
        framework: "bgp",
        capability: "detects statistically significant bursts in a BGP update stream",
        params: &[("updates", F::BgpUpdates), ("window", F::TimeWindow)],
        output: F::BgpBursts,
        cost: Moderate,
        reliability: 0.9,
        tags: &["bgp", "anomaly", "burst", "churn", "non-critical"],
        constraints: &[],
        handler: |_, args| {
            let updates = args.view::<UpdateWindow>("updates")?;
            let window = args.de::<WindowArg>("window")?.to_window();
            let hours = (window.duration().as_seconds() / 3600).clamp(24, 400) as usize;
            args.out_seq(detect_update_bursts(&updates, window, hours, 3.0))
        },
    },
    Tool {
        id: "bgp.detect_moas",
        framework: "bgp",
        capability: "detects MOAS conflicts: prefixes announced by more than one origin AS, against the baseline RIB",
        params: &[("updates", F::BgpUpdates)],
        output: F::MoasConflicts,
        cost: Moderate,
        reliability: 0.9,
        tags: &["bgp", "moas", "hijack", "origin", "control-plane", "non-critical"],
        constraints: &["needs the baseline RIB; the stream alone misses silent vantage points"],
        handler: |rt, args| {
            let updates = args.view::<UpdateWindow>("updates")?;
            let observed = rt.observation_value()?;
            let observed = view_of::<UpdateWindow>(&observed, "bgp observation")?;
            let baseline = observed.observation().baseline_origins();
            args.out_seq(detect_moas_conflicts_indexed(&updates, baseline))
        },
    },
    Tool {
        id: "bgp.reachability_losses",
        framework: "bgp",
        capability: "lists (peer, prefix) pairs withdrawn and never re-announced",
        params: &[("updates", F::BgpUpdates)],
        output: F::Table,
        cost: Cheap,
        reliability: 0.9,
        tags: &["bgp", "reachability", "withdrawal"],
        constraints: &[],
        handler: |_, args| {
            let updates = args.view::<UpdateWindow>("updates")?;
            let rows: Vec<serde_json::Value> = bgp_sim::reachability_losses(&updates)
                .into_iter()
                .map(|(peer, prefix, t)| {
                    serde_json::json!({
                        "peer": peer.0,
                        "prefix": prefix.to_string(),
                        "withdrawn_at": t.0,
                    })
                })
                .collect();
            args.out_json(serde_json::Value::Array(rows))
        },
    },
    Tool {
        id: "bgp.rib_snapshot",
        framework: "bgp",
        capability: "captures a RIB snapshot at the end of a time window",
        params: &[("window", F::TimeWindow)],
        output: F::RibSnapshot,
        cost: Expensive,
        reliability: 0.95,
        tags: &["bgp", "rib", "snapshot"],
        constraints: &[],
        handler: |rt, args| {
            let w = args.de::<WindowArg>("window")?;
            let scenario = rt.scenario();
            let sim = BgpSimulator::new(scenario);
            let peers: Vec<net_model::Asn> = sim.collectors().iter().take(10).copied().collect();
            args.out(bgp_sim::RibSnapshot::capture(scenario, &peers, w.to_window().end))
        },
    },
    Tool {
        id: "bgp.updates",
        framework: "bgp",
        capability: "fetches the BGP update stream from route collectors for a time window",
        params: &[("window", F::TimeWindow)],
        output: F::BgpUpdates,
        cost: Expensive,
        reliability: 0.95,
        tags: &["bgp", "routing", "updates", "collector"],
        constraints: &[],
        // A narrower window over the cached observation's `Arc`d stream:
        // two binary searches, no copy.
        handler: |rt, args| {
            let window = args.de::<WindowArg>("window")?.to_window();
            let observed = rt.observation_value()?;
            let observed = view_of::<UpdateWindow>(&observed, "bgp observation")?;
            let updates = observed.within(window);
            let empty = updates.is_empty();
            args.out_native(updates, empty)
        },
    },
    Tool {
        id: "bgp.valley_violations",
        framework: "bgp",
        capability: "detects announced AS paths violating the valley-free export rule, with the pivot AS attributed",
        params: &[("updates", F::BgpUpdates)],
        output: F::ValleyViolations,
        cost: Moderate,
        reliability: 0.9,
        tags: &["bgp", "valley", "export", "control-plane", "non-critical"],
        constraints: &["paths are checked against the scenario's reference topology"],
        handler: |rt, args| {
            let updates = args.view::<UpdateWindow>("updates")?;
            // Reference topology: the scenario's quiet start, whose
            // adjacency set is a superset of every later instant's. The
            // cached observation's derivation built it as its start state.
            let observed = rt.observation_value()?;
            let observed = view_of::<UpdateWindow>(&observed, "bgp observation")?;
            let Some(graph) = observed.observation().start_graph() else {
                return Err(args.fail("bgp observation has no start graph".to_string()));
            };
            args.out_seq(detect_valley_violations(&updates, graph))
        },
    },
    // --- Nautilus: cross-layer cartography --------------------------------
    Tool {
        id: "nautilus.cable_dependencies",
        framework: "nautilus",
        capability: "extracts the links, ASes and countries depending on one cable",
        params: &[("deps", F::DependencyTable), ("cable", F::CableRef)],
        output: F::CableDependencies,
        cost: Cheap,
        reliability: 0.9,
        tags: &["cable", "dependency", "extract"],
        constraints: &[],
        handler: |_, args| {
            let deps = args.view::<DependencyTable>("deps")?;
            let cable = args.de::<CableRefData>("cable")?;
            args.out(deps.for_cable(CableId(cable.id)))
        },
    },
    Tool {
        id: "nautilus.dependency_table",
        framework: "nautilus",
        capability: "builds the cable to links/ASes/countries dependency view from a mapping",
        params: &[("mapping", F::MappingTable)],
        output: F::DependencyTable,
        cost: Cheap,
        reliability: 0.9,
        tags: &["cable", "dependency", "cross-layer"],
        constraints: &[],
        handler: |rt, args| {
            let mapping = args.view::<MappingTable>("mapping")?;
            args.out(DependencyTable::from_mapping(rt.world(), &mapping, 0.2))
        },
    },
    Tool {
        id: "nautilus.map_links",
        framework: "nautilus",
        capability: "maps IP links to submarine cables with confidence scores",
        params: &[],
        output: F::MappingTable,
        cost: Expensive,
        reliability: 0.85,
        tags: &["cable", "mapping", "cross-layer", "submarine"],
        constraints: &["inference quality depends on geolocation accuracy"],
        handler: |rt, _| rt.mapping_value(),
    },
    Tool {
        id: "nautilus.resolve_cable",
        framework: "nautilus",
        capability: "resolves a cable system by name in the cartography catalog",
        params: &[("cable_name", F::Text)],
        output: F::CableRef,
        cost: Cheap,
        reliability: 0.99,
        tags: &["cable", "lookup", "name"],
        constraints: &[],
        handler: |rt, args| {
            let name = args.de::<String>("cable_name")?;
            let cable = rt.world().cable_by_name(&name).ok_or_else(|| {
                args.fail(format!("cable {name:?} not found in the cartography catalog"))
            })?;
            args.out(CableRefData { id: cable.id.0, name: cable.name.clone() })
        },
    },
    // --- QA --------------------------------------------------------------------
    Tool {
        id: "qa.verify_output",
        framework: "qa",
        capability: "verifies a final result: structural integrity, emptiness, basic plausibility",
        params: &[("value", F::Any)],
        output: F::QaReport,
        cost: Cheap,
        reliability: 0.99,
        tags: &["qa", "verify", "sanity"],
        constraints: &[],
        handler: |_, args| {
            let value = args.value("value")?;
            let mut checks = vec!["non-null".to_string()];
            let mut notes = Vec::new();
            // Native artifacts are never null; only JSON payloads need the
            // projection inspected.
            let mut passed = value.is_native() || !value.json().is_null();
            if value.is_empty_payload() {
                passed = false;
                notes.push("result payload is empty".to_string());
            } else {
                checks.push("non-empty".to_string());
            }
            checks.push(format!("declared format {}", value.format));
            args.out(QaData { passed, checks, notes })
        },
    },
    // --- Traceroute ----------------------------------------------------------
    Tool {
        id: "traceroute.campaign",
        framework: "traceroute",
        capability: "runs a probe campaign from one region's probes to another region's destinations over a time window",
        params: &[
            ("src_region", F::RegionScope),
            ("dst_region", F::RegionScope),
            ("window", F::TimeWindow),
        ],
        output: F::TracerouteCampaign,
        cost: Expensive,
        reliability: 0.85,
        tags: &["traceroute", "probe", "campaign", "latency", "paris"],
        constraints: &["probe coverage follows the platform's regional density"],
        handler: |rt, args| {
            let src = args.region("src_region")?;
            let dst = args.region("dst_region")?;
            let w = args.de::<WindowArg>("window")?;
            let key = format!("campaign:{src:?}:{dst:?}:{}:{}", w.start, w.end);
            rt.cached(rt.artifacts(), &key, || {
                args.out(run_campaign(rt.scenario(), src, dst, w.to_window()))
            })
        },
    },
    Tool {
        id: "traceroute.detect_anomaly",
        framework: "traceroute",
        capability: "detects latency anomalies against a statistical baseline, attributing affected probe/destination pairs",
        params: &[("campaign", F::TracerouteCampaign)],
        output: F::AnomalyReport,
        cost: Moderate,
        reliability: 0.85,
        tags: &["anomaly", "latency", "baseline", "statistics", "non-critical"],
        constraints: &["needs several baseline buckets before the anomaly"],
        handler: |_, args| {
            let campaign = args.view::<CampaignData>("campaign")?;
            args.out(analysis::detect_anomaly(&campaign))
        },
    },
    Tool {
        id: "traceroute.rtt_series",
        framework: "traceroute",
        capability: "buckets a campaign into a mean RTT time series",
        params: &[("campaign", F::TracerouteCampaign)],
        output: F::RttSeries,
        cost: Cheap,
        reliability: 0.95,
        tags: &["rtt", "series", "latency"],
        constraints: &[],
        handler: |_, args| {
            let campaign = args.view::<CampaignData>("campaign")?;
            args.out(analysis::rtt_series(&campaign, 6 * 3600))
        },
    },
    // --- Utility (integration / translation layer) ---------------------------
    Tool {
        id: "util.attribute_control_plane",
        framework: "util",
        capability: "attributes a control-plane incident (prefix hijack vs route leak) and identifies the offending AS",
        params: &[("moas", F::MoasConflicts), ("valleys", F::ValleyViolations)],
        output: F::ControlPlaneReport,
        cost: Cheap,
        reliability: 0.9,
        tags: &["hijack", "attribution", "control-plane", "offender", "confidence"],
        constraints: &[],
        handler: |rt, args| {
            let moas = args.view::<Vec<MoasConflict>>("moas")?;
            let valleys = args.view::<Vec<ValleyViolation>>("valleys")?;
            let legit: BTreeMap<String, u32> =
                rt.world().prefixes.iter().map(|p| (p.net.to_string(), p.origin.0)).collect();
            args.out(analysis::attribute_control_plane(&moas, &valleys, &legit))
        },
    },
    Tool {
        id: "util.build_timeline",
        framework: "util",
        capability: "fuses cascade rounds, routing bursts and latency anomalies into one multi-layer timeline",
        params: &[
            ("cascade", F::CascadeTimeline),
            ("bursts", F::BgpBursts),
            ("anomaly", F::AnomalyReport),
        ],
        output: F::UnifiedTimeline,
        cost: Cheap,
        reliability: 0.9,
        tags: &["timeline", "synthesis", "cross-layer", "unified"],
        constraints: &[],
        handler: |rt, args| {
            let cascade = args.view::<xaminer_sim::CascadeTimeline>("cascade")?;
            let bursts = args.view::<Vec<bgp_sim::UpdateBurst>>("bursts")?;
            let anomaly = args.view::<AnomalyData>("anomaly")?;
            // Anchor cascade offsets at the first observed event (or the
            // horizon start for pure what-if analyses).
            let scenario = rt.scenario();
            let anchor =
                scenario.timeline().first().map(|(t, _)| *t).unwrap_or(scenario.horizon.start);
            let mut cascade_events: Vec<(i64, String, String)> = Vec::new();
            for round in &cascade.rounds {
                let t = (anchor + round.at_offset).0;
                if !round.newly_failed_links.is_empty() {
                    cascade_events.push((
                        t,
                        if round.round == 0 { "cable".into() } else { "ip".into() },
                        format!(
                            "round {}: {} link(s) failed",
                            round.round,
                            round.newly_failed_links.len()
                        ),
                    ));
                }
                if !round.newly_degraded_ases.is_empty() {
                    cascade_events.push((
                        t,
                        "as".into(),
                        format!(
                            "round {}: {} AS(es) degraded",
                            round.round,
                            round.newly_degraded_ases.len()
                        ),
                    ));
                }
            }
            let burst_times: Vec<i64> = bursts.iter().map(|b| b.window.start.0).collect();
            args.out(analysis::build_timeline(&cascade_events, &burst_times, &anomaly))
        },
    },
    Tool {
        id: "util.cable_failure_event",
        framework: "util",
        capability: "builds a full-cable failure event from a resolved cable",
        params: &[("cable", F::CableRef)],
        output: F::FailureEventSpec,
        cost: Cheap,
        reliability: 0.99,
        tags: &["event", "cable", "translate"],
        constraints: &[],
        handler: |_, args| {
            let cable = args.de::<CableRefData>("cable")?;
            args.out(FailureEvent::CableFailure { cable: CableId(cable.id) })
        },
    },
    Tool {
        id: "util.combine_impact_tables",
        framework: "util",
        capability: "combines two country impact tables (independent-event composition of scores)",
        params: &[("a", F::CountryImpactTable), ("b", F::CountryImpactTable)],
        output: F::CountryImpactTable,
        cost: Cheap,
        reliability: 0.95,
        tags: &["combine", "merge", "impact", "aggregate"],
        constraints: &[],
        handler: |_, args| {
            let a = args.view::<CountryTableData>("a")?;
            let b = args.view::<CountryTableData>("b")?;
            args.out(combine_tables(&a, &b))
        },
    },
    Tool {
        id: "util.compile_disasters",
        framework: "util",
        capability: "compiles disaster kinds and a failure probability into concrete events over the global hazard catalog",
        params: &[("disasters", F::DisasterSpecs), ("failure_probability", F::Scalar)],
        output: F::FailureEventSpec,
        cost: Cheap,
        reliability: 0.9,
        tags: &["disaster", "earthquake", "hurricane", "what-if", "compile"],
        constraints: &[],
        handler: |_, args| {
            #[derive(serde::Deserialize)]
            struct Kind {
                kind: String,
            }
            let kinds = args.de::<Vec<Kind>>("disasters")?;
            let p = args.de::<f64>("failure_probability")?;
            let kinds: Vec<String> = kinds.into_iter().map(|k| k.kind).collect();
            let specs = disasters::compile(&kinds, p);
            if specs.is_empty() {
                return Err(args.fail(format!("no hazard zones match kinds {kinds:?}")));
            }
            args.out(FailureEvent::Compound(specs.into_iter().map(FailureEvent::Disaster).collect()))
        },
    },
    Tool {
        id: "util.correlate_evidence",
        framework: "util",
        capability: "temporally correlates BGP bursts with a latency anomaly onset",
        params: &[("bursts", F::BgpBursts), ("anomaly", F::AnomalyReport)],
        output: F::CorrelationReport,
        cost: Cheap,
        reliability: 0.9,
        tags: &["correlate", "temporal", "evidence", "validation"],
        constraints: &[],
        handler: |_, args| {
            let bursts = args.view::<Vec<bgp_sim::UpdateBurst>>("bursts")?;
            let anomaly = args.view::<AnomalyData>("anomaly")?;
            let times: Vec<i64> = bursts.iter().map(|b| b.window.start.0).collect();
            args.out(analysis::correlate(&times, bursts.len(), &anomaly))
        },
    },
    Tool {
        id: "util.corridor_failure_event",
        framework: "util",
        capability: "builds a compound failure of the main cable systems connecting two regions",
        params: &[("src_region", F::RegionScope), ("dst_region", F::RegionScope)],
        output: F::FailureEventSpec,
        cost: Cheap,
        reliability: 0.9,
        tags: &["corridor", "region", "cable", "compound"],
        constraints: &[],
        handler: |rt, args| {
            let src = args.region("src_region")?;
            let dst = args.region("dst_region")?;
            let cables = corridor_cables(rt.world(), src, dst, 3);
            if cables.is_empty() {
                return Err(args.fail(format!("no cable systems connect {src} and {dst}")));
            }
            let failures = cables.into_iter().map(|cable| FailureEvent::CableFailure { cable });
            args.out(FailureEvent::Compound(failures.collect()))
        },
    },
    Tool {
        id: "util.score_suspect_cables",
        framework: "util",
        capability: "ranks candidate cables by their presence in anomaly-affected paths, weighted by latency deltas",
        params: &[("anomaly", F::AnomalyReport), ("deps", F::DependencyTable)],
        output: F::SuspectRanking,
        cost: Moderate,
        reliability: 0.85,
        tags: &["forensic", "suspect", "cable", "score", "rank"],
        constraints: &[],
        handler: |rt, args| {
            let anomaly = args.view::<AnomalyData>("anomaly")?;
            let deps = args.view::<DependencyTable>("deps")?;
            let mut cable_links: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            let mut names: BTreeMap<u32, String> = BTreeMap::new();
            for cable in deps.cables() {
                let entry = deps.for_cable(cable);
                cable_links.insert(cable.0, entry.links.iter().map(|l| l.0).collect());
                names.insert(cable.0, rt.world().cable(cable).name.clone());
            }
            args.out(analysis::score_suspects(&anomaly, &cable_links, &names))
        },
    },
    Tool {
        id: "util.synthesize_verdict",
        framework: "util",
        capability: "synthesizes suspect ranking and temporal correlation into a causal verdict with confidence",
        params: &[
            ("suspects", F::SuspectRanking),
            ("correlation", F::CorrelationReport),
            ("anomaly", F::AnomalyReport),
        ],
        output: F::ForensicVerdict,
        cost: Cheap,
        reliability: 0.9,
        tags: &["forensic", "verdict", "synthesis", "causation", "confidence"],
        constraints: &[],
        handler: |_, args| {
            let suspects = args.view::<SuspectData>("suspects")?;
            let correlation = args.view::<CorrelationData>("correlation")?;
            let anomaly = args.view::<AnomalyData>("anomaly")?;
            args.out(analysis::synthesize_verdict(&suspects, &correlation, &anomaly))
        },
    },
    // --- Xaminer: resilience analysis --------------------------------------
    Tool {
        id: "xaminer.cascade",
        framework: "xaminer",
        capability: "propagates an initial failure through load redistribution into a cascade timeline",
        params: &[("impact", F::FailureImpact)],
        output: F::CascadeTimeline,
        cost: Expensive,
        reliability: 0.8,
        tags: &["cascade", "propagation", "load"],
        constraints: &["assumes the documented base-load and overload thresholds"],
        handler: |rt, args| {
            let impact = args.view::<FailureImpact>("impact")?;
            let config = CascadeConfig { base_load: 0.75, ..CascadeConfig::default() };
            args.out(xaminer_sim::cascade::propagate(rt.world(), &impact, &config))
        },
    },
    Tool {
        id: "xaminer.control_plane_impact",
        framework: "xaminer",
        capability: "quantifies which ASes and countries an attributed control-plane incident misdirects",
        params: &[("report", F::ControlPlaneReport)],
        output: F::CountryImpactTable,
        cost: Moderate,
        reliability: 0.9,
        tags: &["hijack", "impact", "control-plane", "country", "misdirection"],
        constraints: &["assessed against the world's quiet topology"],
        handler: |rt, args| {
            let report = args.view::<ControlPlaneReportData>("report")?;
            args.out(control_plane_impact_table(rt.world(), &report))
        },
    },
    Tool {
        id: "xaminer.country_aggregate",
        framework: "xaminer",
        capability: "extracts the ranked country-level impact table from an impact report",
        params: &[("report", F::ImpactReport)],
        output: F::CountryImpactTable,
        cost: Cheap,
        reliability: 0.95,
        tags: &["country", "aggregate", "geographic", "table"],
        constraints: &[],
        handler: |_, args| {
            let report = args.view::<xaminer_sim::ImpactReport>("report")?;
            args.out(country_table(&report))
        },
    },
    Tool {
        id: "xaminer.event_impact",
        framework: "xaminer",
        capability: "end-to-end event processing: failure events straight to a country impact table using the current cross-layer mapping",
        params: &[("event", F::FailureEventSpec)],
        output: F::CountryImpactTable,
        cost: Moderate,
        reliability: 0.9,
        tags: &["event", "impact", "country", "high-level"],
        constraints: &["uses the framework's default dependency mapping"],
        handler: |rt, args| {
            let event = args.view::<FailureEvent>("event")?;
            let deps = rt.default_deps_value()?;
            let deps = view_of::<DependencyTable>(&deps, "default deps")?;
            let failure = xaminer_sim::process_event(rt.world(), &deps, &event);
            args.out(country_table(&xaminer_sim::impact::aggregate(rt.world(), &failure)))
        },
    },
    Tool {
        id: "xaminer.impact_report",
        framework: "xaminer",
        capability: "aggregates a failure impact into normalized per-country and per-AS metrics",
        params: &[("impact", F::FailureImpact)],
        output: F::ImpactReport,
        cost: Cheap,
        reliability: 0.95,
        tags: &["impact", "metrics", "aggregate"],
        constraints: &[],
        handler: |rt, args| {
            let impact = args.view::<FailureImpact>("impact")?;
            args.out(xaminer_sim::impact::aggregate(rt.world(), &impact))
        },
    },
    Tool {
        id: "xaminer.process_event",
        framework: "xaminer",
        capability: "processes a failure event (cable, segment or disaster) into failed links and affected entities",
        params: &[("event", F::FailureEventSpec), ("deps", F::DependencyTable)],
        output: F::FailureImpact,
        cost: Moderate,
        reliability: 0.92,
        tags: &["failure", "event", "impact", "core"],
        constraints: &["handles every event family through one interface"],
        handler: |rt, args| {
            let event = args.view::<FailureEvent>("event")?;
            let deps = args.view::<DependencyTable>("deps")?;
            args.out(xaminer_sim::process_event(rt.world(), &deps, &event))
        },
    },
    Tool {
        id: "xaminer.risk_profiles",
        framework: "xaminer",
        capability: "profiles each country's dependency concentration over cable systems",
        params: &[("deps", F::DependencyTable)],
        output: F::RiskProfiles,
        cost: Moderate,
        reliability: 0.9,
        tags: &["risk", "resilience", "concentration", "country"],
        constraints: &[],
        handler: |rt, args| {
            let deps = args.view::<DependencyTable>("deps")?;
            args.out_seq(xaminer_sim::risk::all_risk_profiles(rt.world(), &deps))
        },
    },
];

/// A `TimeWindow` argument as the query side writes it.
#[derive(serde::Deserialize)]
struct WindowArg {
    start: i64,
    end: i64,
}

impl WindowArg {
    fn to_window(&self) -> TimeWindow {
        TimeWindow::new(SimTime(self.start), SimTime(self.end))
    }
}

/// Combines two country tables: counts add, scores compose as independent
/// events (`1 − (1−a)(1−b)`), rows re-sort by score.
fn combine_tables(a: &CountryTableData, b: &CountryTableData) -> CountryTableData {
    let mut by_country: BTreeMap<String, CountryRow> = BTreeMap::new();
    for row in a.rows.iter().chain(&b.rows) {
        match by_country.get_mut(&row.country) {
            None => {
                by_country.insert(row.country.clone(), row.clone());
            }
            Some(acc) => {
                acc.ips_affected += row.ips_affected;
                acc.links_affected += row.links_affected;
                acc.ases_affected = acc.ases_affected.max(row.ases_affected);
                acc.as_links_affected += row.as_links_affected;
                acc.impact_score = 1.0 - (1.0 - acc.impact_score) * (1.0 - row.impact_score);
            }
        }
    }
    let mut rows: Vec<CountryRow> = by_country.into_values().collect();
    rows.sort_by(|x, y| {
        y.impact_score.total_cmp(&x.impact_score).then(x.country.cmp(&y.country))
    });
    CountryTableData { rows }
}

/// Builds the country-level impact table for an attributed control-plane
/// incident: per country, how many of its registered ASes are
/// misdirected (hijack capture cone) or path-shifted (leak), scored by
/// that fraction. Physical columns (IPs/links) are zero — nothing fails.
fn control_plane_impact_table(
    world: &world::World,
    report: &ControlPlaneReportData,
) -> CountryTableData {
    use xaminer_sim::ControlPlaneIncident;
    let Some(offender) = report.offender else {
        return CountryTableData { rows: Vec::new() };
    };
    let offender = net_model::Asn(offender);
    let incidents: Vec<ControlPlaneIncident> = match report.kind.as_str() {
        "prefix-hijack" => report
            .victim_prefixes
            .iter()
            .filter_map(|p| net_model::Ipv4Net::parse(p).ok())
            .map(|net| ControlPlaneIncident::PrefixHijack {
                origin: offender,
                victim_prefix: net,
            })
            .collect(),
        "route-leak" => vec![ControlPlaneIncident::RouteLeak { leaker: offender }],
        _ => Vec::new(),
    };

    let mut affected: BTreeMap<net_model::Country, std::collections::BTreeSet<net_model::Asn>> =
        BTreeMap::new();
    for impact in xaminer_sim::control_plane::assess_many(world, &incidents) {
        for asn in impact.affected_ases {
            if let Some(info) = world.as_info(asn) {
                affected.entry(info.country).or_default().insert(asn);
            }
        }
    }

    let mut rows: Vec<CountryRow> = affected
        .into_iter()
        .map(|(country, ases)| {
            let total = world.as_count_in_country(country).max(1);
            CountryRow {
                country: country.code().to_string(),
                ips_affected: 0,
                links_affected: 0,
                ases_affected: ases.len(),
                as_links_affected: 0,
                impact_score: (ases.len() as f64 / total as f64).min(1.0),
            }
        })
        .collect();
    rows.sort_by(|x, y| {
        y.impact_score.total_cmp(&x.impact_score).then(x.country.cmp(&y.country))
    });
    CountryTableData { rows }
}

/// Converts an impact report into the country table schema.
fn country_table(report: &xaminer_sim::ImpactReport) -> CountryTableData {
    CountryTableData {
        rows: report
            .per_country
            .iter()
            .map(|c| CountryRow {
                country: c.country.code().to_string(),
                ips_affected: c.ips_affected,
                links_affected: c.links_affected,
                ases_affected: c.ases_affected,
                as_links_affected: c.as_links_affected,
                impact_score: c.impact_score,
            })
            .collect(),
    }
}

/// The main cable systems connecting two regions, by dependent-link count.
fn corridor_cables(
    world: &world::World,
    src: Region,
    dst: Region,
    limit: usize,
) -> Vec<CableId> {
    let mut scored: Vec<(usize, CableId)> = world
        .cables
        .iter()
        .filter(|c| {
            let regions: Vec<Region> =
                c.landings.iter().map(|&l| world.city(l).region).collect();
            regions.contains(&src) && regions.contains(&dst)
        })
        .map(|c| (world.links_on_cable(c.id).len(), c.id))
        .filter(|(n, _)| *n > 0)
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(limit).map(|(_, c)| c).collect()
}

/// A campaign's measurement grid in measurement order: up to 16 probes
/// from `src`, up to 12 access-AS destinations in `dst`, two Paris flows
/// per pair.
fn campaign_grid(
    world: &World,
    src: Region,
    dst: Region,
) -> Vec<(net_model::ProbeId, net_model::Ipv4Addr, u16)> {
    let all_probes: Vec<&world::Probe> =
        world.probes.iter().filter(|p| p.region == src).collect();
    let step = (all_probes.len() / 16).max(1);
    let probes: Vec<&world::Probe> = all_probes.iter().step_by(step).take(16).copied().collect();

    let all_dests: Vec<net_model::Ipv4Addr> = world
        .prefixes
        .iter()
        .filter(|p| {
            world
                .as_info(p.origin)
                .map(|a| a.region == dst && a.tier == world::AsTier::Access)
                == Some(true)
        })
        .map(|p| p.net.host(1))
        .collect();
    let dstep = (all_dests.len() / 12).max(1);
    let dests: Vec<net_model::Ipv4Addr> =
        all_dests.iter().step_by(dstep).take(12).copied().collect();

    probes
        .iter()
        .flat_map(|p| dests.iter().flat_map(move |&d| [(p.id, d, 0u16), (p.id, d, 1)]))
        .collect()
}

/// Runs a probe campaign over [`campaign_grid`], sampled every 8 hours.
/// The flow sweep broadens link coverage (MDA-style), which the forensic
/// suspect scoring depends on.
fn run_campaign(
    scenario: &Scenario,
    src: Region,
    dst: Region,
    window: TimeWindow,
) -> CampaignData {
    let sim = TracerouteSimulator::new(scenario);
    let grid = campaign_grid(&scenario.world, src, dst);
    let interval = SimDuration::hours(8);
    let mut measurements = Vec::new();
    // The grid's forwarding paths, derived once per interval of constant
    // link and routing state: only the RTT draws vary within one.
    let (mut fwds, mut fwds_interval) = (Vec::new(), None);
    let mut t = window.start;
    while t < window.end {
        let state = sim.interval(t);
        if fwds_interval != Some(state) {
            fwds = grid
                .iter()
                .map(|&(probe, dest, flow)| {
                    traceroute_sim::path::forwarding_path(&sim, probe, dest, t, flow)
                })
                .collect();
            fwds_interval = Some(state);
        }
        for (&(probe, dest, flow), fwd) in grid.iter().zip(&fwds) {
            let trace = traceroute_sim::rtt::execute(&sim, probe, dest, t, flow, fwd);
            measurements.push(MeasurementData {
                probe: probe.0,
                dst: dest.to_string(),
                time: t.0,
                rtt_ms: trace.end_to_end_rtt(),
                links: fwd.steps.iter().map(|s| s.link.0).collect(),
            });
        }
        t = t + interval;
    }

    CampaignData {
        src_region: src.name().to_string(),
        dst_region: dst.name().to_string(),
        window_start: window.start.0,
        window_end: window.end.0,
        interval_s: interval.as_seconds(),
        measurements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_by_unique_id() {
        for pair in TOOLS.windows(2) {
            assert!(pair[0].id < pair[1].id, "{} must sort before {}", pair[0].id, pair[1].id);
        }
        for t in TOOLS {
            assert!(std::ptr::eq(tool(t.id).expect("every row is found"), t), "{}", t.id);
            assert!(t.id.starts_with(t.framework), "{} is filed under {}", t.id, t.framework);
        }
        assert!(tool("frobnicate.all").is_none());
        assert_eq!(standard_registry().len(), TOOLS.len());
    }

    #[test]
    fn catalog_has_all_frameworks() {
        let r = standard_registry();
        let fw = r.frameworks();
        for expected in ["nautilus", "xaminer", "bgp", "traceroute", "util", "qa"] {
            assert!(fw.contains(&expected.to_string()), "missing {expected}");
        }
        assert!(r.len() >= 22, "catalog size {}", r.len());
    }

    #[test]
    fn restricted_registry_withholds() {
        let r = restricted_registry(&["xaminer.event_impact"]);
        assert!(!r.contains(&registry::FunctionId::from("xaminer.event_impact")));
        assert!(r.contains(&registry::FunctionId::from("xaminer.process_event")));
        assert_eq!(r.len(), standard_registry().len() - 1);
    }

    #[test]
    fn search_finds_forensic_functions() {
        let r = standard_registry();
        let hits = r.search("rank suspect cables forensic", 3);
        assert_eq!(hits[0].entry.id.0, "util.score_suspect_cables");
    }

    #[test]
    fn context_contains_cable_names() {
        let world = crate::scenarios::standard_world();
        let ctx = query_context(&world, net_model::SimTime(86_400), 10);
        assert!(ctx.cable_names.iter().any(|n| n == "SeaMeWe-5"));
        assert_eq!(ctx.now, 86_400);
    }

    /// The campaign loop with no path sharing: one forwarding path and
    /// one RTT draw per measurement.
    fn reference_campaign(scenario: &Scenario, window: TimeWindow) -> Vec<MeasurementData> {
        let sim = TracerouteSimulator::new(scenario);
        let grid = campaign_grid(&scenario.world, Region::Europe, Region::Asia);
        let mut measurements = Vec::new();
        let mut t = window.start;
        while t < window.end {
            for &(probe, dest, flow) in &grid {
                let fwd = traceroute_sim::path::forwarding_path(&sim, probe, dest, t, flow);
                let trace = traceroute_sim::rtt::execute(&sim, probe, dest, t, flow, &fwd);
                measurements.push(MeasurementData {
                    probe: probe.0,
                    dst: dest.to_string(),
                    time: t.0,
                    rtt_ms: trace.end_to_end_rtt(),
                    links: fwd.links().iter().map(|l| l.0).collect(),
                });
            }
            t = t + SimDuration::hours(8);
        }
        measurements
    }

    #[test]
    fn campaign_matches_the_per_measurement_loop() {
        use workflow::ToolRuntime;
        // CS3 (two cuts ten hours apart), CS4, and a SeaMeWe-4 cut that
        // lasts one second, on the campaign's 8-hour sample grid.
        let world = crate::scenarios::standard_world();
        let cable = world.cable_by_name(crate::scenarios::CS4_CULPRIT).expect("curated").id;
        let blip = SimTime::EPOCH + SimDuration::hours(8 * 15);
        let mut one_second = Scenario::quiet(world, 10);
        one_second.push_event(
            world::EventKind::CableCut { cable },
            blip,
            Some(blip + SimDuration::seconds(1)),
        );
        let scenarios = [
            crate::scenarios::cs3_scenario(),
            crate::scenarios::cs4_scenario(),
            one_second.clone(),
        ];
        for scenario in scenarios {
            let window = scenario.horizon;
            let args = BTreeMap::from([
                ("src_region".to_string(), Value::new(F::RegionScope, serde_json::json!("Europe"))),
                ("dst_region".to_string(), Value::new(F::RegionScope, serde_json::json!("Asia"))),
                (
                    "window".to_string(),
                    Value::new(
                        F::TimeWindow,
                        serde_json::json!({ "start": window.start.0, "end": window.end.0 }),
                    ),
                ),
            ]);
            let campaign: CampaignData = StandardRuntime::new(scenario.clone())
                .invoke(&registry::FunctionId::from("traceroute.campaign"), &args)
                .expect("the campaign serves")
                .parse()
                .expect("a campaign");
            assert_eq!(campaign.measurements, reference_campaign(&scenario, window));
        }
        // The one-second cut moves paths at its sample only.
        let reference = reference_campaign(&one_second, one_second.horizon);
        let links_at = |t: SimTime| -> Vec<&[u32]> {
            reference.iter().filter(|m| m.time == t.0).map(|m| m.links.as_slice()).collect()
        };
        let before = links_at(blip - SimDuration::hours(8));
        assert_ne!(links_at(blip), before, "the cut reroutes some of the grid");
        assert_eq!(links_at(blip + SimDuration::hours(8)), before);
    }
}
