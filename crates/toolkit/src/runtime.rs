//! The standard tool runtime: dispatches every catalog function onto the
//! substrate crates.
//!
//! Values leave the runtime as **native artifacts** (mapping tables,
//! dependency tables, BGP update streams, impact tables, campaigns) held
//! behind `Arc`s — the Arc-shared [`Value`] model projects them to JSON
//! lazily, only when something actually needs JSON. Arguments come back
//! through [`Value::view`]: zero-copy when the producing step emitted the
//! native type, a JSON deserialization otherwise.
//!
//! Expensive artifacts live in an [`ArtifactStore`] keyed per scenario —
//! shareable across runtimes, sessions and whole engine epochs, exactly
//! as a real deployment caches collector downloads and mapping runs once
//! per dataset, not once per query. A scenario's store holds its probe
//! campaigns and one `bgp.observation`: the update stream, its prefix
//! slot column and the baseline origin sets from a single derivation,
//! held as a [`bgp_sim::UpdateWindow`] over the whole horizon.
//! `bgp.updates` answers with a narrower window over the same `Arc`d
//! stream (two binary searches, no copy), the detectors read a window as
//! a `&[BgpUpdate]`, and `bgp.detect_moas` takes its baseline from the
//! cached observation. Artifacts that depend only on the
//! world (the Nautilus mapping run, the default dependency table) live in
//! a store shared per world ([`world_artifacts`]). Both are
//! [`OnceMap`]s, the workspace's one build-once cache shape, and every
//! probe of either goes through one counted path, so
//! `artifact_cache.hit`/`artifact_cache.miss` see them all.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use net_model::{CableId, Region, SimDuration, SimTime, TimeWindow};
use registry::{DataFormat as F, FunctionId};
use scenario_forge::OnceMap;
use workflow::{ToolError, ToolRuntime, Value, ValueView};
use world::{Scenario, World, WorldConfig};

use bgp_sim::{
    detect_moas_conflicts_indexed, detect_update_bursts, detect_valley_violations, BgpSimulator,
    MoasConflict, UpdateWindow, ValleyViolation,
};
use nautilus_sim::{DependencyTable, MappingConfig, MappingTable, NautilusMapper};
use traceroute_sim::TracerouteSimulator;
use xaminer_sim::{CascadeConfig, FailureEvent, FailureImpact};

use crate::analysis;
use crate::data::*;
use crate::disasters;

/// A concurrent, shareable cache of expensive measurement artifacts,
/// keyed by artifact id: each is built once, and a hit is a pointer bump
/// (the cached [`Value`]s are Arc-shared). Only successes stay cached
/// (see [`OnceMap::try_get_or_init`]). [`StandardRuntime`] is the only
/// builder, so every probe is counted.
#[derive(Default)]
pub struct ArtifactStore {
    slots: OnceMap<String, Result<Value, ToolError>>,
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        ArtifactStore::default()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether an artifact is cached (or being built) under `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.slots.contains(key)
    }
}

/// The process-wide store of **world-level** artifact stores,
/// content-addressed by the world's full [`WorldConfig`] (the same
/// bit-exact identity `scenario_forge::WorldCache` keys worlds by).
///
/// Artifacts that depend only on the world — the Nautilus mapping run,
/// the default dependency table — used to live in the per-*scenario*
/// stores, so scenarios sharing one `Arc<World>` (the whole point of the
/// scenario-forge cache) still recomputed the mapping once per scenario
/// key. Keying them by world content identity finishes the job: any
/// number of scenarios, sessions and engines over one world share one
/// mapping run per process.
pub fn world_artifacts(world: &World) -> Arc<ArtifactStore> {
    // Keyed by the full config (bit-exact `Ord`, the same identity the
    // scenario-forge `WorldCache` uses), not the u64 content hash — a
    // hash collision must not silently alias two worlds' artifacts.
    static STORES: OnceLock<OnceMap<WorldConfig, Arc<ArtifactStore>>> = OnceLock::new();
    STORES.get_or_init(OnceMap::new).get_or_init(&world.config, Arc::default).0
}

/// The standard runtime over one scenario.
pub struct StandardRuntime {
    scenario: Arc<Scenario>,
    /// Scenario-level artifacts (bgp observation, campaigns): shared by
    /// every session of this scenario.
    artifacts: Arc<ArtifactStore>,
    /// World-level artifacts (mapping run, default deps): shared by every
    /// scenario over this world — see [`world_artifacts`].
    world_artifacts: Arc<ArtifactStore>,
    /// Optional telemetry sink: cached-artifact probes become
    /// `artifact_cache.hit` / `artifact_cache.miss` counters. Counters
    /// only — store warmth is process-global and arrival-order dependent,
    /// so cache probes must never enter the (byte-stable) trace.
    recorder: Option<Arc<telemetry::Recorder>>,
}

impl StandardRuntime {
    /// A runtime owning a private scenario-level artifact store (the
    /// world-level store is always the shared, content-addressed one).
    pub fn new(scenario: Scenario) -> Self {
        StandardRuntime::shared(Arc::new(scenario), Arc::new(ArtifactStore::new()))
    }

    /// A runtime over a shared scenario and artifact store — the serving
    /// engine hands every session of a scenario the same store, so
    /// artifacts are computed once across all concurrent sessions.
    pub fn shared(scenario: Arc<Scenario>, artifacts: Arc<ArtifactStore>) -> Self {
        let world_artifacts = world_artifacts(&scenario.world);
        StandardRuntime { scenario, artifacts, world_artifacts, recorder: None }
    }

    /// Attach a telemetry recorder (cache hit/miss counters).
    pub fn with_recorder(mut self, recorder: Arc<telemetry::Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The value cached in `store` under `key`, built (once) on a miss,
    /// with hit/miss accounting: the build closure runs only on a cold
    /// slot, so whether it ran *is* the miss signal.
    fn cached(
        &self,
        store: &ArtifactStore,
        key: &str,
        build: impl FnOnce() -> Result<Value, ToolError>,
    ) -> Result<Value, ToolError> {
        let (result, built) = store.slots.try_get_or_init(key, build);
        if let Some(recorder) = &self.recorder {
            let counter = if built { "artifact_cache.miss" } else { "artifact_cache.hit" };
            recorder.counter_add(counter, 1);
        }
        result
    }

    /// The scenario under measurement.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The scenario-level artifact store backing this runtime.
    pub fn artifacts(&self) -> &Arc<ArtifactStore> {
        &self.artifacts
    }

    /// The world-level artifact store this runtime shares with every
    /// other scenario over the same world.
    pub fn world_artifacts(&self) -> &Arc<ArtifactStore> {
        &self.world_artifacts
    }

    // -- cached artifacts ---------------------------------------------------

    fn mapping_value(&self) -> Result<Value, ToolError> {
        self.cached(&self.world_artifacts, "nautilus.mapping", || {
            let table = NautilusMapper::new(MappingConfig::default())
                .map_world(&self.scenario.world);
            Ok(Value::native(F::MappingTable, table, false))
        })
    }

    fn default_deps_value(&self) -> Result<Value, ToolError> {
        // Derive from the cached mapping artifact — the mapping run is the
        // expensive half and must not be recomputed per dependency table.
        // Both are pure functions of the world, so they live in the
        // world-keyed store.
        let mapping = self.mapping_value()?;
        self.cached(&self.world_artifacts, "nautilus.default_deps", || {
            let m: ValueView<'_, MappingTable> = view_of(&mapping, "cached mapping")?;
            let deps = DependencyTable::from_mapping(&self.scenario.world, &m, 0.2);
            Ok(Value::native(F::DependencyTable, deps, false))
        })
    }

    fn observation_value(&self) -> Result<Value, ToolError> {
        // One derivation per scenario: the full update stream (windowed
        // per call by `bgp.updates`) and the origin sets of the collector
        // RIB at the horizon start (the MOAS detector's baseline — the
        // timeline may start with an incident already active), held as a
        // window over the whole horizon. This artifact never leaves the
        // runtime.
        self.cached(&self.artifacts, "bgp.observation", || {
            let stream = UpdateWindow::new(BgpSimulator::new(&self.scenario).observe());
            let empty = stream.is_empty();
            Ok(Value::native(F::BgpUpdates, stream, empty))
        })
    }
}

// -- argument helpers --------------------------------------------------------

fn need<'a>(
    args: &'a BTreeMap<String, Value>,
    function: &FunctionId,
    name: &str,
) -> Result<&'a Value, ToolError> {
    args.get(name).ok_or_else(|| ToolError::BadArgument {
        function: function.clone(),
        message: format!("missing argument {name}"),
    })
}

/// Views an argument as `T`: zero-copy for native artifacts of that type,
/// JSON deserialization otherwise.
fn view<'a, T: serde::de::DeserializeOwned + 'static>(
    function: &FunctionId,
    name: &str,
    tv: &'a Value,
) -> Result<ValueView<'a, T>, ToolError> {
    tv.view().map_err(|e| ToolError::BadArgument {
        function: function.clone(),
        message: format!("argument {name}: {e}"),
    })
}

/// Parses an argument into an owned `T` via the JSON projection (for
/// small query-side values: windows, names, scalars).
fn de<T: serde::de::DeserializeOwned>(
    function: &FunctionId,
    name: &str,
    tv: &Value,
) -> Result<T, ToolError> {
    T::deserialize_json(tv.json()).map_err(|e| ToolError::BadArgument {
        function: function.clone(),
        message: format!("argument {name}: {e}"),
    })
}

/// Views an internally cached artifact as `T`.
fn view_of<'a, T: serde::de::DeserializeOwned + 'static>(
    tv: &'a Value,
    what: &str,
) -> Result<ValueView<'a, T>, ToolError> {
    tv.view().map_err(|e| ToolError::Failed {
        function: FunctionId::from("internal.cache"),
        message: format!("{what}: {e}"),
        transient: false,
    })
}

/// Wraps a substrate result as a native (non-empty) artifact value.
fn out<T: serde::Serialize + Send + Sync + 'static>(
    format: F,
    value: T,
) -> Result<Value, ToolError> {
    Ok(Value::native(format, value, false))
}

/// Wraps a sequence-shaped result, preserving JSON emptiness semantics.
fn out_seq<T: serde::Serialize + Send + Sync + 'static>(
    format: F,
    value: Vec<T>,
) -> Result<Value, ToolError> {
    let empty = value.is_empty();
    Ok(Value::native(format, value, empty))
}

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

fn parse_region(function: &FunctionId, name: &str, tv: &Value) -> Result<Region, ToolError> {
    let s: String = de(function, name, tv)?;
    Region::parse(&s).ok_or_else(|| ToolError::BadArgument {
        function: function.clone(),
        message: format!("unknown region {s:?}"),
    })
}

impl ToolRuntime for StandardRuntime {
    fn invoke(
        &self,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        let world = &self.scenario.world;
        match function.0.as_str() {
            // ------------------------------------------------ nautilus ----
            "nautilus.map_links" => self.mapping_value(),
            "nautilus.dependency_table" => {
                let mapping: ValueView<'_, MappingTable> =
                    view(function, "mapping", need(args, function, "mapping")?)?;
                let deps = DependencyTable::from_mapping(world, &mapping, 0.2);
                out(F::DependencyTable, deps)
            }
            "nautilus.resolve_cable" => {
                let name: String = de(function, "cable_name", need(args, function, "cable_name")?)?;
                let cable = world.cable_by_name(&name).ok_or_else(|| ToolError::Failed {
                    function: function.clone(),
                    message: format!("cable {name:?} not found in the cartography catalog"),
                    transient: false,
                })?;
                out(F::CableRef, CableRefData { id: cable.id.0, name: cable.name.clone() })
            }
            "nautilus.cable_dependencies" => {
                let deps: ValueView<'_, DependencyTable> =
                    view(function, "deps", need(args, function, "deps")?)?;
                let cable: CableRefData = de(function, "cable", need(args, function, "cable")?)?;
                out(F::CableDependencies, deps.for_cable(CableId(cable.id)))
            }

            // ------------------------------------------------- xaminer ----
            "xaminer.process_event" => {
                let event: ValueView<'_, FailureEvent> =
                    view(function, "event", need(args, function, "event")?)?;
                let deps: ValueView<'_, DependencyTable> =
                    view(function, "deps", need(args, function, "deps")?)?;
                out(F::FailureImpact, xaminer_sim::process_event(world, &deps, &event))
            }
            "xaminer.impact_report" => {
                let impact: ValueView<'_, FailureImpact> =
                    view(function, "impact", need(args, function, "impact")?)?;
                out(F::ImpactReport, xaminer_sim::impact::aggregate(world, &impact))
            }
            "xaminer.country_aggregate" => {
                let report: ValueView<'_, xaminer_sim::ImpactReport> =
                    view(function, "report", need(args, function, "report")?)?;
                out(F::CountryImpactTable, country_table(&report))
            }
            "xaminer.event_impact" => {
                let event: ValueView<'_, FailureEvent> =
                    view(function, "event", need(args, function, "event")?)?;
                let deps_value = self.default_deps_value()?;
                let deps: ValueView<'_, DependencyTable> =
                    view_of(&deps_value, "default deps")?;
                let failure = xaminer_sim::process_event(world, &deps, &event);
                let report = xaminer_sim::impact::aggregate(world, &failure);
                out(F::CountryImpactTable, country_table(&report))
            }
            "xaminer.cascade" => {
                let impact: ValueView<'_, FailureImpact> =
                    view(function, "impact", need(args, function, "impact")?)?;
                let config = CascadeConfig { base_load: 0.75, ..CascadeConfig::default() };
                let timeline = xaminer_sim::cascade::propagate(world, &impact, &config);
                out(F::CascadeTimeline, timeline)
            }
            "xaminer.risk_profiles" => {
                let deps: ValueView<'_, DependencyTable> =
                    view(function, "deps", need(args, function, "deps")?)?;
                out_seq(F::RiskProfiles, xaminer_sim::risk::all_risk_profiles(world, &deps))
            }

            // ----------------------------------------------------- bgp ----
            "bgp.updates" => {
                let w: WindowArg = de(function, "window", need(args, function, "window")?)?;
                let window = w.to_window();
                let observed = self.observation_value()?;
                let observed: ValueView<'_, UpdateWindow> =
                    view_of(&observed, "bgp observation")?;
                let updates = observed.within(window);
                let empty = updates.is_empty();
                Ok(Value::native(F::BgpUpdates, updates, empty))
            }
            "bgp.rib_snapshot" => {
                let w: WindowArg = de(function, "window", need(args, function, "window")?)?;
                let sim = BgpSimulator::new(&self.scenario);
                let peers: Vec<net_model::Asn> =
                    sim.collectors().iter().take(10).copied().collect();
                let rib = bgp_sim::RibSnapshot::capture(
                    &self.scenario,
                    &peers,
                    w.to_window().end,
                );
                out(F::RibSnapshot, rib)
            }
            "bgp.detect_bursts" => {
                let updates: ValueView<'_, UpdateWindow> =
                    view(function, "updates", need(args, function, "updates")?)?;
                let w: WindowArg = de(function, "window", need(args, function, "window")?)?;
                let window = w.to_window();
                let hours = (window.duration().as_seconds() / 3600).clamp(24, 400) as usize;
                let bursts = detect_update_bursts(&updates, window, hours, 3.0);
                out_seq(F::BgpBursts, bursts)
            }
            "bgp.detect_moas" => {
                let updates: ValueView<'_, UpdateWindow> =
                    view(function, "updates", need(args, function, "updates")?)?;
                let observed = self.observation_value()?;
                let observed: ValueView<'_, UpdateWindow> =
                    view_of(&observed, "bgp observation")?;
                let baseline = observed.observation().baseline_origins();
                let conflicts = detect_moas_conflicts_indexed(&updates, baseline);
                out_seq(F::MoasConflicts, conflicts)
            }
            "bgp.valley_violations" => {
                let updates: ValueView<'_, UpdateWindow> =
                    view(function, "updates", need(args, function, "updates")?)?;
                // Reference topology: the scenario's quiet start, whose
                // adjacency set is a superset of every later instant's.
                let graph =
                    bgp_sim::AsGraph::at_time(&self.scenario, self.scenario.horizon.start);
                out_seq(F::ValleyViolations, detect_valley_violations(&updates, &graph))
            }
            "bgp.reachability_losses" => {
                let updates: ValueView<'_, UpdateWindow> =
                    view(function, "updates", need(args, function, "updates")?)?;
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
                Ok(Value::new(F::Table, serde_json::Value::Array(rows)))
            }

            // ----------------------------------------------- traceroute ----
            "traceroute.campaign" => {
                let src = parse_region(function, "src_region", need(args, function, "src_region")?)?;
                let dst = parse_region(function, "dst_region", need(args, function, "dst_region")?)?;
                let w: WindowArg = de(function, "window", need(args, function, "window")?)?;
                let key = format!("campaign:{src:?}:{dst:?}:{}:{}", w.start, w.end);
                self.cached(&self.artifacts, &key, || {
                    let campaign = run_campaign(&self.scenario, src, dst, w.to_window());
                    Ok(Value::native(F::TracerouteCampaign, campaign, false))
                })
            }
            "traceroute.rtt_series" => {
                let campaign: ValueView<'_, CampaignData> =
                    view(function, "campaign", need(args, function, "campaign")?)?;
                out(F::RttSeries, analysis::rtt_series(&campaign, 6 * 3600))
            }
            "traceroute.detect_anomaly" => {
                let campaign: ValueView<'_, CampaignData> =
                    view(function, "campaign", need(args, function, "campaign")?)?;
                out(F::AnomalyReport, analysis::detect_anomaly(&campaign))
            }

            // ---------------------------------------------------- util ----
            "util.cable_failure_event" => {
                let cable: CableRefData = de(function, "cable", need(args, function, "cable")?)?;
                out(
                    F::FailureEventSpec,
                    FailureEvent::CableFailure { cable: CableId(cable.id) },
                )
            }
            "util.compile_disasters" => {
                #[derive(serde::Deserialize)]
                struct Kind {
                    kind: String,
                }
                let kinds: Vec<Kind> =
                    de(function, "disasters", need(args, function, "disasters")?)?;
                let p: f64 = de(
                    function,
                    "failure_probability",
                    need(args, function, "failure_probability")?,
                )?;
                let kinds: Vec<String> = kinds.into_iter().map(|k| k.kind).collect();
                let specs = disasters::compile(&kinds, p);
                if specs.is_empty() {
                    return Err(ToolError::Failed {
                        function: function.clone(),
                        message: format!("no hazard zones match kinds {kinds:?}"),
                        transient: false,
                    });
                }
                let event = FailureEvent::Compound(
                    specs.into_iter().map(FailureEvent::Disaster).collect(),
                );
                out(F::FailureEventSpec, event)
            }
            "util.combine_impact_tables" => {
                let a: ValueView<'_, CountryTableData> =
                    view(function, "a", need(args, function, "a")?)?;
                let b: ValueView<'_, CountryTableData> =
                    view(function, "b", need(args, function, "b")?)?;
                out(F::CountryImpactTable, combine_tables(&a, &b))
            }
            "util.corridor_failure_event" => {
                let src = parse_region(function, "src_region", need(args, function, "src_region")?)?;
                let dst = parse_region(function, "dst_region", need(args, function, "dst_region")?)?;
                let cables = corridor_cables(world, src, dst, 3);
                if cables.is_empty() {
                    return Err(ToolError::Failed {
                        function: function.clone(),
                        message: format!("no cable systems connect {src} and {dst}"),
                        transient: false,
                    });
                }
                let event = FailureEvent::Compound(
                    cables
                        .into_iter()
                        .map(|cable| FailureEvent::CableFailure { cable })
                        .collect(),
                );
                out(F::FailureEventSpec, event)
            }
            "util.score_suspect_cables" => {
                let anomaly: ValueView<'_, AnomalyData> =
                    view(function, "anomaly", need(args, function, "anomaly")?)?;
                let deps: ValueView<'_, DependencyTable> =
                    view(function, "deps", need(args, function, "deps")?)?;
                let mut cable_links: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
                let mut names: BTreeMap<u32, String> = BTreeMap::new();
                for cable in deps.cables() {
                    let entry = deps.for_cable(cable);
                    cable_links
                        .insert(cable.0, entry.links.iter().map(|l| l.0).collect());
                    names.insert(cable.0, world.cable(cable).name.clone());
                }
                out(
                    F::SuspectRanking,
                    analysis::score_suspects(&anomaly, &cable_links, &names),
                )
            }
            "util.correlate_evidence" => {
                let bursts: ValueView<'_, Vec<bgp_sim::UpdateBurst>> =
                    view(function, "bursts", need(args, function, "bursts")?)?;
                let anomaly: ValueView<'_, AnomalyData> =
                    view(function, "anomaly", need(args, function, "anomaly")?)?;
                let times: Vec<i64> = bursts.iter().map(|b| b.window.start.0).collect();
                out(
                    F::CorrelationReport,
                    analysis::correlate(&times, bursts.len(), &anomaly),
                )
            }
            "util.synthesize_verdict" => {
                let suspects: ValueView<'_, SuspectData> =
                    view(function, "suspects", need(args, function, "suspects")?)?;
                let correlation: ValueView<'_, CorrelationData> =
                    view(function, "correlation", need(args, function, "correlation")?)?;
                let anomaly: ValueView<'_, AnomalyData> =
                    view(function, "anomaly", need(args, function, "anomaly")?)?;
                out(
                    F::ForensicVerdict,
                    analysis::synthesize_verdict(&suspects, &correlation, &anomaly),
                )
            }
            "util.attribute_control_plane" => {
                let moas: ValueView<'_, Vec<MoasConflict>> =
                    view(function, "moas", need(args, function, "moas")?)?;
                let valleys: ValueView<'_, Vec<ValleyViolation>> =
                    view(function, "valleys", need(args, function, "valleys")?)?;
                let legit: BTreeMap<String, u32> = world
                    .prefixes
                    .iter()
                    .map(|p| (p.net.to_string(), p.origin.0))
                    .collect();
                out(
                    F::ControlPlaneReport,
                    analysis::attribute_control_plane(&moas, &valleys, &legit),
                )
            }
            "xaminer.control_plane_impact" => {
                let report: ValueView<'_, ControlPlaneReportData> =
                    view(function, "report", need(args, function, "report")?)?;
                out(F::CountryImpactTable, control_plane_impact_table(world, &report))
            }
            "util.build_timeline" => {
                let cascade: ValueView<'_, xaminer_sim::CascadeTimeline> =
                    view(function, "cascade", need(args, function, "cascade")?)?;
                let bursts: ValueView<'_, Vec<bgp_sim::UpdateBurst>> =
                    view(function, "bursts", need(args, function, "bursts")?)?;
                let anomaly: ValueView<'_, AnomalyData> =
                    view(function, "anomaly", need(args, function, "anomaly")?)?;
                // Anchor cascade offsets at the first observed event (or the
                // horizon start for pure what-if analyses).
                let anchor = self
                    .scenario
                    .timeline()
                    .first()
                    .map(|(t, _)| *t)
                    .unwrap_or(self.scenario.horizon.start);
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
                out(
                    F::UnifiedTimeline,
                    analysis::build_timeline(&cascade_events, &burst_times, &anomaly),
                )
            }

            // ------------------------------------------------------ qa ----
            "qa.verify_output" => {
                let value = need(args, function, "value")?;
                let mut checks = vec!["non-null".to_string()];
                let mut notes = Vec::new();
                // Native artifacts are never null; only JSON payloads need
                // the projection inspected.
                let mut passed = value.is_native() || !value.json().is_null();
                if value.is_empty_payload() {
                    passed = false;
                    notes.push("result payload is empty".to_string());
                } else {
                    checks.push("non-empty".to_string());
                }
                checks.push(format!("declared format {}", value.format));
                out(F::QaReport, QaData { passed, checks, notes })
            }

            _ => Err(ToolError::Unbound(function.clone())),
        }
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

/// Runs a probe campaign: up to 16 probes from `src`, up to 12 access-AS
/// destinations in `dst`, two Paris flows per pair, sampled every 8 hours.
/// The flow sweep broadens link coverage (MDA-style), which the forensic
/// suspect scoring depends on.
fn run_campaign(
    scenario: &Scenario,
    src: Region,
    dst: Region,
    window: TimeWindow,
) -> CampaignData {
    let world = &scenario.world;
    let sim = TracerouteSimulator::new(scenario);

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

    let interval = SimDuration::hours(8);
    let mut measurements = Vec::new();
    let mut t = window.start;
    while t < window.end {
        for probe in &probes {
            for &dest in &dests {
                for flow in [0u16, 1] {
                    let fwd =
                        traceroute_sim::path::forwarding_path(&sim, probe.id, dest, t, flow);
                    let trace =
                        traceroute_sim::rtt::execute(&sim, probe.id, dest, t, flow, &fwd);
                    measurements.push(MeasurementData {
                        probe: probe.id.0,
                        dst: dest.to_string(),
                        time: t.0,
                        rtt_ms: trace.end_to_end_rtt(),
                        links: fwd.links().iter().map(|l| l.0).collect(),
                    });
                }
            }
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
    use crate::scenarios;

    fn tv(format: F, v: serde_json::Value) -> Value {
        Value::new(format, v)
    }

    fn invoke(
        rt: &StandardRuntime,
        id: &str,
        args: Vec<(&str, Value)>,
    ) -> Result<Value, ToolError> {
        let map: BTreeMap<String, Value> =
            args.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        rt.invoke(&FunctionId::from(id), &map)
    }

    #[test]
    fn resolve_and_fail_cable() {
        let rt = StandardRuntime::new(scenarios::cs1_scenario());
        let cable = invoke(
            &rt,
            "nautilus.resolve_cable",
            vec![("cable_name", tv(F::Text, serde_json::json!("SeaMeWe-5")))],
        )
        .unwrap();
        let c: CableRefData = cable.parse().unwrap();
        assert_eq!(c.name, "SeaMeWe-5");

        let missing = invoke(
            &rt,
            "nautilus.resolve_cable",
            vec![("cable_name", tv(F::Text, serde_json::json!("Atlantis Express")))],
        );
        assert!(matches!(missing, Err(ToolError::Failed { .. })));

        let event = invoke(&rt, "util.cable_failure_event", vec![("cable", cable)]).unwrap();
        assert_eq!(event.format, F::FailureEventSpec);
    }

    #[test]
    fn cs1_manual_chain_produces_country_table() {
        let rt = StandardRuntime::new(scenarios::cs1_scenario());
        let mapping = invoke(&rt, "nautilus.map_links", vec![]).unwrap();
        assert!(mapping.is_native(), "mapping crosses boundaries natively");
        let deps =
            invoke(&rt, "nautilus.dependency_table", vec![("mapping", mapping)]).unwrap();
        let cable = invoke(
            &rt,
            "nautilus.resolve_cable",
            vec![("cable_name", tv(F::Text, serde_json::json!("SeaMeWe-5")))],
        )
        .unwrap();
        let event =
            invoke(&rt, "util.cable_failure_event", vec![("cable", cable)]).unwrap();
        let impact = invoke(
            &rt,
            "xaminer.process_event",
            vec![("event", event), ("deps", deps)],
        )
        .unwrap();
        let report = invoke(&rt, "xaminer.impact_report", vec![("impact", impact)]).unwrap();
        let table =
            invoke(&rt, "xaminer.country_aggregate", vec![("report", report)]).unwrap();
        let t: CountryTableData = table.parse().unwrap();
        assert!(!t.rows.is_empty());
        assert!(t.rows[0].impact_score >= t.rows.last().unwrap().impact_score);
    }

    #[test]
    fn event_impact_is_one_call() {
        let rt = StandardRuntime::new(scenarios::cs2_scenario());
        let disasters = tv(
            F::DisasterSpecs,
            serde_json::json!([{"kind": "earthquake", "qualifier": "severe"},
                               {"kind": "hurricane", "qualifier": "globally"}]),
        );
        let event = invoke(
            &rt,
            "util.compile_disasters",
            vec![
                ("disasters", disasters),
                ("failure_probability", tv(F::Scalar, serde_json::json!(0.1))),
            ],
        )
        .unwrap();
        let table = invoke(&rt, "xaminer.event_impact", vec![("event", event)]).unwrap();
        let t: CountryTableData = table.parse().unwrap();
        assert!(!t.rows.is_empty(), "a 12-zone catalog at 10% must hit something");
    }

    #[test]
    fn default_deps_reuses_the_cached_mapping_artifact() {
        let rt = StandardRuntime::new(scenarios::cs2_scenario());
        let event = invoke(
            &rt,
            "util.compile_disasters",
            vec![
                (
                    "disasters",
                    tv(F::DisasterSpecs, serde_json::json!([{"kind": "earthquake"}])),
                ),
                ("failure_probability", tv(F::Scalar, serde_json::json!(0.1))),
            ],
        )
        .unwrap();
        invoke(&rt, "xaminer.event_impact", vec![("event", event)]).unwrap();
        // Mapping and default deps are *world-level* artifacts now: they
        // live in the world-keyed store, not the scenario store.
        assert!(rt.artifacts().is_empty(), "no scenario-level artifacts for event_impact");
        assert!(rt.world_artifacts().contains("nautilus.mapping"));
        assert!(rt.world_artifacts().contains("nautilus.default_deps"));
        // And the mapping the store holds is the same one map_links serves.
        let m1 = invoke(&rt, "nautilus.map_links", vec![]).unwrap();
        let m2 = invoke(&rt, "nautilus.map_links", vec![]).unwrap();
        assert!(m1.is_native());
        let p1: *const MappingTable = m1.native_ref::<MappingTable>().unwrap();
        let p2: *const MappingTable = m2.native_ref::<MappingTable>().unwrap();
        assert!(std::ptr::eq(p1, p2), "map_links serves the cached artifact");
    }

    #[test]
    fn scenarios_sharing_a_world_share_the_mapping_artifact() {
        // The PR-5 bugfix: cs1 (quiet) and cs3 (two cable cuts) are
        // different scenarios with private scenario stores over the same
        // Arc<World> — the Nautilus mapping run must be computed once.
        let rt1 = StandardRuntime::new(scenarios::cs1_scenario());
        let rt3 = StandardRuntime::new(scenarios::cs3_scenario());
        assert!(Arc::ptr_eq(rt1.world_artifacts(), rt3.world_artifacts()));
        let m1 = invoke(&rt1, "nautilus.map_links", vec![]).unwrap();
        let m3 = invoke(&rt3, "nautilus.map_links", vec![]).unwrap();
        let p1: *const MappingTable = m1.native_ref::<MappingTable>().unwrap();
        let p3: *const MappingTable = m3.native_ref::<MappingTable>().unwrap();
        assert!(std::ptr::eq(p1, p3), "one mapping run across scenarios sharing a world");
    }

    #[test]
    fn artifact_store_retries_after_a_failed_build() {
        let rt = StandardRuntime::new(scenarios::cs1_scenario());
        let store = ArtifactStore::new();
        let down = ToolError::Failed { function: "t.flaky".into(), message: "down".into(), transient: true };
        assert_eq!(rt.cached(&store, "k", || Err(down.clone())), Err(down));
        assert!(store.is_empty(), "failed slots are evicted");
        // The next request rebuilds and the success stays cached.
        let ok = Value::new(F::Scalar, serde_json::json!(1));
        assert_eq!(rt.cached(&store, "k", || Ok(ok.clone())), Ok(ok.clone()));
        assert_eq!(rt.cached(&store, "k", || panic!("must not rebuild a cached success")), Ok(ok));
    }

    #[test]
    fn shared_artifact_store_is_computed_once_across_runtimes() {
        let scenario = Arc::new(scenarios::cs1_scenario());
        let store = Arc::new(ArtifactStore::new());
        let rt1 = StandardRuntime::shared(Arc::clone(&scenario), Arc::clone(&store));
        let rt2 = StandardRuntime::shared(Arc::clone(&scenario), Arc::clone(&store));

        let m1 = invoke(&rt1, "nautilus.map_links", vec![]).unwrap();
        let m2 = invoke(&rt2, "nautilus.map_links", vec![]).unwrap();
        assert!(store.is_empty(), "the mapping lives in the world store, not the scenario one");
        // Both runtimes serve the same native artifact.
        let p1: *const MappingTable = m1.native_ref::<MappingTable>().unwrap();
        let p2: *const MappingTable = m2.native_ref::<MappingTable>().unwrap();
        assert!(std::ptr::eq(p1, p2), "artifact is shared, not recomputed");
    }

    #[test]
    fn traceroute_campaign_probes_count_as_artifact_probes() {
        let recorder = Arc::new(telemetry::Recorder::new());
        let rt = StandardRuntime::new(scenarios::cs4_scenario()).with_recorder(Arc::clone(&recorder));
        let campaign = || {
            invoke(
                &rt,
                "traceroute.campaign",
                vec![
                    ("src_region", tv(F::RegionScope, serde_json::json!("Europe"))),
                    ("dst_region", tv(F::RegionScope, serde_json::json!("Asia"))),
                    ("window", tv(F::TimeWindow, serde_json::json!({"start": 0, "end": 86_400}))),
                ],
            )
            .unwrap()
        };
        assert_eq!(campaign(), campaign());
        let metrics = recorder.metrics_snapshot();
        assert_eq!(metrics.counter("artifact_cache.miss"), 1);
        assert_eq!(metrics.counter("artifact_cache.hit"), 1);
    }

    #[test]
    fn corridor_event_connects_europe_asia() {
        let rt = StandardRuntime::new(scenarios::cs3_scenario());
        let event = invoke(
            &rt,
            "util.corridor_failure_event",
            vec![
                ("src_region", tv(F::RegionScope, serde_json::json!("Europe"))),
                ("dst_region", tv(F::RegionScope, serde_json::json!("Asia"))),
            ],
        )
        .unwrap();
        let ev: FailureEvent = event.parse().unwrap();
        match ev {
            FailureEvent::Compound(events) => {
                assert!((1..=3).contains(&events.len()));
            }
            other => panic!("expected compound, got {other:?}"),
        }
    }

    #[test]
    fn bgp_pipeline_detects_cs3_bursts() {
        let rt = StandardRuntime::new(scenarios::cs3_scenario());
        let window = tv(F::TimeWindow, serde_json::json!({"start": 0, "end": 10 * 86_400}));
        let updates = invoke(&rt, "bgp.updates", vec![("window", window.clone())]).unwrap();
        assert!(updates.is_native(), "update stream crosses natively");
        let bursts = invoke(
            &rt,
            "bgp.detect_bursts",
            vec![("updates", updates), ("window", window)],
        )
        .unwrap();
        let b: Vec<bgp_sim::UpdateBurst> = bursts.parse().unwrap();
        assert!(!b.is_empty(), "two cable cuts must burst");
    }

    #[test]
    fn updates_and_moas_share_one_bgp_observation() {
        let recorder = Arc::new(telemetry::Recorder::new());
        let rt = StandardRuntime::new(scenarios::cs5_hijack_scenario())
            .with_recorder(Arc::clone(&recorder));
        let window = tv(F::TimeWindow, serde_json::json!({"start": 0, "end": 10 * 86_400}));
        let updates = invoke(&rt, "bgp.updates", vec![("window", window)]).unwrap();
        let moas = invoke(&rt, "bgp.detect_moas", vec![("updates", updates.clone())]).unwrap();
        let metrics = recorder.metrics_snapshot();
        assert_eq!(metrics.counter("artifact_cache.miss"), 1, "one derivation");
        assert_eq!(metrics.counter("artifact_cache.hit"), 1);
        assert!(rt.artifacts().contains("bgp.observation"));

        // The detector over the observation's origin index reports what it
        // reports over a full collector RIB captured at the horizon start.
        let scenario = rt.scenario();
        let sim = BgpSimulator::new(scenario);
        let baseline =
            bgp_sim::RibSnapshot::capture(scenario, sim.collectors(), scenario.horizon.start);
        let stream: Vec<bgp_sim::BgpUpdate> = updates.parse().unwrap();
        let conflicts: Vec<MoasConflict> = moas.parse().unwrap();
        assert!(!conflicts.is_empty());
        assert_eq!(conflicts, bgp_sim::detect_moas_conflicts(&stream, &baseline));
    }

    #[test]
    fn update_window_projects_to_the_cloned_stream_json() {
        let rt = StandardRuntime::new(scenarios::cs5_hijack_scenario());
        let stream = BgpSimulator::new(rt.scenario()).observe();
        let horizon = rt.scenario().horizon;
        let day = 86_400;
        let windows = [
            (horizon.start.0, horizon.end.0),
            (horizon.start.0 + 5 * day, horizon.start.0 + 6 * day),
            (horizon.end.0, horizon.end.0 + day),
            (horizon.start.0 + 3 * day, horizon.start.0 + 3 * day),
        ];
        for (start, end) in windows {
            let window = tv(F::TimeWindow, serde_json::json!({"start": start, "end": end}));
            let updates = invoke(&rt, "bgp.updates", vec![("window", window)]).unwrap();
            assert!(updates.is_native(), "update stream crosses natively");
            // What `bgp.updates` returned before it served windows: a
            // filtered clone of the stream.
            let bounds = TimeWindow::new(SimTime(start), SimTime(end));
            let cloned: Vec<bgp_sim::BgpUpdate> =
                stream.updates().iter().filter(|u| bounds.contains(u.time)).cloned().collect();
            let projected = updates.json().to_json_string();
            assert_eq!(projected, serde_json::to_string(&cloned).unwrap(), "[{start}, {end})");
            assert_eq!(updates.is_empty_payload(), cloned.is_empty());
            let parsed: Vec<bgp_sim::BgpUpdate> = updates.parse().unwrap();
            assert_eq!(parsed, cloned);
            // A JSON copy of the window still feeds the detectors.
            let copy = Value::new(F::BgpUpdates, updates.json().clone());
            let moas = |v: Value| invoke(&rt, "bgp.detect_moas", vec![("updates", v)]).unwrap();
            assert_eq!(moas(copy).json(), moas(updates).json(), "[{start}, {end})");
        }
    }

    #[test]
    fn control_plane_chain_attributes_the_cs5_hijack() {
        let rt = StandardRuntime::new(scenarios::cs5_hijack_scenario());
        let (hijacker, victim_prefix) = scenarios::cs5_actors(&rt.scenario().world);
        let window = tv(F::TimeWindow, serde_json::json!({"start": 0, "end": 10 * 86_400}));
        let updates = invoke(&rt, "bgp.updates", vec![("window", window)]).unwrap();

        let moas =
            invoke(&rt, "bgp.detect_moas", vec![("updates", updates.clone())]).unwrap();
        let conflicts: Vec<bgp_sim::MoasConflict> = moas.parse().unwrap();
        assert!(!conflicts.is_empty(), "the hijack must surface as a MOAS conflict");
        assert!(conflicts.iter().any(|c| c.prefix == victim_prefix));
        assert!(conflicts.iter().any(|c| c.origins.contains(&net_model::Asn(hijacker.0))));

        let valleys =
            invoke(&rt, "bgp.valley_violations", vec![("updates", updates)]).unwrap();
        let violations: Vec<bgp_sim::ValleyViolation> = valleys.parse().unwrap();
        assert!(violations.is_empty(), "a pure hijack violates no export rule");

        let report = invoke(
            &rt,
            "util.attribute_control_plane",
            vec![("moas", moas), ("valleys", valleys)],
        )
        .unwrap();
        let r: ControlPlaneReportData = report.parse().unwrap();
        assert_eq!(r.kind, "prefix-hijack");
        assert_eq!(r.offender, Some(hijacker.0), "the hijacker is identified");
        assert!(r.confidence > 0.5);
        assert!(r.victim_prefixes.contains(&victim_prefix.to_string()));

        let table =
            invoke(&rt, "xaminer.control_plane_impact", vec![("report", report)]).unwrap();
        let t: CountryTableData = table.parse().unwrap();
        assert!(!t.rows.is_empty(), "the capture cone touches some countries");
        assert!(t.rows.iter().all(|row| row.links_affected == 0), "nothing physically fails");
    }

    #[test]
    fn unknown_function_is_unbound() {
        let rt = StandardRuntime::new(scenarios::cs1_scenario());
        assert!(matches!(
            invoke(&rt, "frobnicate.all", vec![]),
            Err(ToolError::Unbound(_))
        ));
    }

    #[test]
    fn qa_flags_empty_results() {
        let rt = StandardRuntime::new(scenarios::cs1_scenario());
        let bad = invoke(
            &rt,
            "qa.verify_output",
            vec![("value", tv(F::Table, serde_json::json!([])))],
        )
        .unwrap();
        let qa: QaData = bad.parse().unwrap();
        assert!(!qa.passed);

        let good = invoke(
            &rt,
            "qa.verify_output",
            vec![("value", tv(F::Table, serde_json::json!([{"x": 1}])))],
        )
        .unwrap();
        let qa: QaData = good.parse().unwrap();
        assert!(qa.passed);

        // Native sequence artifacts keep JSON emptiness semantics.
        let empty_native = Value::native(F::BgpBursts, Vec::<u32>::new(), true);
        let qa: QaData = invoke(&rt, "qa.verify_output", vec![("value", empty_native)])
            .unwrap()
            .parse()
            .unwrap();
        assert!(!qa.passed);
    }
}
