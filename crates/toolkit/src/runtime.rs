//! The standard tool runtime: runs every catalog function on the
//! substrate crates.
//!
//! [`StandardRuntime::invoke`] finds the function's row in the
//! [`catalog`] table by id and calls the row's handler with an argument
//! accessor that reads only the row's declared params and stamps each
//! result with the row's declared output format. An id with no row is
//! [`ToolError::Unbound`].
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
//! held as a [`bgp_sim::UpdateWindow`] over the whole horizon. The update
//! fetch answers with a narrower window over the same `Arc`d stream (two
//! binary searches, no copy), the detectors read a window as a
//! `&[BgpUpdate]`, the MOAS detector takes its baseline from the cached
//! observation, and the valley detector its reference graph (the
//! derivation's start state). Artifacts that depend only on the world
//! (the Nautilus mapping run, the default dependency table) live in a
//! second store that the runtime's owner shares between the scenarios
//! of one world: `arachnet::Engine` keeps one per world it serves, and
//! [`StandardRuntime::new`] makes a private one. No store outlives its
//! owners. Both are [`OnceMap`]s, the workspace's one build-once cache
//! shape, and every probe of either goes through one counted path, so
//! `artifact_cache.hit`/`artifact_cache.miss` see them all.

use std::collections::BTreeMap;
use std::sync::Arc;

use net_model::Region;
use registry::{DataFormat as F, FunctionId};
use scenario_forge::OnceMap;
use workflow::{ToolError, ToolRuntime, Value, ValueView};
use world::{Scenario, World};

use bgp_sim::{BgpSimulator, UpdateWindow};
use nautilus_sim::{DependencyTable, MappingConfig, MappingTable, NautilusMapper};

use crate::catalog::{self, Tool};

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

/// The standard runtime over one scenario.
pub struct StandardRuntime {
    scenario: Arc<Scenario>,
    /// Scenario-level artifacts (bgp observation, campaigns): shared by
    /// every session of this scenario.
    artifacts: Arc<ArtifactStore>,
    /// World-level artifacts (mapping run, default deps): shared by every
    /// scenario its owner serves over this world.
    world_artifacts: Arc<ArtifactStore>,
    /// Optional telemetry sink: cached-artifact probes become
    /// `artifact_cache.hit` / `artifact_cache.miss` counters. Counters
    /// only — whether a shared store is warm depends on which of its
    /// concurrent sessions asked first, so cache probes must never enter
    /// the (byte-stable) trace.
    recorder: Option<Arc<telemetry::Recorder>>,
}

impl StandardRuntime {
    /// A runtime owning private scenario-level and world-level artifact
    /// stores.
    pub fn new(scenario: Scenario) -> Self {
        StandardRuntime::shared(Arc::new(scenario), Arc::default(), Arc::default())
    }

    /// A runtime over a shared scenario and artifact stores — the serving
    /// engine hands every session of a scenario the same scenario store,
    /// and every scenario of one world the same world store, so artifacts
    /// are computed once across all concurrent sessions.
    pub fn shared(
        scenario: Arc<Scenario>,
        artifacts: Arc<ArtifactStore>,
        world_artifacts: Arc<ArtifactStore>,
    ) -> Self {
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
    pub(crate) fn cached(
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

    /// The world under measurement.
    pub(crate) fn world(&self) -> &World {
        &self.scenario.world
    }

    /// The scenario-level artifact store backing this runtime.
    pub fn artifacts(&self) -> &Arc<ArtifactStore> {
        &self.artifacts
    }

    /// The world-level artifact store this runtime shares with every
    /// other scenario its owner serves over the same world.
    pub fn world_artifacts(&self) -> &Arc<ArtifactStore> {
        &self.world_artifacts
    }

    // -- cached artifacts ---------------------------------------------------

    pub(crate) fn mapping_value(&self) -> Result<Value, ToolError> {
        self.cached(&self.world_artifacts, "nautilus.mapping", || {
            let table = NautilusMapper::new(MappingConfig::default())
                .map_world(&self.scenario.world);
            Ok(Value::native(F::MappingTable, table, false))
        })
    }

    pub(crate) fn default_deps_value(&self) -> Result<Value, ToolError> {
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

    pub(crate) fn observation_value(&self) -> Result<Value, ToolError> {
        // One derivation per scenario: the full update stream (windowed
        // per call by `bgp.updates`) and the origin sets of the collector
        // RIB at the horizon start (the MOAS detector's baseline — the
        // timeline may start with an incident already active) and the AS
        // graph of that start (the valley detector's reference), held as
        // a window over the whole horizon. This artifact never leaves the
        // runtime.
        self.cached(&self.artifacts, "bgp.observation", || {
            let stream = UpdateWindow::new(BgpSimulator::new(&self.scenario).observe());
            let empty = stream.is_empty();
            Ok(Value::native(F::BgpUpdates, stream, empty))
        })
    }
}

/// Views an internally cached artifact as `T`.
pub(crate) fn view_of<'a, T: serde::de::DeserializeOwned + 'static>(
    tv: &'a Value,
    what: &str,
) -> Result<ValueView<'a, T>, ToolError> {
    tv.view().map_err(|e| ToolError::Failed {
        function: FunctionId::from("internal.cache"),
        message: format!("{what}: {e}"),
        transient: false,
    })
}

/// A handler's access to one call: reads only the params its catalog row
/// declares, and stamps results with the row's output format.
pub(crate) struct Args<'a> {
    tool: &'static Tool,
    function: &'a FunctionId,
    values: &'a BTreeMap<String, Value>,
}

impl<'a> Args<'a> {
    /// The argument bound to the declared param `name`. Presence is
    /// checked here, at the read, so a malformed call reports the first
    /// argument its handler reads.
    pub(crate) fn value(&self, name: &str) -> Result<&'a Value, ToolError> {
        if !self.tool.params.iter().any(|&(param, _)| param == name) {
            return Err(self.fail(format!("reads undeclared argument {name}")));
        }
        self.values.get(name).ok_or_else(|| self.bad(format!("missing argument {name}")))
    }

    /// Views an argument as `T`: zero-copy for native artifacts of that
    /// type, JSON deserialization otherwise.
    pub(crate) fn view<T: serde::de::DeserializeOwned + 'static>(
        &self,
        name: &str,
    ) -> Result<ValueView<'a, T>, ToolError> {
        self.value(name)?.view().map_err(|e| self.bad(format!("argument {name}: {e}")))
    }

    /// Parses an argument into an owned `T` via the JSON projection (for
    /// small query-side values: windows, names, scalars).
    pub(crate) fn de<T: serde::de::DeserializeOwned>(&self, name: &str) -> Result<T, ToolError> {
        T::deserialize_json(self.value(name)?.json())
            .map_err(|e| self.bad(format!("argument {name}: {e}")))
    }

    /// A region argument, by name.
    pub(crate) fn region(&self, name: &str) -> Result<Region, ToolError> {
        let s: String = self.de(name)?;
        Region::parse(&s).ok_or_else(|| self.bad(format!("unknown region {s:?}")))
    }

    /// A native (non-empty) result.
    pub(crate) fn out<T: serde::Serialize + Send + Sync + 'static>(
        &self,
        value: T,
    ) -> Result<Value, ToolError> {
        self.out_native(value, false)
    }

    /// A sequence-shaped native result, keeping JSON emptiness semantics.
    pub(crate) fn out_seq<T: serde::Serialize + Send + Sync + 'static>(
        &self,
        value: Vec<T>,
    ) -> Result<Value, ToolError> {
        let empty = value.is_empty();
        self.out_native(value, empty)
    }

    /// A native result whose JSON projection is empty iff `empty`.
    pub(crate) fn out_native<T: serde::Serialize + Send + Sync + 'static>(
        &self,
        value: T,
        empty: bool,
    ) -> Result<Value, ToolError> {
        Ok(Value::native(self.tool.output, value, empty))
    }

    /// A JSON result.
    pub(crate) fn out_json(&self, value: serde_json::Value) -> Result<Value, ToolError> {
        Ok(Value::new(self.tool.output, value))
    }

    /// A persistent failure of this call.
    pub(crate) fn fail(&self, message: String) -> ToolError {
        ToolError::Failed { function: self.function.clone(), message, transient: false }
    }

    fn bad(&self, message: String) -> ToolError {
        ToolError::BadArgument { function: self.function.clone(), message }
    }
}

impl ToolRuntime for StandardRuntime {
    fn invoke(
        &self,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        let tool = catalog::tool(&function.0).ok_or_else(|| ToolError::Unbound(function.clone()))?;
        (tool.handler)(self, &Args { tool, function, values: args })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::*;
    use crate::scenarios;
    use bgp_sim::{detect_valley_violations, MoasConflict, ValleyViolation};
    use net_model::{SimTime, TimeWindow};
    use xaminer_sim::FailureEvent;

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
        let (store, world_store) = (Arc::new(ArtifactStore::new()), Arc::new(ArtifactStore::new()));
        let shared = || {
            StandardRuntime::shared(Arc::clone(&scenario), Arc::clone(&store), Arc::clone(&world_store))
        };
        let (rt1, rt2) = (shared(), shared());

        let m1 = invoke(&rt1, "nautilus.map_links", vec![]).unwrap();
        let m2 = invoke(&rt2, "nautilus.map_links", vec![]).unwrap();
        assert!(store.is_empty(), "the mapping lives in the world store, not the scenario one");
        assert!(world_store.contains("nautilus.mapping"));
        // Both runtimes serve the same native artifact.
        let p1: *const MappingTable = m1.native_ref::<MappingTable>().unwrap();
        let p2: *const MappingTable = m2.native_ref::<MappingTable>().unwrap();
        assert!(std::ptr::eq(p1, p2), "artifact is shared, not recomputed");
        // A runtime built with `new` owns its stores: it finds no mapping.
        let private = StandardRuntime::new(scenarios::cs1_scenario());
        assert!(private.world_artifacts().is_empty());
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
        let valleys =
            invoke(&rt, "bgp.valley_violations", vec![("updates", updates.clone())]).unwrap();
        let metrics = recorder.metrics_snapshot();
        assert_eq!(metrics.counter("artifact_cache.miss"), 1, "one derivation");
        assert_eq!(metrics.counter("artifact_cache.hit"), 2);
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

        // The valley detector's reference graph, read from the
        // observation, is the graph of the horizon start.
        let start = bgp_sim::AsGraph::at_time(scenario, scenario.horizon.start);
        let violations: Vec<ValleyViolation> = valleys.parse().unwrap();
        assert_eq!(violations, detect_valley_violations(&stream, &start));
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
    fn args_read_only_declared_params() {
        let tool = catalog::tool("util.combine_impact_tables").unwrap();
        let function = FunctionId::from(tool.id);
        let table = CountryTableData { rows: Vec::new() };
        let values: BTreeMap<String, Value> = [
            ("a".to_string(), Value::native(F::CountryImpactTable, table, false)),
            ("cable".to_string(), Value::text("SeaMeWe-5")),
        ]
        .into();
        let args = Args { tool, function: &function, values: &values };

        assert!(args.view::<CountryTableData>("a").is_ok());
        let missing = ToolError::BadArgument {
            function: function.clone(),
            message: "missing argument b".to_string(),
        };
        assert_eq!(args.value("b").err(), Some(missing));
        let malformed = args.de::<String>("a").unwrap_err();
        assert!(
            matches!(&malformed, ToolError::BadArgument { message, .. } if message.starts_with("argument a: ")),
            "{malformed:?}"
        );
        // A name the row does not declare is an error even when bound.
        let undeclared = ToolError::Failed {
            function: function.clone(),
            message: "reads undeclared argument cable".to_string(),
            transient: false,
        };
        assert_eq!(args.value("cable").err(), Some(undeclared.clone()));
        assert_eq!(args.de::<CableRefData>("cable").err(), Some(undeclared));

        let out = args.out(CountryTableData { rows: Vec::new() }).unwrap();
        assert_eq!(out.format, F::CountryImpactTable, "results carry the row's output format");
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
