//! The trace determinism suite: for arbitrary generated DAGs *and*
//! arbitrary generated fault plans, the recorder's canonical trace is
//!
//! * byte-identical across 1, 2 and 8 executor workers — concurrent
//!   invocation events are buffered per `(step, attempt)` and drained by
//!   the executor's single-threaded fold in workflow list order;
//! * byte-identical across reruns (fresh recorder, fresh runtime);
//! * structurally well-formed — every span parent and every event span
//!   reference resolves;
//! * in agreement with the typed `ExecutionReport` on every count both
//!   records carry (attempts, retries, backoff, poisonings, failures).
//!
//! A pinned degraded-CS5 serve rides along: fault injection plus a
//! circuit breaker over the full engine stack, with the expected event
//! choreography (inject, inject, trip, shed, shed, half-open probe)
//! asserted attempt by attempt.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use chaos::{ChaosRuntime, FaultKind, FaultPlan};
use registry::{CapabilityEntry, DataFormat, FunctionId, Param, Registry};
use telemetry::{EventKind, MetricsSnapshot, Recorder, SpanKind, SpanStatus, Trace};
use workflow::{
    execute_with, ExecOptions, ExecutionReport, RetryPolicy, Step, ToolError, ToolRuntime, Value,
    Workflow,
};

/// The three workable functions fault plans can target (mirrors the
/// chaos determinism suite — same shape, now traced).
const FUNCTIONS: [&str; 3] = ["c.alpha", "c.beta", "c.gamma"];

fn toy_registry() -> Registry {
    let deps: Vec<Param> =
        (0..8).map(|i| Param::optional(&format!("d{i}"), DataFormat::Table)).collect();
    let mut r = Registry::new();
    for id in FUNCTIONS {
        r.register(CapabilityEntry::new(id, "chaos", "toy", deps.clone(), DataFormat::Table))
            .unwrap();
    }
    r
}

/// Deterministic base runtime: concatenates input tables and tags the
/// output with the function name.
struct BaseRuntime;

impl ToolRuntime for BaseRuntime {
    fn invoke(
        &self,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        let mut rows: Vec<serde_json::Value> = Vec::new();
        for (name, v) in args {
            if let Some(a) = v.json().as_array() {
                rows.extend(a.iter().cloned());
            }
            rows.push(serde_json::Value::String(name.clone()));
        }
        rows.push(serde_json::Value::String(function.0.clone()));
        Ok(Value::new(DataFormat::Table, serde_json::Value::Array(rows)))
    }
}

#[derive(Debug, Clone)]
struct StepSpec {
    /// Index into [`FUNCTIONS`].
    function: usize,
    /// Bitmask over earlier steps.
    deps: u8,
    critical: bool,
}

fn step_spec() -> impl Strategy<Value = StepSpec> {
    (0usize..FUNCTIONS.len(), any::<u8>(), any::<bool>())
        .prop_map(|(function, deps, critical)| StepSpec { function, deps, critical })
}

fn fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (1u32..4).prop_map(|failures| FaultKind::Transient { failures }),
        Just(FaultKind::Persistent),
        Just(FaultKind::Corrupt),
        (1u64..100).prop_map(|ticks| FaultKind::Slow { ticks }),
    ]
}

fn maybe_fault() -> impl Strategy<Value = Option<FaultKind>> {
    prop_oneof![Just(None), fault_kind().prop_map(Some)]
}

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        proptest::collection::vec(maybe_fault(), FUNCTIONS.len()),
        0u32..300_000,
    )
        .prop_map(|(seed, kinds, ppm)| {
            let mut plan = FaultPlan::new(seed).with_background_failures(ppm);
            for (i, kind) in kinds.into_iter().enumerate() {
                if let Some(kind) = kind {
                    plan = plan.with_fault(FUNCTIONS[i], kind);
                }
            }
            plan
        })
}

fn build_workflow(specs: &[StepSpec]) -> Workflow {
    let mut wf = Workflow::new("trace-dag", "generated");
    for (i, spec) in specs.iter().enumerate() {
        let mut step = Step::new(&format!("s{i:02}"), FUNCTIONS[spec.function]);
        if !spec.critical {
            step = step.non_critical();
        }
        for j in 0..i.min(8) {
            if spec.deps & (1 << j) != 0 {
                step = step.bind_step(&format!("d{j}"), &format!("s{j:02}"));
            }
        }
        wf.push(step);
    }
    for i in 0..specs.len() {
        wf = wf.with_output(&format!("s{i:02}"));
    }
    wf
}

/// One traced chaos execution with a fresh recorder and runtime.
/// Returns the canonical JSON, its content hash, the Chrome export and
/// the metrics snapshot — everything a replay must reproduce exactly —
/// plus the trace and the run's typed report.
fn traced_run(
    wf: &Workflow,
    registry: &Registry,
    plan: &FaultPlan,
    workers: usize,
    retry: RetryPolicy,
) -> (String, u64, String, MetricsSnapshot, Trace, ExecutionReport) {
    let recorder = Arc::new(Recorder::new());
    let runtime =
        ChaosRuntime::new(BaseRuntime, plan.clone()).with_recorder(Arc::clone(&recorder));
    let report = execute_with(
        wf,
        registry,
        &runtime,
        &BTreeMap::new(),
        &ExecOptions { workers, retry, recorder: Some(Arc::clone(&recorder)) },
    );
    (
        recorder.trace_json(),
        recorder.trace_hash(),
        recorder.chrome_trace(),
        recorder.metrics_snapshot(),
        recorder.trace(),
        report,
    )
}

/// Every span parent and event span reference must resolve to a span in
/// the same trace; span intervals must sit on the logical clock.
fn assert_well_formed(trace: &Trace) {
    let ids: std::collections::BTreeSet<u64> = trace.spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), trace.spans.len(), "span ids are unique");
    for span in &trace.spans {
        if let Some(parent) = span.parent {
            assert!(ids.contains(&parent), "dangling parent {parent:#x}");
        }
        assert!(span.start <= span.end, "span runs backwards");
    }
    for event in &trace.events {
        if let Some(span) = event.span {
            assert!(ids.contains(&span), "event on unknown span {span:#x}");
        }
    }
}

/// The trace and the typed report are two records of one run: they must
/// agree on every count both carry.
fn assert_trace_matches_report(trace: &Trace, report: &ExecutionReport) {
    let attempts = trace.spans.iter().filter(|s| s.kind == SpanKind::Attempt).count();
    assert_eq!(attempts, report.executed + report.retries, "attempt spans");
    let backoffs: Vec<u64> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Retry { backoff_ticks, .. } => Some(backoff_ticks),
            _ => None,
        })
        .collect();
    assert_eq!(backoffs.len(), report.retries, "retry events");
    assert_eq!(backoffs.iter().sum::<u64>(), report.backoff_ticks, "retry backoff ticks");
    let attributions = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PoisonAttributed { .. }))
        .count();
    assert_eq!(attributions, report.poisoned, "poison attributions");
    let failed_steps = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Step && s.status == SpanStatus::Failed)
        .count();
    assert_eq!(failed_steps, report.failed, "failed step spans");
}

fn check_plan(specs: &[StepSpec], plan: &FaultPlan) {
    let wf = build_workflow(specs);
    let registry = toy_registry();
    let retry = RetryPolicy::with_retries(2);
    let baseline = traced_run(&wf, &registry, plan, 1, retry);
    assert_well_formed(&baseline.4);
    assert_trace_matches_report(&baseline.4, &baseline.5);
    // Byte-identical across worker counts: same JSON, hash, Chrome
    // export and metrics snapshot.
    for workers in [2usize, 8] {
        let run = traced_run(&wf, &registry, plan, workers, retry);
        assert_eq!(run.0, baseline.0, "workers={workers}: canonical trace diverged");
        assert_eq!(run.1, baseline.1, "workers={workers}: trace hash diverged");
        assert_eq!(run.2, baseline.2, "workers={workers}: chrome export diverged");
        assert_eq!(run.3, baseline.3, "workers={workers}: metrics diverged");
    }
    // Byte-identical on rerun (fresh recorder, fresh chaos counters).
    let again = traced_run(&wf, &registry, plan, 1, retry);
    assert_eq!(again.0, baseline.0, "rerun diverged");
    assert_eq!(again.1, baseline.1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_fault_plans_trace_deterministically(
        specs in proptest::collection::vec(step_spec(), 1..10),
        plan in fault_plan(),
    ) {
        check_plan(&specs, &plan);
    }
}

/// The CI seed matrix: pinned plans over a pinned diamond DAG.
#[test]
fn fixed_seed_matrix_traces_deterministically() {
    let specs = vec![
        StepSpec { function: 0, deps: 0, critical: true },
        StepSpec { function: 1, deps: 0b1, critical: false },
        StepSpec { function: 2, deps: 0b1, critical: true },
        StepSpec { function: 0, deps: 0b110, critical: true },
        StepSpec { function: 1, deps: 0, critical: false },
    ];
    for seed in [1u64, 7, 42, 1337] {
        let plan = FaultPlan::new(seed)
            .with_fault("c.beta", FaultKind::Transient { failures: (seed % 4) as u32 })
            .with_fault(
                "c.gamma",
                if seed % 2 == 0 {
                    FaultKind::Persistent
                } else {
                    FaultKind::Slow { ticks: seed % 97 }
                },
            )
            .with_background_failures((seed % 5) as u32 * 50_000);
        check_plan(&specs, &plan);
    }
}

// ---------------------------------------------------------------------
// Pinned degraded-CS5 serve over the full engine stack.
// ---------------------------------------------------------------------

/// Serves the CS5 hijack-forensics query with a transient outage on
/// `bgp.valley_violations` behind a tight circuit breaker, tracing the
/// whole session. With `trip_after: 2`, `cooldown_invocations: 2` and a
/// retry budget of 4, the five attempts choreograph as: inject, inject
/// (trips Closed→Open), shed, shed (cooldown spent), half-open probe
/// (injects again, re-opens).
fn serve_degraded_cs5() -> (Arc<Recorder>, workflow::RunHealth) {
    let recorder = Arc::new(Recorder::new());
    let engine = arachnet::Engine::new(
        Arc::new(arachnet::DeterministicExpertModel::new()),
        toolkit::standard_registry(),
    )
    .with_fault_plan(
        FaultPlan::new(7)
            .with_fault("bgp.valley_violations", FaultKind::Transient { failures: 10 }),
    )
    .with_resilience(toolkit::ResilienceConfig::new(toolkit::BreakerConfig {
        trip_after: 2,
        cooldown_invocations: 2,
    }))
    .with_retry_policy(RetryPolicy::with_retries(4))
    .with_recorder(Arc::clone(&recorder));
    engine.register_scenario("cs5", toolkit::scenarios::cs5_hijack_scenario());
    let session = engine.session("cs5").expect("cs5 registered");
    let scenario = session.scenario();
    let horizon_days = scenario.horizon.duration().as_seconds() / 86_400;
    let context = toolkit::query_context(&scenario.world, scenario.now, horizon_days);
    let run = session
        .run(toolkit::scenarios::CS5_QUERY, &context)
        .expect("query serves despite faults");
    (recorder, run.health)
}

#[test]
fn degraded_cs5_trace_pins_the_breaker_choreography() {
    let (recorder, health) = serve_degraded_cs5();
    assert!(health.is_degraded(), "valley detector is non-critical: {health:?}");
    let trace = recorder.trace();
    assert_well_formed(&trace);

    // The outage target gets five attempt spans (1 + 4 retries), all
    // parented under one step span.
    let attempts: Vec<&telemetry::Span> = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Attempt && s.name == "bgp.valley_violations")
        .collect();
    assert_eq!(attempts.len(), 5, "1 attempt + 4 retries");
    let step = attempts[0].parent.expect("attempt has a step parent");
    assert!(attempts.iter().all(|a| a.parent == Some(step)));

    // Attempt index an event landed on, by matching its span id.
    let attempt_of = |span: Option<u64>| {
        attempts.iter().position(|a| Some(a.id) == span)
    };
    let mut injected: Vec<usize> = Vec::new();
    let mut shed: Vec<usize> = Vec::new();
    let mut transitions: Vec<(String, String)> = Vec::new();
    for event in &trace.events {
        match &event.kind {
            EventKind::FaultInjected { function, transient } if function == "bgp.valley_violations" => {
                assert!(*transient);
                injected.push(attempt_of(event.span).expect("fault on an attempt span"));
            }
            EventKind::CallShed { function } if function == "bgp.valley_violations" => {
                shed.push(attempt_of(event.span).expect("shed on an attempt span"));
            }
            EventKind::BreakerTransition { function, from, to }
                if function == "bgp.valley_violations" =>
            {
                transitions.push((from.clone(), to.clone()));
            }
            _ => {}
        }
    }
    assert_eq!(injected, vec![0, 1, 4], "inject, inject, …, half-open probe");
    assert_eq!(shed, vec![2, 3], "breaker sheds while open");
    assert_eq!(
        transitions,
        vec![
            ("Closed".to_string(), "Open".to_string()),
            ("Open".to_string(), "HalfOpen".to_string()),
            ("HalfOpen".to_string(), "Open".to_string()),
        ],
        "trip, half-open probe, re-open"
    );

    // Parentage chain: attempt → step → workflow → session (the root),
    // with the epoch pin recorded on the session span.
    let span_by_id = |id: u64| trace.spans.iter().find(|s| s.id == id).expect("span");
    let step_span = span_by_id(step);
    assert_eq!(step_span.kind, SpanKind::Step);
    let workflow_span = span_by_id(step_span.parent.expect("step has workflow parent"));
    assert_eq!(workflow_span.kind, SpanKind::Workflow);
    let session_span = span_by_id(workflow_span.parent.expect("workflow has session parent"));
    assert_eq!(session_span.kind, SpanKind::Session);
    assert_eq!(session_span.parent, None, "session is the root");
    assert_eq!(session_span.status, telemetry::SpanStatus::Degraded);
    assert!(trace.events.iter().any(|e| matches!(e.kind, EventKind::EpochPinned { sequence: 0 })
        && e.span == Some(session_span.id)));

    // The whole degraded serve replays byte-identically.
    let (again, _) = serve_degraded_cs5();
    assert_eq!(again.trace_json(), recorder.trace_json());
    assert_eq!(again.trace_hash(), recorder.trace_hash());
}
