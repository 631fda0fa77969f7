//! PR-7 acceptance: resilient serving end to end.
//!
//! A session over `cs5_hijack_scenario` with an injected *persistent*
//! `bgp.valley_violations` failure must complete with
//! `health = Degraded` — the valley detector is non-critical enrichment
//! — and still return the MOAS detections that identify the hijack.
//! With a *transient* fault and a retry budget instead, the same query
//! must ride through to a healthy run. The degraded run is bit-identical
//! across 1/2/8 concurrent sessions on one engine.

use std::sync::Arc;

use arachnet::{
    BreakerConfig, ChaosRuntime, DeterministicExpertModel, Engine, EventKind, FaultKind,
    FaultPlan, Recorder, ResilienceConfig, ResilientRuntime, RetryPolicy, RunHealth, SessionRun,
    SpanKind, SpanStatus,
};
use toolkit::{catalog, scenarios};
use workflow::{execute_with, ExecOptions, StepResult};

const FORENSICS_QUERY: &str =
    "Multiple origin ASes were observed announcing the same prefixes starting two days \
     ago. Determine whether a prefix hijack or a route leak caused this, and identify \
     the offending AS.";

fn engine(plan: FaultPlan, retry: RetryPolicy) -> Engine {
    let engine = Engine::new(
        Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    )
    .with_fault_plan(plan)
    .with_retry_policy(retry);
    engine.register_scenario("cs5", scenarios::cs5_hijack_scenario());
    engine
}

/// Opens a CS5 session and serves the forensics query through it.
fn serve_on(engine: &Engine) -> SessionRun {
    let session = engine.session("cs5").expect("cs5 registered");
    session.run(FORENSICS_QUERY, &session.context()).expect("query serves despite the fault")
}

fn serve(plan: FaultPlan, retry: RetryPolicy) -> SessionRun {
    serve_on(&engine(plan, retry))
}

fn valley_outage() -> FaultPlan {
    FaultPlan::new(1).with_fault("bgp.valley_violations", FaultKind::Persistent)
}

/// Curating CS5's own workflow must not turn a MOAS-detector outage
/// from a degraded answer into no answer. The workflow chains
/// `bgp.updates` (critical) into `bgp.detect_moas` (non-critical); a
/// composite of the two would be one critical step.
#[test]
fn curating_cs5_keeps_a_moas_outage_degraded() {
    let plan = FaultPlan::new(1).with_fault("bgp.detect_moas", FaultKind::Persistent);
    let engine = engine(plan, RetryPolicy::default());
    let before = serve_on(&engine);
    let failed = before.health.failed_steps();
    assert!(before.health.is_degraded(), "health: {:?}", before.health);
    assert!(failed.iter().all(|s| s.0.contains("detect_moas")), "failed steps: {failed:?}");

    let corpus = vec![before.solution.summary(true); 3];
    let outcome = engine.curate(&corpus, 2).expect("curation runs");
    assert!(
        outcome.rejected.iter().any(|(id, why)| id.contains("detect_moas")
            && why.starts_with("members disagree on non-critical")),
        "the mixed chain is rejected: {:?}",
        outcome.rejected
    );
    let after = serve_on(&engine);
    assert!(after.health.is_degraded(), "curated health: {:?}", after.health);
    assert_eq!(after.report.outputs, before.report.outputs, "curation keeps the answer");
}

#[test]
fn persistent_valley_failure_degrades_but_keeps_moas_detections() {
    let run = serve(valley_outage(), RetryPolicy::default());

    // The run degrades instead of failing: the only failed step is the
    // (non-critical) valley detector.
    assert!(run.health.is_degraded(), "health: {:?}", run.health);
    let failed = run.health.failed_steps();
    assert_eq!(failed.len(), 1, "failed steps: {failed:?}");
    assert!(failed[0].0.contains("valley"), "failed steps: {failed:?}");

    // MOAS detections survive — "detector unavailable" is not "no
    // anomaly".
    let moas = run
        .report
        .results
        .iter()
        .find(|(id, _)| id.0.contains("detect_moas"))
        .and_then(|(_, r)| r.value())
        .expect("moas step executed");
    let conflicts: Vec<bgp_sim::MoasConflict> = moas.parse().expect("conflicts parse");
    assert!(!conflicts.is_empty(), "the hijack still surfaces as MOAS conflicts");

    // Everything downstream of the valley detector is poisoned and
    // attributes its root cause to the valley step alone.
    for (id, result) in &run.report.results {
        if let StepResult::Poisoned { failed_dependencies } = result {
            assert_eq!(failed_dependencies, failed, "{id}: wrong root attribution");
        }
    }
    assert!(run.report.poisoned > 0, "attribution depends on the valley detector");
}

/// 1, 2 and 8 worker threads each open a session on one fresh engine
/// and serve the degraded query at once; every run matches a lone serve.
#[test]
fn degraded_serving_is_bit_identical_across_worker_counts() {
    let base = serve(valley_outage(), RetryPolicy::default());
    for workers in [1usize, 2, 8] {
        let engine = engine(valley_outage(), RetryPolicy::default());
        #[expect(clippy::disallowed_methods, reason = "the 1/2/8 concurrent-caller pin")]
        let runs: Vec<SessionRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(|| serve_on(&engine))).collect();
            handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
        });
        for run in runs {
            assert_eq!(run.report, base.report, "{workers} workers: degraded run diverged");
            assert_eq!(run.health, base.health);
        }
    }
}

#[test]
fn transient_valley_failure_rides_through_on_retries() {
    let flaky = FaultPlan::new(2).with_fault("bgp.valley_violations", FaultKind::Transient {
        failures: 2,
    });
    // Without a retry budget the transient outage still degrades the run...
    let starved = serve(flaky.clone(), RetryPolicy::default());
    assert!(starved.health.is_degraded(), "health: {:?}", starved.health);
    // ...with one, the session serves a fully healthy report.
    let run = serve(flaky, RetryPolicy::with_retries(2));
    assert_eq!(run.health, RunHealth::Ok, "qa: {:?}", run.report.qa);
    assert!(run.report.all_ok());
    assert_eq!(run.report.retries, 2);
}

/// The runtime stack `Session::execute` builds, rebuilt from public parts
/// — resilience over chaos over the session's standard runtime, each
/// layer reporting into one recorder — and run through `execute_with`
/// inside a hand-opened session span, serves the fault drill's plan with
/// the same report and the same trace as `Session::run`.
#[test]
fn hand_built_runtime_stack_matches_session_run() {
    let plan = FaultPlan::new(3)
        .with_fault("bgp.valley_violations", FaultKind::Persistent)
        .with_fault("bgp.detect_moas", FaultKind::Transient { failures: 1 });
    let resilience = ResilienceConfig::new(BreakerConfig::default());
    let retry = RetryPolicy::with_retries(2);
    let engine = Engine::new(
        Arc::new(DeterministicExpertModel::new()),
        catalog::standard_registry(),
    )
    .with_fault_plan(plan.clone())
    .with_resilience(resilience.clone())
    .with_retry_policy(retry);
    engine.register_scenario("cs5", scenarios::cs5_hijack_scenario());
    let session = engine.session("cs5").expect("cs5 registered");
    let context = session.context();

    let served = Arc::new(Recorder::new());
    let expected = engine
        .session("cs5")
        .expect("cs5 registered")
        .with_recorder(Arc::clone(&served))
        .run(scenarios::CS5_QUERY, &context)
        .expect("query serves despite faults");
    assert!(expected.health.is_degraded(), "health: {:?}", expected.health);

    let recorder = Arc::new(Recorder::new());
    recorder.begin_span(SpanKind::Session, scenarios::CS5_QUERY);
    recorder.emit(EventKind::EpochPinned { sequence: session.epoch_sequence() });
    let solution = session.generate(scenarios::CS5_QUERY, &context).expect("generates");
    let standard = session.runtime().with_recorder(Arc::clone(&recorder));
    let chaos = ChaosRuntime::new(standard, plan).with_recorder(Arc::clone(&recorder));
    let runtime = ResilientRuntime::new(chaos, resilience).with_recorder(Arc::clone(&recorder));
    let options = ExecOptions { retry, recorder: Some(Arc::clone(&recorder)), ..Default::default() };
    let report = execute_with(
        &solution.workflow,
        session.registry(),
        &runtime,
        &solution.query_args(),
        &options,
    );
    recorder.end_span(SpanStatus::Degraded);

    assert_eq!(report, expected.report);
    assert_eq!(solution.source_code, expected.solution.source_code);
    assert_eq!(recorder.trace_hash(), served.trace_hash());
}
