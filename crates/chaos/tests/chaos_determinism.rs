//! The chaos suite: for arbitrary generated DAGs *and* arbitrary
//! generated fault plans, execution under a [`ChaosRuntime`]
//!
//! * never panics — every injected fault surfaces as a structured
//!   [`StepResult`] / [`RunHealth`] outcome;
//! * is byte-identical across reruns with the same seed (fresh runtime,
//!   fresh recorder), including the metrics the chaos layer records;
//! * stays byte-identical when 1, 2 or 8 worker threads each run the
//!   same workflow at once, every one through its own runtime stack, as
//!   concurrent sessions do.
//!
//! Circuit breakers ride along: [`ResilientRuntime`] over
//! [`ChaosRuntime`], with arbitrary breaker tuning, on DAGs where one
//! function backs several steps, so the steps share a breaker. The
//! executor calls steps in list order, so the breaker sees one call
//! sequence per query and its report, trace and metrics are pinned the
//! same way.
//!
//! A fixed seed matrix rides along for CI: the same properties checked
//! on pinned seeds, so a regression is reproducible from the failure
//! message alone.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use chaos::{ChaosRuntime, FaultKind, FaultPlan};
use registry::{CapabilityEntry, DataFormat, FunctionId, Param, Registry};
use telemetry::{MetricsSnapshot, Recorder};
use toolkit::{BreakerConfig, ResilienceConfig, ResilientRuntime};
use workflow::{
    execute_with, ExecOptions, ExecutionReport, RetryPolicy, RunHealth, Step, ToolError,
    ToolRuntime, Value, Workflow,
};

/// The three workable functions fault plans can target.
const FUNCTIONS: [&str; 3] = ["c.alpha", "c.beta", "c.gamma"];

#[expect(clippy::unwrap_used, reason = "three distinct toy ids")]
fn chaos_registry() -> Registry {
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
    let mut wf = Workflow::new("chaos-dag", "generated");
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

/// One full chaos execution with a fresh runtime and a fresh recorder
/// attached to both the chaos layer and the executor.
fn run(
    wf: &Workflow,
    registry: &Registry,
    plan: &FaultPlan,
    retry: RetryPolicy,
) -> (ExecutionReport, MetricsSnapshot) {
    let recorder = Arc::new(Recorder::new());
    let runtime = ChaosRuntime::new(BaseRuntime, plan.clone()).with_recorder(Arc::clone(&recorder));
    let options = ExecOptions { retry, recorder: Some(Arc::clone(&recorder)), ..Default::default() };
    let report = execute_with(wf, registry, &runtime, &BTreeMap::new(), &options);
    (report, recorder.metrics_snapshot())
}

/// Runs `run` on `workers` threads at once and returns every result.
#[expect(clippy::disallowed_methods, reason = "the 1/2/8 concurrent-caller pin")]
#[expect(clippy::expect_used, reason = "a panicking caller fails the test")]
fn concurrently<T: Send>(workers: usize, run: impl Fn() -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&run)).collect();
        handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
    })
}

/// The invariants every chaos execution must satisfy, regardless of the
/// generated plan: faults surface structurally, health is consistent
/// with the counters, and injected failures are `ToolError::Failed`.
fn assert_structured(report: &ExecutionReport) {
    if report.failed == 0 && report.poisoned == 0 {
        assert_eq!(report.health, RunHealth::Ok);
    } else {
        assert!(
            !report.health.is_ok(),
            "failures must demote health: failed={} poisoned={}",
            report.failed,
            report.poisoned
        );
        assert!(!report.health.failed_steps().is_empty() || report.failed == 0);
    }
    for result in report.results.values() {
        if let workflow::StepResult::Failed(e) = result {
            assert!(
                matches!(e, ToolError::Failed { .. }),
                "injected faults surface as ToolError::Failed, got {e:?}"
            );
        }
    }
}

fn check_plan(specs: &[StepSpec], plan: &FaultPlan) {
    let wf = build_workflow(specs);
    let registry = chaos_registry();
    let retry = RetryPolicy::with_retries(2);
    let (baseline, base_metrics) = run(&wf, &registry, plan, retry);
    assert_structured(&baseline);
    // Every worker's run is a rerun with a fresh runtime: byte-identical,
    // chaos counters included.
    for workers in [1usize, 2, 8] {
        for (report, metrics) in concurrently(workers, || run(&wf, &registry, plan, retry)) {
            assert_eq!(report, baseline, "workers={workers}");
            assert_eq!(metrics, base_metrics, "workers={workers}: metrics diverged");
        }
    }
}

/// One traced execution through the stack `Session::execute` builds:
/// circuit breakers over fault injection over the base runtime, with
/// both layers and the executor recording into one fresh recorder.
/// Returns the report, the canonical trace and the metrics.
fn resilient_run(
    wf: &Workflow,
    registry: &Registry,
    plan: &FaultPlan,
    config: &ResilienceConfig,
) -> (ExecutionReport, String, MetricsSnapshot) {
    let recorder = Arc::new(Recorder::new());
    let chaos = ChaosRuntime::new(BaseRuntime, plan.clone()).with_recorder(Arc::clone(&recorder));
    let runtime =
        ResilientRuntime::new(chaos, config.clone()).with_recorder(Arc::clone(&recorder));
    let options = ExecOptions {
        retry: RetryPolicy::with_retries(2),
        recorder: Some(Arc::clone(&recorder)),
        ..Default::default()
    };
    let report = execute_with(wf, registry, &runtime, &BTreeMap::new(), &options);
    (report, recorder.trace_json(), recorder.metrics_snapshot())
}

/// Steps over `c.alpha` and `c.beta` only: a DAG of three or more steps
/// has some function backing several steps, which then share a breaker.
/// Dependencies are sparse, so fewer steps are poisoned before they
/// reach a breaker.
fn shared_step_spec() -> impl Strategy<Value = StepSpec> {
    (0usize..2, any::<u8>(), any::<u8>(), any::<bool>()).prop_map(
        |(function, a, b, critical)| StepSpec { function, deps: a & b, critical },
    )
}

fn failing_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (1u32..4).prop_map(|failures| FaultKind::Transient { failures }),
        Just(FaultKind::Persistent),
    ]
}

/// A plan that always schedules a failing fault on both step functions,
/// so their breakers see failures.
fn shared_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), failing_kind(), failing_kind(), 0u32..300_000).prop_map(
        |(seed, alpha, beta, ppm)| {
            FaultPlan::new(seed)
                .with_background_failures(ppm)
                .with_fault("c.alpha", alpha)
                .with_fault("c.beta", beta)
        },
    )
}

fn breaker_config() -> impl Strategy<Value = ResilienceConfig> {
    (1u32..5, 0u32..5, any::<bool>()).prop_map(|(trip_after, cooldown_invocations, fallback)| {
        let config =
            ResilienceConfig::new(BreakerConfig { trip_after, cooldown_invocations });
        if fallback {
            config.with_fallback("c.alpha", "c.gamma")
        } else {
            config
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_fault_plans_execute_deterministically(
        specs in proptest::collection::vec(step_spec(), 1..10),
        plan in fault_plan(),
    ) {
        check_plan(&specs, &plan);
    }

    /// Breakers shared across steps: report, canonical trace and metrics
    /// are identical across reruns and 1, 2 and 8 concurrent workers.
    #[test]
    fn breakers_over_fault_plans_execute_deterministically(
        specs in proptest::collection::vec(shared_step_spec(), 3..10),
        plan in shared_fault_plan(),
        config in breaker_config(),
    ) {
        let wf = build_workflow(&specs);
        let registry = chaos_registry();
        let baseline = resilient_run(&wf, &registry, &plan, &config);
        assert_structured(&baseline.0);
        for workers in [1usize, 2, 8] {
            for run in concurrently(workers, || resilient_run(&wf, &registry, &plan, &config)) {
                assert_eq!(run, baseline, "workers={workers}");
            }
        }
    }
}

/// The CI seed matrix: pinned plans over a pinned diamond DAG, checked
/// with the exact same invariants as the generated cases.
#[test]
fn fixed_seed_matrix_is_deterministic() {
    let specs = vec![
        StepSpec { function: 0, deps: 0, critical: true },
        StepSpec { function: 1, deps: 0b1, critical: false },
        StepSpec { function: 2, deps: 0b1, critical: true },
        StepSpec { function: 0, deps: 0b110, critical: true },
        StepSpec { function: 1, deps: 0, critical: false },
    ];
    for seed in [1u64, 7, 42, 1337, 0xDEAD_BEEF] {
        let plan = FaultPlan::new(seed)
            .with_fault("c.beta", FaultKind::Transient { failures: (seed % 4) as u32 })
            .with_fault(
                "c.gamma",
                if seed % 2 == 0 { FaultKind::Persistent } else { FaultKind::Slow { ticks: seed % 97 } },
            )
            .with_background_failures((seed % 5) as u32 * 50_000);
        check_plan(&specs, &plan);
    }
}

/// A transient fault within the retry budget is ridden through
/// completely: the run is healthy, and the retries are visible in the
/// report's accounting.
#[test]
fn retry_budget_absorbs_scheduled_transient_faults() {
    let specs = vec![
        StepSpec { function: 1, deps: 0, critical: true },
        StepSpec { function: 0, deps: 0b1, critical: true },
    ];
    let wf = build_workflow(&specs);
    let registry = chaos_registry();
    let plan = FaultPlan::new(3).with_fault("c.beta", FaultKind::Transient { failures: 2 });
    let (report, metrics) = run(&wf, &registry, &plan, RetryPolicy::with_retries(2));
    assert_eq!(report.health, RunHealth::Ok, "qa: {:?}", report.qa);
    assert_eq!(report.retries, 2);
    assert_eq!(metrics.counter("events.fault_injected"), 2);
    // Under-budget retries leave the fault visible instead.
    let (starved, _) = run(&wf, &registry, &plan, RetryPolicy::with_retries(1));
    assert!(matches!(starved.health, RunHealth::Failed { .. }));
}

/// Corrupted outputs don't fail the step — they surface through the
/// woven-in QA format check.
#[test]
fn corruption_surfaces_as_qa_findings() {
    let specs = vec![StepSpec { function: 2, deps: 0, critical: true }];
    let wf = build_workflow(&specs);
    let registry = chaos_registry();
    let plan = FaultPlan::new(9).with_fault("c.gamma", FaultKind::Corrupt);
    let (report, metrics) = run(&wf, &registry, &plan, RetryPolicy::default());
    assert_eq!(metrics.counter("events.output_corrupted"), 1);
    assert_eq!(report.failed, 0, "corruption is not a failure");
    assert!(
        report
            .qa
            .iter()
            .any(|f| f.severity == workflow::exec::QaSeverity::Error
                && f.message.contains("incompatible")),
        "qa: {:?}",
        report.qa
    );
}
