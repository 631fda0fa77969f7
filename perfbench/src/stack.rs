//! One served query, untraced (`Session::run`, exactly as a user calls it)
//! or traced (the same calls made one layer at a time, each timed from
//! outside), plus the fingerprint the output checks compare.

use std::collections::BTreeMap;
use std::sync::Arc;

use arachnet::{
    ChaosRuntime, Engine, EventKind, FaultPlan, GeneratedSolution, LanguageModel, PipelineError,
    Recorder, ResilienceConfig, ResilientRuntime, RetryPolicy, RunHealth, Session, SpanKind,
    SpanStatus,
};
use llm::protocol::QueryContext;
use llm::{Completion, LlmError, Prompt};
use registry::{FunctionId, Registry};
use workflow::{execute_with, ExecOptions, ExecutionReport, InvokeContext, ToolError, ToolRuntime};
use workflow::{Value, Workflow};

use crate::trace::{Context, Tracer, BENCH_LAYER};

/// Times every model exchange made inside a traced call; passes through
/// untouched otherwise.
pub struct TimingModel<M> {
    inner: M,
    tracer: Arc<Tracer>,
}

impl<M> TimingModel<M> {
    pub fn new(inner: M, tracer: Arc<Tracer>) -> TimingModel<M> {
        TimingModel { inner, tracer }
    }
}

impl<M: LanguageModel> LanguageModel for TimingModel<M> {
    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        if Tracer::current().is_none() {
            return self.inner.complete(prompt);
        }
        let bytes = self.tracer.span(BENCH_LAYER, "prompt_bytes", || {
            prompt.system.len()
                + prompt.task.len()
                + serde_json::to_string(&prompt.payload).map_or(0, |json| json.len())
        });
        self.tracer.count("llm.prompt_bytes", bytes as u64);
        self.tracer
            .span("llm.complete", &prompt.task, || self.inner.complete(prompt))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times every tool call, under the span that was open when the stack
/// was built (executor workers run on threads with no span of their own).
pub struct TimingRuntime<'a, R> {
    inner: R,
    tracer: &'a Tracer,
    parent: Option<Context>,
}

impl<'a, R: ToolRuntime> TimingRuntime<'a, R> {
    pub fn new(inner: R, tracer: &'a Tracer) -> TimingRuntime<'a, R> {
        TimingRuntime {
            inner,
            tracer,
            parent: Tracer::current(),
        }
    }
}

impl<R: ToolRuntime> ToolRuntime for TimingRuntime<'_, R> {
    fn invoke(
        &self,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        self.tracer
            .span_under(self.parent, "toolkit", &function.0, || {
                self.inner.invoke(function, args)
            })
    }

    fn invoke_with(
        &self,
        ctx: &InvokeContext<'_>,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        self.tracer
            .span_under(self.parent, "toolkit", &function.0, || {
                self.inner.invoke_with(ctx, function, args)
            })
    }
}

/// The engine settings a workload serves under. The traced path rebuilds
/// `Session::execute`'s runtime stack from these.
#[derive(Clone)]
pub struct StackConfig {
    pub exec_workers: usize,
    pub retry: RetryPolicy,
    pub faults: Option<FaultPlan>,
    pub resilience: Option<ResilienceConfig>,
    /// Whether every query gets a fresh telemetry recorder.
    pub record: bool,
}

impl StackConfig {
    pub fn engine(&self, model: Arc<dyn LanguageModel>, registry: Registry) -> Engine {
        let mut engine = Engine::new(model, registry)
            .with_exec_workers(self.exec_workers)
            .with_retry_policy(self.retry);
        if let Some(plan) = &self.faults {
            engine = engine.with_fault_plan(plan.clone());
        }
        if let Some(resilience) = &self.resilience {
            engine = engine.with_resilience(resilience.clone());
        }
        engine
    }
}

/// What a served query produced.
pub struct Served {
    pub solution: GeneratedSolution,
    pub report: ExecutionReport,
}

/// `Session::run` from the user's side: the measured latency covers
/// exactly `Engine::session` through the returned `SessionRun`.
pub fn run_untraced(
    engine: &Engine,
    config: &StackConfig,
    key: &str,
    query: &str,
    context: &QueryContext,
    recorder: &Arc<Recorder>,
) -> Result<Served, PipelineError> {
    let session = engine.session(key)?;
    let session = if config.record {
        session.with_recorder(Arc::clone(recorder))
    } else {
        session
    };
    let run = session.run(query, context)?;
    Ok(Served {
        solution: run.solution,
        report: run.report,
    })
}

/// `Session::run` made one layer at a time: `Session::generate` and
/// `workflow::execute_with` over the session's runtime stack, each
/// timed, with a timing runtime innermost. The recorder always counts
/// artifact-cache probes; it records spans and events only when the
/// workload records (`config.record`), as a session recorder would.
pub fn run_traced(
    tracer: &Tracer,
    engine: &Engine,
    config: &StackConfig,
    key: &str,
    query: &str,
    context: &QueryContext,
    recorder: &Arc<Recorder>,
) -> Result<Served, PipelineError> {
    let session = engine.session(key)?;
    if config.record {
        recorder.begin_span(SpanKind::Session, query);
        recorder.emit(EventKind::EpochPinned {
            sequence: session.epoch_sequence(),
        });
    }
    let solution = match tracer.span("core.generate", "", || session.generate(query, context)) {
        Ok(solution) => solution,
        Err(e) => {
            if config.record {
                recorder.end_span(SpanStatus::Failed);
            }
            return Err(e);
        }
    };
    let args = solution.query_args();
    let report = tracer.span("workflow.execute", "", || {
        execute(
            tracer,
            &session,
            config,
            recorder,
            &solution.workflow,
            &args,
        )
    });
    if config.record {
        recorder.end_span(match &report.health {
            RunHealth::Ok => SpanStatus::Ok,
            RunHealth::Degraded { .. } => SpanStatus::Degraded,
            RunHealth::Failed { .. } => SpanStatus::Failed,
        });
    }
    Ok(Served { solution, report })
}

/// `Session::execute`'s stack: chaos (when a fault plan is set) under
/// resilience (outermost), over a timing runtime over the session's
/// standard runtime.
fn execute(
    tracer: &Tracer,
    session: &Session,
    config: &StackConfig,
    recorder: &Arc<Recorder>,
    workflow: &Workflow,
    args: &BTreeMap<String, Value>,
) -> ExecutionReport {
    let registry = session.registry();
    let base = TimingRuntime::new(
        session.runtime().with_recorder(Arc::clone(recorder)),
        tracer,
    );
    let recorder = config.record.then(|| Arc::clone(recorder));
    let options = ExecOptions {
        workers: config.exec_workers,
        retry: config.retry,
        recorder: recorder.clone(),
    };
    let recorder = recorder.as_ref();
    let run = |runtime: &dyn ToolRuntime| execute_with(workflow, registry, runtime, args, &options);
    match (&config.faults, &config.resilience) {
        (None, None) => run(&base),
        (Some(plan), None) => run(&chaos(base, plan, recorder)),
        (None, Some(res)) => run(&resilient(base, res, recorder)),
        (Some(plan), Some(res)) => run(&resilient(chaos(base, plan, recorder), res, recorder)),
    }
}

fn chaos<R: ToolRuntime>(
    inner: R,
    plan: &FaultPlan,
    recorder: Option<&Arc<Recorder>>,
) -> ChaosRuntime<R> {
    let runtime = ChaosRuntime::new(inner, plan.clone());
    match recorder {
        Some(r) => runtime.with_recorder(Arc::clone(r)),
        None => runtime,
    }
}

fn resilient<R: ToolRuntime>(
    inner: R,
    config: &ResilienceConfig,
    recorder: Option<&Arc<Recorder>>,
) -> ResilientRuntime<R> {
    let runtime = ResilientRuntime::new(inner, config.clone());
    match recorder {
        Some(r) => runtime.with_recorder(Arc::clone(r)),
        None => runtime,
    }
}

/// What the output checks compare between a query and its warm-up run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub source: u64,
    pub outputs: u64,
    pub health: RunHealth,
    pub trace: Option<u64>,
}

/// FNV-1a over a byte stream.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

impl Fingerprint {
    pub fn of(served: &Served, trace: Option<u64>) -> Fingerprint {
        let outputs = served
            .report
            .outputs
            .iter()
            .fold(FNV_SEED, |h, (step, value)| {
                let h = fnv(h, step.0.as_bytes());
                fnv(
                    h,
                    serde_json::to_string(value.json())
                        .unwrap_or_default()
                        .as_bytes(),
                )
            });
        Fingerprint {
            source: fnv(FNV_SEED, served.solution.source_code.as_bytes()),
            outputs,
            health: served.report.health.clone(),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arachnet::{BreakerConfig, DeterministicExpertModel, FaultKind};
    use toolkit::{catalog, scenarios};

    fn context(session: &Session) -> QueryContext {
        let scenario = session.scenario();
        let days = scenario.horizon.duration().as_seconds() / 86_400;
        catalog::query_context(&scenario.world, scenario.now, days)
    }

    fn drill_config() -> StackConfig {
        StackConfig {
            exec_workers: 2,
            retry: RetryPolicy::with_retries(2),
            faults: Some(
                FaultPlan::new(3)
                    .with_fault("bgp.valley_violations", FaultKind::Persistent)
                    .with_fault("bgp.detect_moas", FaultKind::Transient { failures: 1 }),
            ),
            resilience: Some(ResilienceConfig::new(BreakerConfig::default())),
            record: true,
        }
    }

    #[test]
    fn traced_execution_reports_equal_session_execute() {
        let tracer = Tracer::new();
        for config in [
            StackConfig {
                record: false,
                faults: None,
                resilience: None,
                ..drill_config()
            },
            drill_config(),
        ] {
            let engine = config.engine(
                Arc::new(DeterministicExpertModel::new()),
                catalog::standard_registry(),
            );
            engine.register_scenario("cs5", scenarios::cs5_hijack_scenario());
            let session = engine.session("cs5").unwrap();
            let ctx = context(&session);
            let plain = Arc::new(Recorder::new());
            let expected = session
                .with_recorder(Arc::clone(&plain))
                .run(scenarios::CS5_QUERY, &ctx)
                .unwrap();
            let traced = Arc::new(Recorder::new());
            let served = tracer
                .span("query", "cs5", || {
                    run_traced(
                        &tracer,
                        &engine,
                        &config,
                        "cs5",
                        scenarios::CS5_QUERY,
                        &ctx,
                        &traced,
                    )
                })
                .unwrap();
            assert_eq!(served.report, expected.report);
            assert_eq!(served.solution.source_code, expected.solution.source_code);
            if config.record {
                assert!(expected.health.is_degraded());
                assert_eq!(traced.trace_hash(), plain.trace_hash());
            }
        }
        let tools = tracer
            .spans()
            .iter()
            .filter(|s| s.layer == "toolkit")
            .count();
        assert!(tools > 0, "the timing runtime saw the tool calls");
    }

    #[test]
    fn timing_model_leaves_generated_source_unchanged() {
        let tracer = Arc::new(Tracer::new());
        let model = TimingModel::new(DeterministicExpertModel::new(), Arc::clone(&tracer));
        let timed = Engine::new(Arc::new(model), catalog::standard_registry());
        let plain = Engine::new(
            Arc::new(DeterministicExpertModel::new()),
            catalog::standard_registry(),
        );
        for engine in [&timed, &plain] {
            engine.register_scenario("cs5", scenarios::cs5_hijack_scenario());
        }
        let ctx = context(&plain.session("cs5").unwrap());
        let expected = plain
            .session("cs5")
            .unwrap()
            .generate(scenarios::CS5_QUERY, &ctx)
            .unwrap();
        let session = timed.session("cs5").unwrap();
        let solution = tracer
            .span("core.generate", "", || {
                session.generate(scenarios::CS5_QUERY, &ctx)
            })
            .unwrap();
        assert_eq!(solution.source_code, expected.source_code);
        let spans = tracer.spans();
        assert!(spans.iter().any(|s| s.layer == "llm.complete"));
        assert!(tracer.counter("llm.prompt_bytes") > 0);
    }
}
