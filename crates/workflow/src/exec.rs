//! The workflow executor.
//!
//! Steps run against a [`ToolRuntime`] (the binding from function ids to
//! actual measurement-tool calls lives in the `toolkit` crate). Values
//! cross step boundaries as Arc-shared [`Value`]s — a declared
//! [`DataFormat`](registry::DataFormat) plus a payload that is either
//! JSON or a native substrate artifact (see [`crate::value`]) — so
//! fan-out never deep-clones.
//!
//! Steps run **on the caller's thread, in workflow list order**. A step
//! binding names the latest *prior* step with its target id, so list
//! order is a topological order of the dependency DAG. Parallelism lives
//! one layer up: campaign workers and session clients each run whole
//! queries, and one query never starts threads of its own. Every runtime
//! wrapper (fault plans, circuit breakers, recorders) therefore sees one
//! call sequence per query, and the report is a pure function of the
//! workflow, the runtime and the arguments.
//!
//! Quality assurance is woven into execution, as SolutionWeaver embeds it
//! in generated code: every step's output is verified against its declared
//! format, empty results raise sanity findings, and failed steps poison
//! (skip) their dependents instead of aborting the whole run.

use std::collections::BTreeMap;
use std::sync::Arc;

use registry::{FunctionId, Registry};
use serde::{Deserialize, Serialize};
use telemetry::{EventKind, Recorder, SpanKind, SpanStatus};

use crate::{Binding, StepId, Workflow};

pub use crate::value::{Value, ValueView};

/// Errors a tool invocation can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum ToolError {
    /// The runtime has no binding for this function.
    Unbound(FunctionId),
    /// Argument missing or of the wrong shape.
    BadArgument { function: FunctionId, message: String },
    /// The tool itself failed. `transient` classifies the failure for the
    /// retry machinery: transient failures (timeouts, momentary
    /// unavailability) are worth re-attempting under a [`RetryPolicy`];
    /// persistent ones are not.
    Failed { function: FunctionId, message: String, transient: bool },
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolError::Unbound(id) => write!(f, "no runtime binding for {id}"),
            ToolError::BadArgument { function, message } => {
                write!(f, "{function}: bad argument: {message}")
            }
            ToolError::Failed { function, message, .. } => {
                write!(f, "{function} failed: {message}")
            }
        }
    }
}

impl std::error::Error for ToolError {}

/// Per-invocation context the executor hands to the runtime: which step is
/// calling and which retry attempt this is. Fault injectors key on it so
/// injected faults are a pure function of the workflow shape — never of
/// call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvokeContext<'a> {
    /// The workflow step being executed.
    pub step: &'a StepId,
    /// Zero-based retry attempt (0 = first try).
    pub attempt: u32,
}

impl InvokeContext<'static> {
    /// The context of a call made outside the executor: attempt 0 of an
    /// empty step id. Runtime wrappers route their plain
    /// [`ToolRuntime::invoke`] through it, so a direct call takes the
    /// same path as an executor call.
    pub const DIRECT: InvokeContext<'static> =
        InvokeContext { step: &StepId(String::new()), attempt: 0 };
}

/// The binding from registry functions to actual tool implementations.
///
/// Runtimes are `Sync`: concurrent callers (campaign workers, session
/// clients) may run queries against one shared runtime, exactly as the
/// serving engine shares one artifact store across sessions.
pub trait ToolRuntime: Sync {
    /// Invokes `function` with named arguments.
    fn invoke(
        &self,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError>;

    /// Invokes `function` with the calling step's [`InvokeContext`].
    ///
    /// The executor always calls this entry point; the default forwards to
    /// [`ToolRuntime::invoke`], so ordinary runtimes implement only that.
    /// Wrappers that key their decisions or their telemetry on the
    /// calling step (chaos injectors, circuit breakers) override this.
    fn invoke_with(
        &self,
        ctx: &InvokeContext<'_>,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        let _ = ctx;
        self.invoke(function, args)
    }
}

/// Boxed runtimes are runtimes, so optional layers stack into one
/// `Box<dyn ToolRuntime>`. Both entry points forward: relying on the
/// default `invoke_with` would drop the [`InvokeContext`] at the box.
impl<R: ToolRuntime + ?Sized> ToolRuntime for Box<R> {
    fn invoke(
        &self,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        (**self).invoke(function, args)
    }

    fn invoke_with(
        &self,
        ctx: &InvokeContext<'_>,
        function: &FunctionId,
        args: &BTreeMap<String, Value>,
    ) -> Result<Value, ToolError> {
        (**self).invoke_with(ctx, function, args)
    }
}

/// Outcome of one step.
#[derive(Debug, Clone, PartialEq)]
pub enum StepResult {
    Ok(Value),
    Failed(ToolError),
    /// Skipped because upstream steps failed. `failed_dependencies` holds
    /// *every* root-cause step id (sorted, deduplicated): direct
    /// dependencies that failed plus the transitive roots behind poisoned
    /// dependencies, so degraded reports attribute causes completely.
    Poisoned { failed_dependencies: Vec<StepId> },
}

impl StepResult {
    pub fn is_ok(&self) -> bool {
        matches!(self, StepResult::Ok(_))
    }

    pub fn value(&self) -> Option<&Value> {
        match self {
            StepResult::Ok(v) => Some(v),
            _ => None,
        }
    }
}

/// Severity of a QA finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QaSeverity {
    Info,
    Warning,
    Error,
}

/// One woven-in QA finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QaFinding {
    pub step: StepId,
    pub severity: QaSeverity,
    pub message: String,
}

/// Overall health of one execution, summarizing how failures relate to
/// step criticality (see [`crate::Step::critical`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunHealth {
    /// Every step succeeded.
    Ok,
    /// Some steps failed or were poisoned, but every failure traces to a
    /// non-critical step: the surviving outputs are trustworthy, the
    /// report merely lacks enrichment.
    Degraded { failed_steps: Vec<StepId> },
    /// At least one critical step failed (or a poisoning root cannot be
    /// attributed to a known non-critical failure).
    Failed { failed_steps: Vec<StepId> },
}

impl RunHealth {
    pub fn is_ok(&self) -> bool {
        matches!(self, RunHealth::Ok)
    }

    pub fn is_degraded(&self) -> bool {
        matches!(self, RunHealth::Degraded { .. })
    }

    /// The failed step ids (sorted), empty when healthy.
    pub fn failed_steps(&self) -> &[StepId] {
        match self {
            RunHealth::Ok => &[],
            RunHealth::Degraded { failed_steps } | RunHealth::Failed { failed_steps } => {
                failed_steps
            }
        }
    }
}

/// The full execution report. Deterministic for a given workflow, runtime
/// and argument set.
#[derive(Debug, PartialEq)]
pub struct ExecutionReport {
    /// Per-step results, in canonical step-id order.
    pub results: BTreeMap<StepId, StepResult>,
    /// Workflow outputs (only the steps that succeeded).
    pub outputs: BTreeMap<StepId, Value>,
    /// QA findings, in workflow list order (per-step findings keep their
    /// emission order).
    pub qa: Vec<QaFinding>,
    /// Steps executed / failed / poisoned.
    pub executed: usize,
    pub failed: usize,
    pub poisoned: usize,
    /// Total retries spent across all steps.
    pub retries: usize,
    /// Total logical backoff ticks accumulated by those retries.
    pub backoff_ticks: u64,
    /// Health classification of the run.
    pub health: RunHealth,
}

impl ExecutionReport {
    /// Whether every step succeeded.
    pub fn all_ok(&self) -> bool {
        self.failed == 0 && self.poisoned == 0
    }

    /// The single output value, when the workflow declares exactly one.
    pub fn sole_output(&self) -> Option<&Value> {
        if self.outputs.len() == 1 {
            self.outputs.values().next()
        } else {
            None
        }
    }
}

/// Budgeted retries with deterministic logical backoff.
///
/// Only [`ToolError::Failed`] with `transient: true` is retried. Backoff
/// is counted in *logical ticks* — `1 << attempt` — never wall-clock
/// sleeps, so retried runs stay bit-identical across reruns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 disables retries).
    pub max_retries: u32,
}

impl RetryPolicy {
    /// A policy allowing `max_retries` extra attempts.
    pub fn with_retries(max_retries: u32) -> RetryPolicy {
        RetryPolicy { max_retries }
    }

    /// Logical ticks charged before re-running attempt `attempt + 1`.
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        1 << attempt.min(16)
    }
}

/// Executor tuning.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Ignored. Steps run on the caller's thread in workflow list order;
    /// callers that want parallelism run several queries at once.
    #[deprecated(note = "steps run on the caller's thread; this field is ignored")]
    pub workers: usize,
    /// Retry budget for transient tool failures.
    pub retry: RetryPolicy,
    /// Optional deterministic trace/metrics collector. When present, the
    /// executor records as steps run: a workflow span, one step span per
    /// step and one attempt span per invocation, with `Retry` and
    /// `PoisonAttributed` events on the step spans. Runtime wrappers that
    /// hold the same recorder emit onto the attempt span that is open
    /// while their call runs.
    pub recorder: Option<Arc<Recorder>>,
}

/// Executes a workflow with default options.
///
/// `query_args` supplies values for [`Binding::QueryArg`] bindings. The
/// workflow should already have passed [`crate::check()`]; execution is
/// defensive regardless.
pub fn execute(
    workflow: &Workflow,
    registry: &Registry,
    runtime: &dyn ToolRuntime,
    query_args: &BTreeMap<String, Value>,
) -> ExecutionReport {
    execute_with(workflow, registry, runtime, query_args, &ExecOptions::default())
}

/// What one step produced: its result plus the QA findings it emitted.
struct StepOutcome {
    result: StepResult,
    qa: Vec<QaFinding>,
    /// Whether the tool was actually invoked (poisoned steps and steps
    /// with missing query arguments never reach the runtime).
    invoked: bool,
    /// Retries spent on this step.
    retries: usize,
    /// Logical backoff ticks those retries accumulated.
    backoff_ticks: u64,
}

/// Executes a workflow with explicit options.
///
/// Steps run one at a time on the caller's thread, in workflow list
/// order. A [`Binding::Step`] resolves to the latest *prior* occurrence
/// of its target id, so list order is a topological order: every step
/// reads only outcomes that already exist, and a forward or dangling
/// reference poisons the step. A panicking tool unwinds straight out of
/// this call.
///
/// With a recorder in `options`, spans open and close around each step
/// and attempt as it runs, on the logical clock: one tick per attempt,
/// [`RetryPolicy::backoff_ticks`] per retry, one tick per step that never
/// reaches the runtime.
pub fn execute_with(
    workflow: &Workflow,
    registry: &Registry,
    runtime: &dyn ToolRuntime,
    query_args: &BTreeMap<String, Value>,
    options: &ExecOptions,
) -> ExecutionReport {
    let steps = &workflow.steps;
    let run = StepRunner { registry, runtime, query_args, options };
    run.record(|r| r.begin_span(SpanKind::Workflow, &workflow.id));
    // `latest[id]` indexes the newest earlier step with that id in `done`.
    let mut latest: BTreeMap<&StepId, usize> = BTreeMap::new();
    let mut done: Vec<StepResult> = Vec::with_capacity(steps.len());
    let mut qa: Vec<QaFinding> = Vec::new();
    let (mut executed, mut failed, mut poisoned) = (0usize, 0usize, 0usize);
    let (mut retries, mut backoff_ticks) = (0usize, 0u64);
    for step in steps {
        run.record(|r| r.begin_span(SpanKind::Step, &step.id.0));
        let outcome = run.step(step, |target| latest.get(target).map(|&j| &done[j]));
        if outcome.invoked {
            executed += 1;
        }
        let status = match &outcome.result {
            StepResult::Ok(_) => SpanStatus::Ok,
            StepResult::Failed(_) => {
                failed += 1;
                SpanStatus::Failed
            }
            StepResult::Poisoned { .. } => {
                poisoned += 1;
                SpanStatus::Poisoned
            }
        };
        // A step that never reaches the runtime costs one tick; a
        // poisoned one carries its root causes.
        run.record(|r| {
            if !outcome.invoked {
                if let StepResult::Poisoned { failed_dependencies } = &outcome.result {
                    let roots = failed_dependencies.iter().map(|id| id.0.clone()).collect();
                    r.emit(EventKind::PoisonAttributed { roots });
                }
                r.advance(1);
            }
            r.end_span(status);
        });
        retries += outcome.retries;
        backoff_ticks += outcome.backoff_ticks;
        qa.extend(outcome.qa);
        latest.insert(&step.id, done.len());
        done.push(outcome.result);
    }
    // Any failed or poisoned step degrades the workflow span; the session
    // span carries the authoritative `RunHealth` mapping.
    run.record(|r| {
        r.end_span(if failed + poisoned == 0 { SpanStatus::Ok } else { SpanStatus::Degraded });
    });

    // Results are keyed canonically; a later duplicate id overwrites an
    // earlier one.
    let mut results: BTreeMap<StepId, StepResult> = BTreeMap::new();
    let mut critical: BTreeMap<&StepId, bool> = BTreeMap::new();
    for (step, result) in steps.iter().zip(done) {
        results.insert(step.id.clone(), result);
        critical.insert(&step.id, step.critical);
    }

    let outputs: BTreeMap<StepId, Value> = workflow
        .outputs
        .iter()
        .filter_map(|id| results.get(id).and_then(|r| r.value()).map(|v| (id.clone(), v.clone())))
        .collect();

    let health = compute_health(&results, &critical);

    ExecutionReport {
        results,
        outputs,
        qa,
        executed,
        failed,
        poisoned,
        retries,
        backoff_ticks,
        health,
    }
}

/// Classifies run health from the canonical results: Ok when nothing
/// failed; Degraded when every failed step is non-critical and every
/// poisoning root traces to one of those non-critical failures; Failed
/// otherwise (including dangling-reference poisonings with no attributable
/// root failure).
fn compute_health(
    results: &BTreeMap<StepId, StepResult>,
    critical: &BTreeMap<&StepId, bool>,
) -> RunHealth {
    let failed_steps: Vec<StepId> = results
        .iter()
        .filter(|(_, r)| matches!(r, StepResult::Failed(_)))
        .map(|(id, _)| id.clone())
        .collect();
    let poison_roots: Vec<&StepId> = results
        .values()
        .filter_map(|r| match r {
            StepResult::Poisoned { failed_dependencies } => Some(failed_dependencies.iter()),
            _ => None,
        })
        .flatten()
        .collect();
    if failed_steps.is_empty() && poison_roots.is_empty() {
        return RunHealth::Ok;
    }
    let degradable_failure = |id: &StepId| critical.get(id) == Some(&false);
    let roots_attributed = poison_roots
        .iter()
        .all(|root| failed_steps.binary_search(root).is_ok() && degradable_failure(root));
    if failed_steps.iter().all(degradable_failure) && roots_attributed {
        RunHealth::Degraded { failed_steps }
    } else {
        RunHealth::Failed { failed_steps }
    }
}

/// What every step of one execution reads: the registry, the runtime,
/// the query arguments and the options (retry budget, recorder).
struct StepRunner<'a> {
    registry: &'a Registry,
    runtime: &'a dyn ToolRuntime,
    query_args: &'a BTreeMap<String, Value>,
    options: &'a ExecOptions,
}

impl StepRunner<'_> {
    /// Records onto the options' recorder, when there is one.
    fn record<T>(&self, record: impl FnOnce(&Recorder) -> T) {
        if let Some(recorder) = &self.options.recorder {
            record(recorder);
        }
    }

    /// Runs one step: binding resolution (the first unsatisfiable
    /// binding in parameter-name order decides the step's category),
    /// tool invocation with budgeted retries, each attempt in its own
    /// span, woven-in QA. `prior` returns the result of the latest earlier
    /// step with a given id.
    fn step<'r>(
        &self,
        step: &crate::Step,
        prior: impl Fn(&StepId) -> Option<&'r StepResult>,
    ) -> StepOutcome {
        let StepRunner { registry, runtime, query_args, options } = *self;
        let retry = &options.retry;
        let mut qa: Vec<QaFinding> = Vec::new();

        // Resolve bindings. Once a poisoned binding is seen, the remaining
        // bindings are scanned only to widen the root-cause list — they can
        // no longer change the step's category.
        let mut args: BTreeMap<String, Value> = BTreeMap::new();
        let mut poison_roots: Vec<StepId> = Vec::new();
        for (name, binding) in &step.inputs {
            match binding {
                Binding::Const { format, value } => {
                    args.insert(name.clone(), Value::new(*format, value.clone()));
                }
                Binding::QueryArg { name: arg, format } => match query_args.get(arg) {
                    Some(v) => {
                        args.insert(name.clone(), v.clone());
                    }
                    None if poison_roots.is_empty() => {
                        qa.push(QaFinding {
                            step: step.id.clone(),
                            severity: QaSeverity::Error,
                            message: format!("query argument {arg} ({format}) not supplied"),
                        });
                        return StepOutcome {
                            result: StepResult::Failed(ToolError::BadArgument {
                                function: step.function.clone(),
                                message: format!("missing query argument {arg}"),
                            }),
                            qa,
                            invoked: false,
                            retries: 0,
                            backoff_ticks: 0,
                        };
                    }
                    None => {}
                },
                // Attribute the root cause: a poisoned dependency
                // contributes its (already transitive) roots; a failed
                // one, or an unresolvable target (forward or dangling
                // reference), the referenced id itself.
                Binding::Step(target) => match prior(target) {
                    Some(StepResult::Ok(v)) => {
                        args.insert(name.clone(), v.clone());
                    }
                    Some(StepResult::Poisoned { failed_dependencies }) => {
                        poison_roots.extend(failed_dependencies.iter().cloned());
                    }
                    Some(StepResult::Failed(_)) | None => poison_roots.push(target.clone()),
                },
            }
        }
        if !poison_roots.is_empty() {
            poison_roots.sort();
            poison_roots.dedup();
            return StepOutcome {
                result: StepResult::Poisoned { failed_dependencies: poison_roots },
                qa,
                invoked: false,
                retries: 0,
                backoff_ticks: 0,
            };
        }

        // Invoke (composites expand to their sequence) inside an attempt
        // span, retrying transient failures within the policy's budget.
        // Backoff is logical ticks, so the loop — and therefore the report
        // and the trace — is deterministic.
        let mut attempt: u32 = 0;
        let mut backoff_ticks: u64 = 0;
        let invoked = loop {
            let ctx = InvokeContext { step: &step.id, attempt };
            self.record(|r| r.begin_span(SpanKind::Attempt, &step.function.0));
            let result = invoke_entry(registry, runtime, &ctx, &step.function, &args);
            self.record(|r| {
                r.advance(1);
                r.end_span(if result.is_ok() { SpanStatus::Ok } else { SpanStatus::Failed });
            });
            match result {
                Err(ToolError::Failed { function, message, transient: true })
                    if attempt < retry.max_retries =>
                {
                    let ticks = retry.backoff_ticks(attempt);
                    self.record(|r| {
                        r.emit(EventKind::Retry { attempt, backoff_ticks: ticks });
                        r.advance(ticks);
                    });
                    backoff_ticks += ticks;
                    qa.push(QaFinding {
                        step: step.id.clone(),
                        severity: QaSeverity::Info,
                        message: format!(
                            "attempt {}: {function} failed transiently ({message}); retrying after {ticks} logical tick(s)",
                            attempt + 1
                        ),
                    });
                    attempt += 1;
                }
                other => break other,
            }
        };
        let retries = attempt as usize;

        match invoked {
            Ok(value) => {
                // Woven-in QA: declared format check + emptiness sanity.
                if let Some(entry) = registry.get(&step.function) {
                    if !value.format.compatible_with(entry.output) {
                        qa.push(QaFinding {
                            step: step.id.clone(),
                            severity: QaSeverity::Error,
                            message: format!(
                                "output format {} incompatible with declared {}",
                                value.format, entry.output
                            ),
                        });
                    }
                }
                if value.is_empty_payload() {
                    qa.push(QaFinding {
                        step: step.id.clone(),
                        severity: QaSeverity::Warning,
                        message: "step produced an empty result".to_string(),
                    });
                }
                StepOutcome { result: StepResult::Ok(value), qa, invoked: true, retries, backoff_ticks }
            }
            Err(e) => {
                qa.push(QaFinding {
                    step: step.id.clone(),
                    severity: QaSeverity::Error,
                    message: e.to_string(),
                });
                StepOutcome { result: StepResult::Failed(e), qa, invoked: true, retries, backoff_ticks }
            }
        }
    }
}

/// Invokes a function, expanding curator-mined composites: the sequence
/// runs in order, each function's output feeding the next one's first
/// required parameter (remaining arguments pass through by name). The
/// calling step's [`InvokeContext`] flows through to every leaf call.
fn invoke_entry(
    registry: &Registry,
    runtime: &dyn ToolRuntime,
    ctx: &InvokeContext<'_>,
    function: &FunctionId,
    args: &BTreeMap<String, Value>,
) -> Result<Value, ToolError> {
    let entry = registry.get(function);
    match entry.map(|e| e.implementation.clone()) {
        Some(registry::Implementation::Composite { sequence }) => {
            let mut carried: Option<Value> = None;
            for fid in &sequence {
                let mut call_args = args.clone();
                if let (Some(prev), Some(sub)) = (&carried, registry.get(fid)) {
                    if let Some(first_req) = sub.required_inputs().next() {
                        call_args.insert(first_req.name.clone(), prev.clone());
                    }
                }
                carried = Some(invoke_entry(registry, runtime, ctx, fid, &call_args)?);
            }
            carried.ok_or_else(|| ToolError::Failed {
                function: function.clone(),
                message: "composite with empty sequence".to_string(),
                transient: false,
            })
        }
        _ => runtime.invoke_with(ctx, function, args),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::Step;
    use registry::{CapabilityEntry, DataFormat, Implementation, Param, Registry};

    /// A runtime binding two toy functions.
    struct ToyRuntime;

    impl ToolRuntime for ToyRuntime {
        fn invoke(
            &self,
            function: &FunctionId,
            args: &BTreeMap<String, Value>,
        ) -> Result<Value, ToolError> {
            match function.0.as_str() {
                "toy.make" => Ok(Value::new(
                    DataFormat::Table,
                    serde_json::json!([{"v": 1}, {"v": 2}]),
                )),
                "toy.count" => {
                    let t = args.get("table").ok_or(ToolError::BadArgument {
                        function: function.clone(),
                        message: "missing table".into(),
                    })?;
                    let n = t.json().as_array().map(|a| a.len()).unwrap_or(0);
                    Ok(Value::new(DataFormat::Scalar, serde_json::json!(n)))
                }
                "toy.fail" => Err(ToolError::Failed {
                    function: function.clone(),
                    message: "intentional".into(),
                    transient: false,
                }),
                "toy.empty" => Ok(Value::new(DataFormat::Table, serde_json::json!([]))),
                _ => Err(ToolError::Unbound(function.clone())),
            }
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register(CapabilityEntry::new("toy.make", "toy", "makes a table", vec![], DataFormat::Table))
            .unwrap();
        r.register(CapabilityEntry::new(
            "toy.count",
            "toy",
            "counts rows",
            vec![Param::required("table", DataFormat::Table)],
            DataFormat::Scalar,
        ))
        .unwrap();
        r.register(CapabilityEntry::new("toy.fail", "toy", "always fails", vec![], DataFormat::Table))
            .unwrap();
        r.register(CapabilityEntry::new("toy.empty", "toy", "empty table", vec![], DataFormat::Table))
            .unwrap();
        let mut comp = CapabilityEntry::new(
            "macro.make_and_count",
            "composite",
            "makes then counts",
            vec![],
            DataFormat::Scalar,
        );
        comp.implementation = Implementation::Composite {
            sequence: vec![FunctionId::from("toy.make"), FunctionId::from("toy.count")],
        };
        r.register(comp).unwrap();
        r
    }

    #[test]
    fn linear_workflow_executes() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("a", "toy.make"))
            .with_step(Step::new("b", "toy.count").bind_step("table", "a"))
            .with_output("b");
        let report = execute(&wf, &registry(), &ToyRuntime, &BTreeMap::new());
        assert!(report.all_ok());
        assert_eq!(report.sole_output().unwrap().json(), &serde_json::json!(2));
    }

    #[test]
    fn failure_poisons_dependents() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("a", "toy.fail"))
            .with_step(Step::new("b", "toy.count").bind_step("table", "a"))
            .with_output("b");
        let report = execute(&wf, &registry(), &ToyRuntime, &BTreeMap::new());
        assert_eq!(report.failed, 1);
        assert_eq!(report.poisoned, 1);
        assert!(report.outputs.is_empty());
        assert!(matches!(
            report.results.get(&StepId::from("b")),
            Some(StepResult::Poisoned { failed_dependencies })
                if failed_dependencies == &vec![StepId::from("a")]
        ));
        assert_eq!(
            report.health,
            RunHealth::Failed { failed_steps: vec![StepId::from("a")] },
            "a critical failure fails the run"
        );
    }

    #[test]
    fn missing_query_arg_is_reported() {
        let wf = Workflow::new("w", "q").with_step(
            Step::new("a", "toy.count").bind_arg("table", "the_table", DataFormat::Table),
        );
        let report = execute(&wf, &registry(), &ToyRuntime, &BTreeMap::new());
        assert_eq!(report.failed, 1);
        assert_eq!(report.executed, 0, "missing args never reach the runtime");
        assert!(report
            .qa
            .iter()
            .any(|f| f.severity == QaSeverity::Error && f.message.contains("the_table")));
    }

    #[test]
    fn empty_output_raises_sanity_warning() {
        let wf = Workflow::new("w", "q").with_step(Step::new("a", "toy.empty"));
        let report = execute(&wf, &registry(), &ToyRuntime, &BTreeMap::new());
        assert!(report
            .qa
            .iter()
            .any(|f| f.severity == QaSeverity::Warning && f.message.contains("empty")));
    }

    #[test]
    fn composite_expands_and_chains() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("a", "macro.make_and_count"))
            .with_output("a");
        let report = execute(&wf, &registry(), &ToyRuntime, &BTreeMap::new());
        assert!(report.all_ok(), "qa: {:?}", report.qa);
        assert_eq!(report.sole_output().unwrap().json(), &serde_json::json!(2));
    }

    #[test]
    fn query_args_flow_into_steps() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("a", "toy.count").bind_arg("table", "t", DataFormat::Table))
            .with_output("a");
        let mut args = BTreeMap::new();
        args.insert(
            "t".to_string(),
            Value::new(DataFormat::Table, serde_json::json!([1, 2, 3])),
        );
        let report = execute(&wf, &registry(), &ToyRuntime, &args);
        assert!(report.all_ok());
        assert_eq!(report.sole_output().unwrap().json(), &serde_json::json!(3));
    }

    /// Runs `run` on `callers` threads at once and returns every result.
    #[expect(clippy::disallowed_methods, reason = "the 1/2/8 concurrent-caller pin")]
    fn concurrently<T: Send>(callers: usize, run: impl Fn() -> T + Sync) -> Vec<T> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers).map(|_| scope.spawn(&run)).collect();
            handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
        })
    }

    /// A DAG with fan-out and a failing branch: 1, 2 and 8 concurrent
    /// callers (worker threads) sharing one runtime each get the report a
    /// lone caller gets.
    #[test]
    fn dag_report_is_worker_count_invariant() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("src", "toy.make"))
            .with_step(Step::new("left", "toy.count").bind_step("table", "src"))
            .with_step(Step::new("right", "toy.count").bind_step("table", "src"))
            .with_step(Step::new("bad", "toy.fail"))
            .with_step(Step::new("downstream", "toy.count").bind_step("table", "bad"))
            .with_output("left")
            .with_output("right");
        let reg = registry();
        let baseline = execute(&wf, &reg, &ToyRuntime, &BTreeMap::new());
        for callers in [1, 2, 8] {
            for report in concurrently(callers, || execute(&wf, &reg, &ToyRuntime, &BTreeMap::new())) {
                assert_eq!(report, baseline, "callers={callers}");
            }
        }
        assert_eq!(baseline.failed, 1);
        assert_eq!(baseline.poisoned, 1);
        assert_eq!(baseline.outputs.len(), 2);
    }

    /// A panicking tool unwinds out of the executor.
    #[test]
    fn tool_panic_propagates() {
        struct PanickyRuntime;
        impl ToolRuntime for PanickyRuntime {
            fn invoke(
                &self,
                function: &FunctionId,
                _args: &BTreeMap<String, Value>,
            ) -> Result<Value, ToolError> {
                if function.0 == "toy.fail" {
                    panic!("runtime bug");
                }
                Ok(Value::new(DataFormat::Table, serde_json::json!([1])))
            }
        }
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("a", "toy.make"))
            .with_step(Step::new("boom", "toy.fail"))
            .with_step(Step::new("b", "toy.count").bind_step("table", "a"));
        let result = std::panic::catch_unwind(|| {
            execute(&wf, &registry(), &PanickyRuntime, &BTreeMap::new())
        });
        assert!(result.is_err(), "panic must propagate");
    }

    /// Forward references poison (the target never resolves), exactly as
    /// in list-order execution.
    #[test]
    fn forward_reference_poisons() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("b", "toy.count").bind_step("table", "a"))
            .with_step(Step::new("a", "toy.make"));
        let report = execute(&wf, &registry(), &ToyRuntime, &BTreeMap::new());
        assert_eq!(report.poisoned, 1);
        assert!(matches!(
            report.results.get(&StepId::from("b")),
            Some(StepResult::Poisoned { failed_dependencies })
                if failed_dependencies == &vec![StepId::from("a")]
        ));
        assert!(
            matches!(report.health, RunHealth::Failed { .. }),
            "a dangling-reference poisoning has no attributable non-critical root"
        );
    }

    /// A step with several failed upstream paths records *every* root
    /// cause, sorted — not just the first one discovered.
    #[test]
    fn poisoning_collects_all_failed_dependencies() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("fail_z", "toy.fail"))
            .with_step(Step::new("fail_a", "toy.fail"))
            .with_step(Step::new("mid", "toy.count").bind_step("table", "fail_z"))
            .with_step(
                Step::new("join", "toy.count")
                    .bind_step("table", "mid")
                    .bind_step("extra", "fail_a"),
            );
        let report = execute(&wf, &registry(), &ToyRuntime, &BTreeMap::new());
        assert!(matches!(
            report.results.get(&StepId::from("join")),
            Some(StepResult::Poisoned { failed_dependencies })
                if failed_dependencies == &vec![StepId::from("fail_a"), StepId::from("fail_z")]
        ));
    }

    /// The diamond-DAG propagation contract: one shared upstream failure
    /// poisons both branches and their join — and nothing in an unrelated
    /// subtree.
    #[test]
    fn diamond_failure_poisons_both_branches_only() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("apex", "toy.fail"))
            .with_step(Step::new("left", "toy.count").bind_step("table", "apex"))
            .with_step(Step::new("right", "toy.count").bind_step("table", "apex"))
            .with_step(
                Step::new("join", "toy.count")
                    .bind_step("table", "left")
                    .bind_step("other", "right"),
            )
            .with_step(Step::new("other_root", "toy.make"))
            .with_step(Step::new("other_leaf", "toy.count").bind_step("table", "other_root"))
            .with_output("join")
            .with_output("other_leaf");
        let baseline = execute(&wf, &registry(), &ToyRuntime, &BTreeMap::new());
        let apex_roots = vec![StepId::from("apex")];
        for poisoned in ["left", "right", "join"] {
            assert!(
                matches!(
                    baseline.results.get(&StepId::from(poisoned)),
                    Some(StepResult::Poisoned { failed_dependencies })
                        if failed_dependencies == &apex_roots
                ),
                "{poisoned} must be poisoned by apex alone"
            );
        }
        assert!(baseline.results[&StepId::from("other_root")].is_ok());
        assert!(baseline.results[&StepId::from("other_leaf")].is_ok());
        assert_eq!(baseline.outputs.len(), 1, "unrelated subtree still produces its output");
    }

    /// A runtime whose function fails transiently on early attempts —
    /// keyed purely on the executor-provided attempt counter, so it is
    /// deterministic without internal state.
    struct TransientRuntime {
        fail_attempts: u32,
    }

    impl ToolRuntime for TransientRuntime {
        fn invoke(
            &self,
            function: &FunctionId,
            args: &BTreeMap<String, Value>,
        ) -> Result<Value, ToolError> {
            self.invoke_with(&InvokeContext::DIRECT, function, args)
        }

        fn invoke_with(
            &self,
            ctx: &InvokeContext<'_>,
            function: &FunctionId,
            _args: &BTreeMap<String, Value>,
        ) -> Result<Value, ToolError> {
            if ctx.attempt < self.fail_attempts {
                Err(ToolError::Failed {
                    function: function.clone(),
                    message: "flaky".into(),
                    transient: true,
                })
            } else {
                Ok(Value::new(DataFormat::Table, serde_json::json!([{"v": 1}])))
            }
        }
    }

    #[test]
    fn transient_failures_retry_within_budget() {
        let wf = Workflow::new("w", "q").with_step(Step::new("a", "toy.make")).with_output("a");
        let report = execute_with(
            &wf,
            &registry(),
            &TransientRuntime { fail_attempts: 2 },
            &BTreeMap::new(),
            &ExecOptions { retry: RetryPolicy::with_retries(3), ..Default::default() },
        );
        assert!(report.all_ok(), "qa: {:?}", report.qa);
        assert_eq!(report.health, RunHealth::Ok);
        assert_eq!(report.retries, 2);
        // 1 << 0 + 1 << 1 = 3 logical ticks of backoff.
        assert_eq!(report.backoff_ticks, 3);
        assert_eq!(
            report.qa.iter().filter(|f| f.severity == QaSeverity::Info).count(),
            2,
            "each retry leaves an Info finding"
        );
    }

    /// Layers stacked as `Box<dyn ToolRuntime>` must still see the
    /// executor's context: a boxed runtime that falls back to the
    /// default `invoke_with` would hand the inner layer no step ids.
    #[test]
    fn boxed_runtime_forwards_invoke_context() {
        struct ContextLog(Arc<Mutex<Vec<(String, u32)>>>);
        impl ToolRuntime for ContextLog {
            fn invoke(
                &self,
                function: &FunctionId,
                args: &BTreeMap<String, Value>,
            ) -> Result<Value, ToolError> {
                ToyRuntime.invoke(function, args)
            }

            fn invoke_with(
                &self,
                ctx: &InvokeContext<'_>,
                function: &FunctionId,
                args: &BTreeMap<String, Value>,
            ) -> Result<Value, ToolError> {
                self.0.lock().expect("log lock").push((ctx.step.0.clone(), ctx.attempt));
                if ctx.step.0 == "a" && ctx.attempt == 0 {
                    return Err(ToolError::Failed {
                        function: function.clone(),
                        message: "flaky".into(),
                        transient: true,
                    });
                }
                self.invoke(function, args)
            }
        }

        let wf = Workflow::new("w", "q")
            .with_step(Step::new("a", "toy.make"))
            .with_step(Step::new("b", "toy.count").bind_step("table", "a"))
            .with_output("b");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let runtime: Box<dyn ToolRuntime> = Box::new(ContextLog(Arc::clone(&seen)));
        let report = execute_with(
            &wf,
            &registry(),
            &runtime,
            &BTreeMap::new(),
            &ExecOptions { retry: RetryPolicy::with_retries(1), ..Default::default() },
        );
        assert!(report.all_ok(), "qa: {:?}", report.qa);
        assert_eq!(report.retries, 1);
        assert_eq!(
            *seen.lock().expect("log lock"),
            vec![("a".to_string(), 0), ("a".to_string(), 1), ("b".to_string(), 0)]
        );
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_step() {
        let wf = Workflow::new("w", "q").with_step(Step::new("a", "toy.make"));
        let report = execute_with(
            &wf,
            &registry(),
            &TransientRuntime { fail_attempts: 5 },
            &BTreeMap::new(),
            &ExecOptions { retry: RetryPolicy::with_retries(1), ..Default::default() },
        );
        assert_eq!(report.failed, 1);
        assert_eq!(report.retries, 1);
        assert!(matches!(
            report.results.get(&StepId::from("a")),
            Some(StepResult::Failed(ToolError::Failed { transient: true, .. }))
        ));
    }

    #[test]
    fn persistent_failures_are_never_retried() {
        let wf = Workflow::new("w", "q").with_step(Step::new("a", "toy.fail"));
        let report = execute_with(
            &wf,
            &registry(),
            &ToyRuntime,
            &BTreeMap::new(),
            &ExecOptions { retry: RetryPolicy::with_retries(5), ..Default::default() },
        );
        assert_eq!(report.failed, 1);
        assert_eq!(report.retries, 0, "transient: false skips the retry budget");
        assert_eq!(report.backoff_ticks, 0);
    }

    /// Non-critical failures — and the poisonings they cause — degrade
    /// the run instead of failing it; surviving outputs are kept.
    #[test]
    fn non_critical_failure_degrades_instead_of_failing() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("good", "toy.make"))
            .with_step(Step::new("flaky", "toy.fail").non_critical())
            .with_step(Step::new("enrich", "toy.count").bind_step("table", "flaky"))
            .with_output("good")
            .with_output("enrich");
        let report = execute(&wf, &registry(), &ToyRuntime, &BTreeMap::new());
        assert_eq!(
            report.health,
            RunHealth::Degraded { failed_steps: vec![StepId::from("flaky")] }
        );
        assert!(!report.all_ok());
        assert_eq!(report.outputs.len(), 1, "the healthy output survives");
        assert!(report.outputs.contains_key(&StepId::from("good")));
    }

    /// A runtime standing in for a fault injector under the executor:
    /// `toy.fail` fails persistently, every other function fails
    /// transiently on attempts below `fail_attempts`, and each injected
    /// failure emits a `FaultInjected` event onto the recorder, as the
    /// chaos wrapper does.
    struct Injector {
        recorder: Arc<Recorder>,
        fail_attempts: u32,
    }

    impl ToolRuntime for Injector {
        fn invoke(
            &self,
            function: &FunctionId,
            args: &BTreeMap<String, Value>,
        ) -> Result<Value, ToolError> {
            ToyRuntime.invoke(function, args)
        }

        fn invoke_with(
            &self,
            ctx: &InvokeContext<'_>,
            function: &FunctionId,
            args: &BTreeMap<String, Value>,
        ) -> Result<Value, ToolError> {
            let transient = match function.0.as_str() {
                "toy.fail" => false,
                _ if ctx.attempt < self.fail_attempts => true,
                _ => return self.invoke(function, args),
            };
            self.recorder
                .emit(EventKind::FaultInjected { function: function.to_string(), transient });
            Err(ToolError::Failed {
                function: function.clone(),
                message: "injected".into(),
                transient,
            })
        }
    }

    /// Executes `wf` over an [`Injector`] with a recorder shared by the
    /// runtime and the executor.
    fn traced(
        wf: &Workflow,
        retry: RetryPolicy,
        fail_attempts: u32,
    ) -> (ExecutionReport, Arc<Recorder>) {
        let recorder = Arc::new(Recorder::new());
        let runtime = Injector { recorder: Arc::clone(&recorder), fail_attempts };
        let options =
            ExecOptions { retry, recorder: Some(Arc::clone(&recorder)), ..Default::default() };
        let report = execute_with(wf, &registry(), &runtime, &BTreeMap::new(), &options);
        (report, recorder)
    }

    fn attempt_spans(trace: &telemetry::Trace) -> Vec<&telemetry::Span> {
        trace.spans.iter().filter(|s| s.kind == SpanKind::Attempt).collect()
    }

    #[test]
    fn recorder_gets_parented_spans_on_the_logical_clock() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("s0", "toy.make"))
            .with_step(Step::new("s1", "toy.count").bind_step("table", "s0"));
        let (report, recorder) = traced(&wf, RetryPolicy::default(), 0);
        assert!(report.all_ok(), "qa: {:?}", report.qa);
        let trace = recorder.trace();
        // workflow + 2 steps + 2 attempts
        assert_eq!(trace.spans.len(), 5);
        let workflow = &trace.spans[0];
        assert_eq!(workflow.kind, SpanKind::Workflow);
        assert_eq!(workflow.parent, None);
        assert_eq!((workflow.start, workflow.end), (0, 2));
        let step0 = &trace.spans[1];
        assert_eq!(step0.parent, Some(workflow.id));
        let attempt0 = &trace.spans[2];
        assert_eq!(attempt0.kind, SpanKind::Attempt);
        assert_eq!(attempt0.name, "toy.make");
        assert_eq!(attempt0.parent, Some(step0.id));
        assert_eq!((attempt0.start, attempt0.end), (0, 1));
        let step1 = &trace.spans[3];
        assert_eq!((step1.start, step1.end), (1, 2));
    }

    #[test]
    fn retries_advance_backoff_and_emit_retry_events() {
        let wf = Workflow::new("w", "q").with_step(Step::new("s0", "toy.make"));
        let (report, recorder) = traced(&wf, RetryPolicy::with_retries(2), 3);
        assert_eq!(report.failed, 1, "the retry budget runs out");
        let trace = recorder.trace();
        // attempts at ticks [0,1), [2,3) (backoff 1), [5,6) (backoff 2)
        let attempts = attempt_spans(&trace);
        assert_eq!(attempts.len(), 3);
        assert_eq!((attempts[0].start, attempts[0].end), (0, 1));
        assert_eq!((attempts[1].start, attempts[1].end), (2, 3));
        assert_eq!((attempts[2].start, attempts[2].end), (5, 6));
        assert_eq!(attempts[0].status, SpanStatus::Failed);
        let retries: Vec<&telemetry::Event> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Retry { .. }))
            .collect();
        assert_eq!(retries.len(), 2);
        let step = attempts[0].parent;
        assert!(retries.iter().all(|e| e.span == step), "retries sit on the step span");
        let snap = recorder.metrics_snapshot();
        assert_eq!(snap.counter("events.retry"), 2);
    }

    #[test]
    fn wrapper_events_land_on_their_attempt_span() {
        let wf = Workflow::new("w", "q").with_step(Step::new("s0", "toy.make"));
        let (report, recorder) = traced(&wf, RetryPolicy::with_retries(2), 2);
        assert!(report.all_ok(), "qa: {:?}", report.qa);
        let trace = recorder.trace();
        let attempts = attempt_spans(&trace);
        let faults: Vec<&telemetry::Event> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
            .collect();
        assert_eq!(faults.len(), 2, "one injected fault per failed attempt");
        for (fault, attempt) in faults.iter().zip(&attempts) {
            assert_eq!(fault.span, Some(attempt.id));
            assert_eq!(fault.at, attempt.start);
        }
        assert_eq!(attempts[1].start, 2, "the second attempt starts after its backoff");
    }

    #[test]
    fn poisoned_steps_get_attribution_events() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("s0", "toy.fail"))
            .with_step(Step::new("s1", "toy.count").bind_step("table", "s0"));
        let (report, recorder) = traced(&wf, RetryPolicy::default(), 0);
        assert_eq!(report.poisoned, 1);
        let trace = recorder.trace();
        let attribution = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::PoisonAttributed { .. }))
            .expect("poison attribution recorded");
        assert_eq!(attribution.kind, EventKind::PoisonAttributed { roots: vec!["s0".into()] });
        let step1 = trace
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Step && s.name == "s1")
            .expect("poisoned step span");
        assert_eq!(attribution.span, Some(step1.id));
        assert_eq!(step1.status, SpanStatus::Poisoned);
    }

    /// Two steps sharing an id (an unchecked workflow, run defensively)
    /// each keep the events of their own invocation.
    #[test]
    fn same_id_steps_keep_their_own_wrapper_events() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("s", "toy.fail"))
            .with_step(Step::new("s", "toy.fail"));
        let (report, recorder) = traced(&wf, RetryPolicy::default(), 0);
        assert_eq!(report.executed, 2);
        let trace = recorder.trace();
        let per_attempt: Vec<usize> = attempt_spans(&trace)
            .iter()
            .map(|a| {
                trace
                    .events
                    .iter()
                    .filter(|e| {
                        e.span == Some(a.id) && matches!(e.kind, EventKind::FaultInjected { .. })
                    })
                    .count()
            })
            .collect();
        assert_eq!(per_attempt, vec![1, 1]);
    }

    #[test]
    fn critical_failure_outranks_non_critical_degradation() {
        let wf = Workflow::new("w", "q")
            .with_step(Step::new("flaky", "toy.fail").non_critical())
            .with_step(Step::new("vital", "toy.fail"));
        let report = execute(&wf, &registry(), &ToyRuntime, &BTreeMap::new());
        assert_eq!(
            report.health,
            RunHealth::Failed {
                failed_steps: vec![StepId::from("flaky"), StepId::from("vital")]
            }
        );
    }
}
