//! The workflow executor.
//!
//! Steps run over a dependency DAG against a [`ToolRuntime`] (the binding
//! from function ids to actual measurement-tool calls lives in the
//! `toolkit` crate). Values cross step boundaries as Arc-shared
//! [`Value`]s — a declared [`DataFormat`](registry::DataFormat) plus a payload that is either
//! JSON or a native substrate artifact (see [`crate::value`]) — so
//! fan-out never deep-clones.
//!
//! Independent steps execute **in parallel**: the executor derives the
//! dependency DAG from the step bindings and runs ready steps across a
//! scoped worker pool ([`ExecOptions::workers`]). The report is
//! **bit-identical for any worker count**: each step's result is a pure
//! function of its inputs, per-step QA findings are buffered and stitched
//! back together in workflow list order, and the result/output maps are
//! keyed canonically.
//!
//! Quality assurance is woven into execution, as SolutionWeaver embeds it
//! in generated code: every step's output is verified against its declared
//! format, empty results raise sanity findings, and failed steps poison
//! (skip) their dependents instead of aborting the whole run.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use registry::{FunctionId, Registry};
use serde::{Deserialize, Serialize};
use telemetry::{Recorder, SpanStatus, StepObservation};

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
/// worker interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvokeContext<'a> {
    /// The workflow step being executed.
    pub step: &'a StepId,
    /// Zero-based retry attempt (0 = first try).
    pub attempt: u32,
}

/// The binding from registry functions to actual tool implementations.
///
/// Runtimes are `Sync`: the executor invokes independent steps from
/// multiple worker threads against one shared runtime, exactly as the
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
    /// Wrappers that must behave deterministically under parallel
    /// execution (chaos injectors, circuit breakers) override this and key
    /// their decisions on `(step, attempt)` instead of arrival order.
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
/// and argument set — independent of the executor's worker count.
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
/// is counted in *logical ticks* — `base << attempt` — never wall-clock
/// sleeps, so retried runs stay bit-identical at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 disables retries).
    pub max_retries: u32,
    /// Base of the exponential logical backoff, in ticks.
    pub backoff_base_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 0, backoff_base_ticks: 1 }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_retries` extra attempts.
    pub fn with_retries(max_retries: u32) -> RetryPolicy {
        RetryPolicy { max_retries, ..RetryPolicy::default() }
    }

    /// Logical ticks charged before re-running attempt `attempt + 1`.
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        self.backoff_base_ticks << attempt.min(16)
    }
}

/// Executor tuning.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for independent steps. The report is identical for
    /// any value; `1` forces sequential execution.
    pub workers: usize,
    /// Retry budget for transient tool failures.
    pub retry: RetryPolicy,
    /// Optional deterministic trace/metrics collector. When present, the
    /// executor's fold assembles workflow/step/attempt spans (in workflow
    /// list order, so traces are byte-identical at any worker count) and
    /// runtime wrappers attach their buffered invocation events.
    pub recorder: Option<Arc<Recorder>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            workers: default_workers(),
            retry: RetryPolicy::default(),
            recorder: None,
        }
    }
}

/// The default worker count: the machine's parallelism, capped — workflow
/// DAGs are shallow and the substrate calls parallelize internally too.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
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

/// What one scheduled step produced: its result plus the QA findings it
/// emitted, buffered so the report can stitch findings back into workflow
/// list order regardless of completion order.
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

/// Scheduler state shared by the worker pool.
struct Scheduler {
    /// Indices ready to run, in ascending order of discovery.
    ready: VecDeque<usize>,
    /// Unresolved dependency count per step index.
    pending: Vec<usize>,
    /// Steps not yet completed.
    remaining: usize,
}

/// Executes a workflow with explicit options.
pub fn execute_with(
    workflow: &Workflow,
    registry: &Registry,
    runtime: &dyn ToolRuntime,
    query_args: &BTreeMap<String, Value>,
    options: &ExecOptions,
) -> ExecutionReport {
    let steps = &workflow.steps;
    let n = steps.len();

    // Resolve every Step binding ONCE, to the *latest prior* occurrence
    // of the target id — the same step a list-order executor would have
    // seen in its results map (later duplicates overwrite earlier ones
    // there). `resolved[i][param]` is what scheduling waits on AND what
    // `run_step` reads, so the two can never disagree. Unresolvable
    // targets (forward or dangling references) resolve to `None`; the
    // step poisons at run time, exactly as when the target was absent
    // from the results map.
    let mut resolved: Vec<BTreeMap<&String, Option<usize>>> = Vec::with_capacity(n);
    let mut latest: BTreeMap<&StepId, usize> = BTreeMap::new();
    for (i, step) in steps.iter().enumerate() {
        let mut targets = BTreeMap::new();
        for (name, binding) in &step.inputs {
            if let Binding::Step(target) = binding {
                targets.insert(name, latest.get(target).copied());
            }
        }
        resolved.push(targets);
        latest.insert(&step.id, i);
    }
    let dep_indices: Vec<Vec<usize>> = resolved
        .iter()
        .map(|targets| {
            let mut deps: Vec<usize> = targets.values().flatten().copied().collect();
            deps.sort_unstable();
            deps.dedup();
            deps
        })
        .collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, deps) in dep_indices.iter().enumerate() {
        for &j in deps {
            dependents[j].push(i);
        }
    }

    let outcomes: Vec<OnceLock<StepOutcome>> = (0..n).map(|_| OnceLock::new()).collect();
    let scheduler = Mutex::new(Scheduler {
        ready: (0..n).filter(|&i| dep_indices[i].is_empty()).collect(),
        pending: dep_indices.iter().map(Vec::len).collect(),
        remaining: n,
    });
    let wake = Condvar::new();
    // A panicking tool must not deadlock the pool: the first panic is
    // parked here and re-raised once every in-flight worker has drained,
    // preserving the list-order executor's propagation semantics.
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let run = StepRunner {
        registry,
        runtime,
        query_args,
        steps,
        outcomes: &outcomes,
        retry: &options.retry,
    };
    let run_worker = || loop {
        let i = {
            let mut sched = scheduler.lock().expect("scheduler lock");
            loop {
                if sched.remaining == 0 {
                    return;
                }
                if let Some(i) = sched.ready.pop_front() {
                    break i;
                }
                sched = wake.wait(sched).expect("scheduler lock");
            }
        };

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run.step(i, &resolved[i])
        }))
        .unwrap_or_else(|payload| {
            let mut first = panicked.lock().expect("panic slot");
            if first.is_none() {
                *first = Some(payload);
            }
            StepOutcome {
                result: StepResult::Failed(ToolError::Failed {
                    function: steps[i].function.clone(),
                    message: "tool panicked".to_string(),
                    transient: false,
                }),
                qa: Vec::new(),
                invoked: true,
                retries: 0,
                backoff_ticks: 0,
            }
        });
        outcomes[i].set(outcome).unwrap_or_else(|_| panic!("step {i} ran twice"));

        let mut sched = scheduler.lock().expect("scheduler lock");
        sched.remaining -= 1;
        for &d in &dependents[i] {
            sched.pending[d] -= 1;
            if sched.pending[d] == 0 {
                sched.ready.push_back(d);
            }
        }
        // Wake idle workers for newly ready steps, and everyone at the end.
        if sched.remaining == 0 || !sched.ready.is_empty() {
            wake.notify_all();
        }
    };

    let workers = options.workers.clamp(1, n.max(1));
    if workers <= 1 {
        run_worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(run_worker);
            }
        });
    }

    if let Some(payload) = panicked.lock().expect("panic slot").take() {
        std::panic::resume_unwind(payload);
    }

    // Assemble the deterministic report: results keyed canonically (later
    // duplicate ids overwrite earlier, as the list-order executor did), QA
    // stitched in workflow list order, counters over step instances.
    let mut results: BTreeMap<StepId, StepResult> = BTreeMap::new();
    let mut critical: BTreeMap<&StepId, bool> = BTreeMap::new();
    let mut qa: Vec<QaFinding> = Vec::new();
    let (mut executed, mut failed, mut poisoned) = (0usize, 0usize, 0usize);
    let (mut retries, mut backoff_ticks) = (0usize, 0u64);
    let mut observations: Vec<StepObservation> = Vec::with_capacity(n);
    for (i, step) in steps.iter().enumerate() {
        let outcome = outcomes[i].get().expect("all steps completed");
        if outcome.invoked {
            executed += 1;
        }
        let (status, poison_roots) = match &outcome.result {
            StepResult::Ok(_) => (SpanStatus::Ok, Vec::new()),
            StepResult::Failed(_) => {
                failed += 1;
                (SpanStatus::Failed, Vec::new())
            }
            StepResult::Poisoned { failed_dependencies } => {
                poisoned += 1;
                let roots = failed_dependencies.iter().map(|id| id.0.clone()).collect();
                (SpanStatus::Poisoned, roots)
            }
        };
        retries += outcome.retries;
        backoff_ticks += outcome.backoff_ticks;
        if options.recorder.is_some() {
            observations.push(StepObservation {
                step: step.id.0.clone(),
                function: step.function.to_string(),
                invoked: outcome.invoked,
                retries: outcome.retries as u32,
                status,
                poison_roots,
            });
        }
        qa.extend(outcome.qa.iter().cloned());
        results.insert(step.id.clone(), outcome.result.clone());
        critical.insert(&step.id, step.critical);
    }

    if let Some(recorder) = &options.recorder {
        recorder.record_workflow(&workflow.id, options.retry.backoff_base_ticks, &observations);
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

/// What every step of one execution reads: the workflow, its arguments,
/// the runtime, and the outcomes of steps that already completed.
#[derive(Clone, Copy)]
struct StepRunner<'a> {
    registry: &'a Registry,
    runtime: &'a dyn ToolRuntime,
    query_args: &'a BTreeMap<String, Value>,
    steps: &'a [crate::Step],
    outcomes: &'a [OnceLock<StepOutcome>],
    retry: &'a RetryPolicy,
}

impl StepRunner<'_> {
    /// Runs one step: binding resolution (first unsatisfiable binding in
    /// parameter-name order wins, matching the list-order executor), tool
    /// invocation with budgeted retries, woven-in QA.
    fn step(
        &self,
        index: usize,
        resolved_targets: &BTreeMap<&String, Option<usize>>,
    ) -> StepOutcome {
        let StepRunner { registry, runtime, query_args, steps, outcomes, retry } = *self;
        let step = &steps[index];
        let mut qa: Vec<QaFinding> = Vec::new();

        // Resolve bindings. Once a poisoned binding is seen, the remaining
        // bindings are scanned only to widen the root-cause list — they can
        // no longer change the step's category (matching the list-order
        // executor, where the first unsatisfiable binding decided it).
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
                Binding::Step(target) => {
                    // The scheduler waited on exactly this index (same map).
                    let resolved_index = resolved_targets.get(name).copied().flatten();
                    let resolved = resolved_index
                        .and_then(|j| outcomes[j].get())
                        .and_then(|o| o.result.value());
                    match resolved {
                        Some(v) => {
                            args.insert(name.clone(), v.clone());
                        }
                        None => {
                            // Attribute the root cause: a failed dependency
                            // contributes its own id, a poisoned one its
                            // (already transitive) roots, and an unresolvable
                            // target — forward or dangling reference — the
                            // referenced id itself.
                            let mut attributed = false;
                            if let Some(outcome) = resolved_index.and_then(|j| outcomes[j].get()) {
                                match &outcome.result {
                                    StepResult::Failed(_) => {
                                        let j = resolved_index.unwrap_or(index);
                                        poison_roots.push(steps[j].id.clone());
                                        attributed = true;
                                    }
                                    StepResult::Poisoned { failed_dependencies } => {
                                        poison_roots.extend(failed_dependencies.iter().cloned());
                                        attributed = true;
                                    }
                                    StepResult::Ok(_) => {}
                                }
                            }
                            if !attributed {
                                poison_roots.push(target.clone());
                            }
                        }
                    }
                }
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

        // Invoke (composites expand to their sequence), retrying transient
        // failures within the policy's budget. Backoff is logical ticks, so
        // the loop — and therefore the report — is deterministic.
        let mut attempt: u32 = 0;
        let mut backoff_ticks: u64 = 0;
        let invoked = loop {
            let ctx = InvokeContext { step: &step.id, attempt };
            match invoke_entry(registry, runtime, &ctx, &step.function, &args) {
                Err(ToolError::Failed { function, message, transient: true })
                    if attempt < retry.max_retries =>
                {
                    let ticks = retry.backoff_ticks(attempt);
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

    /// A diamond DAG: fan-out runs in parallel, and every worker count
    /// produces the identical report.
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
        let baseline = execute_with(
            &wf,
            &reg,
            &ToyRuntime,
            &BTreeMap::new(),
            &ExecOptions { workers: 1, ..Default::default() },
        );
        for workers in [2, 4, 8] {
            let parallel = execute_with(
                &wf,
                &reg,
                &ToyRuntime,
                &BTreeMap::new(),
                &ExecOptions { workers, ..Default::default() },
            );
            assert_eq!(parallel, baseline, "workers={workers}");
        }
        assert_eq!(baseline.failed, 1);
        assert_eq!(baseline.poisoned, 1);
        assert_eq!(baseline.outputs.len(), 2);
    }

    /// A panicking tool propagates the panic (as the list-order executor
    /// did) instead of deadlocking the worker pool.
    #[test]
    fn tool_panic_propagates_at_any_worker_count() {
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
        for workers in [1usize, 4] {
            let result = std::panic::catch_unwind(|| {
                execute_with(
                    &wf,
                    &registry(),
                    &PanickyRuntime,
                    &BTreeMap::new(),
                    &ExecOptions { workers, ..Default::default() },
                )
            });
            assert!(result.is_err(), "workers={workers}: panic must propagate");
        }
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
    /// subtree — identically at 1, 2 and 8 workers.
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
        let reg = registry();
        let baseline = execute_with(
            &wf,
            &reg,
            &ToyRuntime,
            &BTreeMap::new(),
            &ExecOptions { workers: 1, ..Default::default() },
        );
        for workers in [2, 8] {
            let parallel = execute_with(
                &wf,
                &reg,
                &ToyRuntime,
                &BTreeMap::new(),
                &ExecOptions { workers, ..Default::default() },
            );
            assert_eq!(parallel, baseline, "workers={workers}");
        }
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
            self.invoke_with(&InvokeContext { step: &StepId::from("?"), attempt: 0 }, function, args)
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
            &ExecOptions { workers: 1, retry: RetryPolicy::with_retries(3), ..Default::default() },
        );
        assert!(report.all_ok(), "qa: {:?}", report.qa);
        assert_eq!(report.health, RunHealth::Ok);
        assert_eq!(report.retries, 2);
        // base 1: 1 << 0 + 1 << 1 = 3 logical ticks of backoff.
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
            &ExecOptions { workers: 1, retry: RetryPolicy::with_retries(1), ..Default::default() },
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
            &ExecOptions { workers: 1, retry: RetryPolicy::with_retries(1), ..Default::default() },
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
            &ExecOptions { workers: 1, retry: RetryPolicy::with_retries(5), ..Default::default() },
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
