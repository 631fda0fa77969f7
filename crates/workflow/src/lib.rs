//! # workflow — the executable workflow IR
//!
//! SolutionWeaver's output is a [`Workflow`]: a typed DAG of steps, each
//! invoking a registry function with bindings to query arguments, constant
//! values, or earlier steps' outputs.
//!
//! The crate provides the three things the paper's pipeline needs from its
//! "executable code" stage:
//!
//! * [`check()`] — static validation (unknown functions, missing required
//!   parameters, format mismatches, dangling references, cycles) so agents
//!   catch wiring mistakes before anything runs;
//! * [`value`] — the Arc-shared [`Value`] model: payloads cross step
//!   boundaries as shared JSON or native substrate artifacts, never as
//!   deep clones;
//! * [`exec`] — a dependency-DAG executor over a [`exec::ToolRuntime`]
//!   that runs steps in list order on the caller's thread, with
//!   quality assurance woven in (per-step format verification, emptiness
//!   sanity checks, uncertainty accounting) rather than bolted on;
//! * [`render`] — deterministic rendering to Python-like source text, used
//!   for the paper's lines-of-code comparisons (the generated program is
//!   what a user would read and run).

pub mod check;
pub mod exec;
pub mod render;
pub mod value;

pub use check::{check, TypeError};
pub use exec::{
    execute, execute_with, ExecOptions, ExecutionReport, InvokeContext, QaFinding, RetryPolicy,
    RunHealth, StepResult, ToolError, ToolRuntime,
};
pub use render::{loc, to_source};
pub use value::{Value, ValueView};

use std::collections::BTreeMap;

use registry::{DataFormat, FunctionId};
use serde::{Deserialize, Serialize};

/// Identifier of a step within one workflow.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StepId(pub String);

impl From<&str> for StepId {
    fn from(s: &str) -> Self {
        StepId(s.to_string())
    }
}

impl std::fmt::Display for StepId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Where a step input comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Binding {
    /// Output of an earlier step.
    Step(StepId),
    /// A constant embedded in the workflow.
    Const { format: DataFormat, value: serde_json::Value },
    /// A named query argument supplied at execution time.
    QueryArg { name: String, format: DataFormat },
}

impl Binding {
    /// Convenience constant constructor.
    pub fn constant(format: DataFormat, value: serde_json::Value) -> Binding {
        Binding::Const { format, value }
    }
}

/// One workflow step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Step {
    pub id: StepId,
    pub function: FunctionId,
    /// parameter name → binding.
    pub inputs: BTreeMap<String, Binding>,
    /// Why this step exists — surfaced in rendered code as a comment.
    pub rationale: String,
    /// Whether a failure of this step fails the whole run. Non-critical
    /// steps (enrichment detectors, QA probes) degrade the report instead
    /// of failing it — see [`exec::RunHealth`].
    pub critical: bool,
}

impl Step {
    /// A step with no inputs.
    pub fn new(id: &str, function: &str) -> Step {
        Step {
            id: StepId::from(id),
            function: FunctionId::from(function),
            inputs: BTreeMap::new(),
            rationale: String::new(),
            critical: true,
        }
    }

    /// Marks the step as non-critical: its failure (and any poisoning it
    /// causes) degrades the run instead of failing it.
    pub fn non_critical(mut self) -> Step {
        self.critical = false;
        self
    }

    /// Binds a parameter.
    pub fn bind(mut self, param: &str, binding: Binding) -> Step {
        self.inputs.insert(param.to_string(), binding);
        self
    }

    /// Binds a parameter to a previous step's output.
    pub fn bind_step(self, param: &str, step: &str) -> Step {
        self.bind(param, Binding::Step(StepId::from(step)))
    }

    /// Binds a parameter to a query argument.
    pub fn bind_arg(self, param: &str, arg: &str, format: DataFormat) -> Step {
        self.bind(param, Binding::QueryArg { name: arg.to_string(), format })
    }

    /// Sets the rationale.
    pub fn because(mut self, why: &str) -> Step {
        self.rationale = why.to_string();
        self
    }

    /// Step ids this step depends on.
    pub fn dependencies(&self) -> Vec<&StepId> {
        self.inputs
            .values()
            .filter_map(|b| match b {
                Binding::Step(id) => Some(id),
                _ => None,
            })
            .collect()
    }
}

/// A complete workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workflow {
    /// Stable identifier (used by the curator when mining patterns).
    pub id: String,
    /// The natural-language query this workflow answers.
    pub query: String,
    /// Steps in execution order (the checker verifies the order is a valid
    /// topological sort).
    pub steps: Vec<Step>,
    /// Steps whose outputs are the workflow's results.
    pub outputs: Vec<StepId>,
}

impl Workflow {
    /// An empty workflow for a query.
    pub fn new(id: &str, query: &str) -> Workflow {
        Workflow { id: id.to_string(), query: query.to_string(), steps: Vec::new(), outputs: Vec::new() }
    }

    /// Appends a step.
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// Builder-style step append.
    pub fn with_step(mut self, step: Step) -> Workflow {
        self.push(step);
        self
    }

    /// Marks a step as an output.
    pub fn with_output(mut self, step: &str) -> Workflow {
        self.outputs.push(StepId::from(step));
        self
    }

    /// Finds a step.
    pub fn step(&self, id: &StepId) -> Option<&Step> {
        self.steps.iter().find(|s| &s.id == id)
    }

    /// Distinct functions used, in first-use order.
    pub fn functions_used(&self) -> Vec<FunctionId> {
        let mut out = Vec::new();
        for s in &self.steps {
            if !out.contains(&s.function) {
                out.push(s.function.clone());
            }
        }
        out
    }

    /// Distinct frameworks used (resolved against a registry), sorted.
    pub fn frameworks_used(&self, registry: &registry::Registry) -> Vec<String> {
        let mut v: Vec<String> = self
            .steps
            .iter()
            .filter_map(|s| registry.get(&s.function).map(|e| e.framework.clone()))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Query arguments the workflow expects, with formats, sorted by name.
    pub fn query_args(&self) -> Vec<(String, DataFormat)> {
        let mut v: Vec<(String, DataFormat)> = self
            .steps
            .iter()
            .flat_map(|s| s.inputs.values())
            .filter_map(|b| match b {
                Binding::QueryArg { name, format } => Some((name.clone(), *format)),
                _ => None,
            })
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_steps() {
        let wf = Workflow::new("wf", "test query")
            .with_step(Step::new("a", "f.one").because("start"))
            .with_step(
                Step::new("b", "f.two")
                    .bind_step("input", "a")
                    .bind_arg("window", "time_window", DataFormat::TimeWindow),
            )
            .with_output("b");
        assert_eq!(wf.steps.len(), 2);
        assert_eq!(wf.step(&StepId::from("b")).unwrap().dependencies(), vec![&StepId::from("a")]);
        assert_eq!(
            wf.query_args(),
            vec![("time_window".to_string(), DataFormat::TimeWindow)]
        );
        assert_eq!(wf.functions_used().len(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let wf = Workflow::new("wf", "q")
            .with_step(Step::new("a", "f.one").bind(
                "k",
                Binding::constant(DataFormat::Scalar, serde_json::json!(0.1)),
            ))
            .with_output("a");
        let json = serde_json::to_string(&wf).unwrap();
        let back: Workflow = serde_json::from_str(&json).unwrap();
        assert_eq!(wf, back);
    }
}
