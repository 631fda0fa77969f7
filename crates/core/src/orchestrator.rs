//! The pipeline's artifacts and the two lowering steps behind
//! [`crate::Session`] generation and [`crate::Engine::curate`]: expert
//! hooks, the generated solution, plan → workflow IR lowering, and
//! registration of curator-mined composites.

use std::collections::BTreeMap;

use llm::protocol::*;
use registry::{CapabilityEntry, DataFormat, FunctionId, Implementation, Registry};
use workflow::{Binding, Step, Value, Workflow};

use crate::agents::AgentError;

/// An optional expert hook rewriting one intermediate artifact.
pub type AdjustHook<T> = Option<Box<dyn Fn(T) -> T + Send + Sync>>;

/// An optional expert hook reviewing the final workflow.
pub type ReviewHook = Option<Box<dyn Fn(&Workflow) -> Vec<String> + Send + Sync>>;

/// Expert-mode hooks: specialists can review and adjust outputs between
/// agents before the pipeline proceeds (§3, "expert mode").
#[derive(Default)]
pub struct ExpertHooks {
    /// Adjust scope/constraints after QueryMind.
    pub adjust_decomposition: AdjustHook<Decomposition>,
    /// Steer the architecture after WorkflowScout.
    pub adjust_architecture: AdjustHook<ArchitecturePlan>,
    /// Review the final workflow; returned notes are attached to the
    /// solution.
    pub review_workflow: ReviewHook,
}

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    Agent(AgentError),
    /// The generated workflow failed validation even after repair rounds.
    Validation { errors: Vec<String>, repair_attempts: usize },
    /// The request itself was invalid (empty ensemble, unknown scenario
    /// key, …) — a caller error, not an agent failure.
    Invalid(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Agent(e) => write!(f, "agent failure: {e}"),
            PipelineError::Validation { errors, repair_attempts } => write!(
                f,
                "workflow failed validation after {repair_attempts} repair attempt(s): {}",
                errors.join("; ")
            ),
            PipelineError::Invalid(message) => write!(f, "invalid request: {message}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Agent(e) => Some(e),
            PipelineError::Validation { .. } | PipelineError::Invalid(_) => None,
        }
    }
}

impl From<AgentError> for PipelineError {
    fn from(e: AgentError) -> Self {
        PipelineError::Agent(e)
    }
}

/// A complete generated solution.
#[derive(Debug, Clone)]
pub struct GeneratedSolution {
    pub query: String,
    pub decomposition: Decomposition,
    pub architecture: ArchitecturePlan,
    /// The executable workflow program.
    pub workflow: Workflow,
    /// Rendered Python-like source (the artifact users read and run).
    pub source_code: String,
    /// Non-empty source lines — the paper's LoC metric.
    pub loc: usize,
    pub frameworks: Vec<String>,
    pub qa_measures: Vec<String>,
    /// Validation-repair rounds that were needed.
    pub repair_attempts: usize,
    /// Expert-mode review notes, if any.
    pub expert_notes: Vec<String>,
}

impl GeneratedSolution {
    /// Query-argument values for executing the workflow, resolved by
    /// QueryMind during decomposition.
    pub fn query_args(&self) -> BTreeMap<String, Value> {
        self.decomposition
            .provided_args
            .iter()
            .map(|(name, a)| (name.clone(), Value::new(a.format, a.value.clone())))
            .collect()
    }

    /// Summary for the curator corpus.
    pub fn summary(&self, success: bool) -> WorkflowSummary {
        WorkflowSummary {
            id: self.workflow.id.clone(),
            functions: self.workflow.steps.iter().map(|s| s.function.0.clone()).collect(),
            success,
        }
    }
}

/// Result of a curation pass.
#[derive(Debug, Clone, Default)]
pub struct CurationOutcome {
    /// Composites added to the registry.
    pub added: Vec<FunctionId>,
    /// Patterns rejected, with reasons.
    pub rejected: Vec<(String, String)>,
}

/// Registers the composites RegistryCurator proposed into `registry`,
/// deriving each one's signature from its parts; proposals that reference
/// unknown functions or collide with existing entries are rejected with
/// the reason.
pub(crate) fn register_composites(
    registry: &mut Registry,
    proposal: CurationProposal,
) -> CurationOutcome {
    let mut outcome = CurationOutcome {
        rejected: proposal.rejected,
        ..Default::default()
    };
    for composite in proposal.composites {
        let sequence: Vec<FunctionId> =
            composite.sequence.iter().map(|s| FunctionId::from(s.as_str())).collect();
        // Derive the composite's signature from its parts: the inputs
        // of the whole chain that are not satisfied internally, and the
        // final function's output.
        let Some(last) = sequence.last().and_then(|id| registry.get(id)) else {
            outcome
                .rejected
                .push((composite.id.clone(), "sequence references unknown functions".into()));
            continue;
        };
        let output = last.output;
        let mut inputs: Vec<registry::Param> = Vec::new();
        let mut produced: Vec<DataFormat> = Vec::new();
        for fid in &sequence {
            let entry = registry.get(fid).expect("validated in curate()");
            for p in entry.required_inputs() {
                let satisfied_internally =
                    produced.iter().any(|f| f.compatible_with(p.format));
                let already_declared = inputs.iter().any(|q| q.name == p.name);
                if !satisfied_internally && !already_declared {
                    inputs.push(p.clone());
                }
            }
            produced.push(entry.output);
        }
        let entry = CapabilityEntry {
            id: FunctionId::from(composite.id.as_str()),
            framework: "composite".to_string(),
            capability: composite.capability.clone(),
            inputs,
            output,
            constraints: vec![format!(
                "mined from {} successful workflow(s)",
                composite.observed_uses
            )],
            tags: vec!["composite".into(), "curated".into()],
            cost: registry::CostClass::Moderate,
            reliability: 0.85,
            implementation: Implementation::Composite { sequence },
        };
        match registry.register(entry) {
            Ok(()) => outcome.added.push(FunctionId::from(composite.id.as_str())),
            Err(e) => outcome.rejected.push((composite.id.clone(), e.to_string())),
        }
    }
    outcome
}

/// Converts an implementation plan into the executable workflow IR.
/// Steps whose registry entry is tagged `non-critical` (enrichment
/// detectors) are marked accordingly, so their failures degrade the run
/// instead of failing it.
pub(crate) fn to_workflow(
    query: &str,
    decomposition: &Decomposition,
    plan: &ImplementationPlan,
    registry: &Registry,
) -> Workflow {
    let mut wf = Workflow::new(&plan.workflow_id, query);
    for planned in &plan.steps {
        let mut step = Step::new(&planned.id, &planned.function).because(&planned.rationale);
        let non_critical = registry
            .get(&step.function)
            .is_some_and(|entry| entry.tags.iter().any(|t| t == "non-critical"));
        if non_critical {
            step = step.non_critical();
        }
        for (param, binding) in &planned.bindings {
            let b = match binding {
                PlannedBinding::FromStep(sid) => Binding::Step(workflow::StepId(sid.clone())),
                PlannedBinding::FromArg(name) => {
                    let format = decomposition
                        .provided_args
                        .get(name)
                        .map(|a| a.format)
                        .unwrap_or(DataFormat::Any);
                    Binding::QueryArg { name: name.clone(), format }
                }
                PlannedBinding::Const { format, value } => {
                    Binding::Const { format: *format, value: value.clone() }
                }
            };
            step = step.bind(param, b);
        }
        wf.push(step);
    }
    for out in &plan.outputs {
        wf = wf.with_output(out);
    }
    wf
}
