//! The agent↔model protocol: the JSON schemas flowing through prompts and
//! completions.
//!
//! Both sides (the agents in the `arachnet` crate and the deterministic
//! expert model here) speak these types, but always *serialized* — agents
//! put requests into `Prompt::payload` and parse `Completion::text`, so
//! the malformed-output/retry path stays honest.
//!
//! Each of the four agent tasks is declared once, as a [`Task`] impl on
//! its request type: the response it expects, its task tag, the agent
//! that sends it and that agent's system prompt. The agents' one
//! exchange loop and the model's dispatch both read these declarations.
//!
//! Requests name the capability registry by content hash
//! ([`RegistryDocument::hash`](crate::RegistryDocument::hash)) rather
//! than carrying a copy: the prompt carries the pinned epoch's document,
//! and the model resolves the hash against it. Completions are still
//! text.

use std::collections::BTreeMap;

use registry::DataFormat;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

/// One agent task: a request type bound to the response the model must
/// complete it with, the task tag prompts carry, and the agent (with its
/// system prompt) that sends it.
pub trait Task: Serialize + DeserializeOwned {
    /// What a completion of this task parses into.
    type Response: Serialize + DeserializeOwned;
    /// The prompt's task tag.
    const TAG: &'static str;
    /// The agent that sends this task.
    const AGENT: &'static str;
    /// That agent's system prompt (kept verbatim in transcripts).
    const SYSTEM: &'static str;

    /// Content hash of the registry document the request names.
    fn registry(&self) -> u64;
}

// ---------------------------------------------------------------------------
// Shared context
// ---------------------------------------------------------------------------

/// World knowledge available for entity grounding (the equivalent of the
/// lookup context the real prompts embed).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryContext {
    /// Known cable system names.
    pub cable_names: Vec<String>,
    /// "now" on the scenario clock (seconds).
    pub now: i64,
    /// Length of the observable measurement horizon, days.
    pub horizon_days: i64,
}

// ---------------------------------------------------------------------------
// QueryMind
// ---------------------------------------------------------------------------

/// QueryMind's request payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecomposeRequest {
    pub query: String,
    pub context: QueryContext,
    /// Content hash of the registry document attached to the prompt.
    pub registry: u64,
}

impl Task for DecomposeRequest {
    type Response = Decomposition;
    const TAG: &'static str = "querymind.decompose";
    const AGENT: &'static str = "QueryMind";
    const SYSTEM: &'static str =
        "You are QueryMind, an Internet measurement expert. Break the user's query into \
         structured sub-problems with dependencies, analyze data/technical/methodological \
         constraints early, and define explicit success criteria so downstream agents \
         neither under- nor over-analyze.";

    fn registry(&self) -> u64 {
        self.registry
    }
}

/// Classified analysis intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Intent {
    /// Impact of a specific cable failure (case study 1).
    CableImpact,
    /// What-if disaster impact (case study 2).
    DisasterImpact,
    /// Cascading failure analysis (case study 3).
    CascadeAnalysis,
    /// Root-cause forensic investigation (case study 4).
    ForensicRootCause,
    /// Control-plane incident forensics: prefix hijack / route leak
    /// attribution from MOAS conflicts and export-rule violations.
    ControlPlaneForensics,
    /// Country/AS resilience profiling.
    RiskAssessment,
    /// Unclassified measurement question.
    Generic,
}

/// A disaster mentioned in the query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisasterEntity {
    /// "earthquake" | "hurricane".
    pub kind: String,
    /// Scope word found near it ("globally", "severe"…); free text.
    pub qualifier: String,
}

/// Entities extracted from the query.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Entities {
    pub cables: Vec<String>,
    pub regions: Vec<String>,
    pub countries: Vec<String>,
    pub disasters: Vec<DisasterEntity>,
    /// Failure probability, if the query states one ("10%").
    pub probability: Option<f64>,
    /// Relative lookback, if stated ("three days ago").
    pub lookback_days: Option<i64>,
    /// Requested aggregation level ("country", "as", "link").
    pub target_level: Option<String>,
}

/// One structured sub-problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubProblem {
    pub id: String,
    pub description: String,
    /// The data format that answers this sub-problem.
    pub target: DataFormat,
    /// Ids of sub-problems this one needs solved first.
    pub depends_on: Vec<String>,
    /// Query arguments this sub-problem should consume preferentially
    /// (e.g. "the earthquake specs, not the hurricane specs").
    #[serde(default)]
    pub prefer_args: Vec<String>,
    /// When true, the planner must compute a fresh result even if an
    /// earlier step already produced the target format (per-instance
    /// analyses such as "process each disaster kind separately").
    #[serde(default)]
    pub fresh: bool,
}

impl SubProblem {
    /// A plain sub-problem (no preferences, reusable).
    pub fn new(id: &str, description: &str, target: DataFormat, depends_on: &[&str]) -> Self {
        SubProblem {
            id: id.to_string(),
            description: description.to_string(),
            target,
            depends_on: depends_on.iter().map(|s| s.to_string()).collect(),
            prefer_args: Vec::new(),
            fresh: false,
        }
    }

    /// Marks preferred query arguments.
    pub fn preferring(mut self, args: &[&str]) -> Self {
        self.prefer_args = args.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Requires a fresh computation.
    pub fn fresh(mut self) -> Self {
        self.fresh = true;
        self
    }
}

/// Problem complexity — drives WorkflowScout's adaptive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Complexity {
    Simple,
    Moderate,
    Complex,
}

/// A typed query-argument value QueryMind resolved from the query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolvedArg {
    pub format: DataFormat,
    pub value: serde_json::Value,
}

/// QueryMind's product.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decomposition {
    pub intent: Intent,
    pub entities: Entities,
    /// Named, typed argument values available to the workflow.
    pub provided_args: BTreeMap<String, ResolvedArg>,
    pub sub_problems: Vec<SubProblem>,
    /// Constraint analysis: what limits feasible solutions.
    pub constraints: Vec<String>,
    /// When is the query sufficiently answered.
    pub success_criteria: Vec<String>,
    /// Identified measurement gaps / failure modes.
    pub risks: Vec<String>,
    pub complexity: Complexity,
}

// ---------------------------------------------------------------------------
// WorkflowScout
// ---------------------------------------------------------------------------

/// WorkflowScout's request payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExploreRequest {
    pub decomposition: Decomposition,
    /// Content hash of the registry document attached to the prompt.
    pub registry: u64,
    /// Deterministic diversity seed (ensemble generation varies it).
    pub variant: u64,
}

impl Task for ExploreRequest {
    type Response = ArchitecturePlan;
    const TAG: &'static str = "workflowscout.explore";
    const AGENT: &'static str = "WorkflowScout";
    const SYSTEM: &'static str =
        "You are WorkflowScout, a measurement solution architect. Explore the registry for \
         function combinations that solve each sub-problem; scale exploration to problem \
         complexity; compare trade-offs in data requirements, cost and reliability; and \
         avoid over-engineering — prefer the smallest architecture that meets the success \
         criteria.";

    fn registry(&self) -> u64 {
        self.registry
    }
}

/// Where a planned step input comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlannedBinding {
    FromStep(String),
    FromArg(String),
    Const { format: DataFormat, value: serde_json::Value },
}

/// One planned step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedStep {
    pub id: String,
    pub function: String,
    pub bindings: BTreeMap<String, PlannedBinding>,
    /// Which sub-problem this step serves.
    pub serves: String,
    pub rationale: String,
}

/// WorkflowScout's product.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchitecturePlan {
    pub steps: Vec<PlannedStep>,
    /// Step ids whose outputs answer the query.
    pub outputs: Vec<String>,
    /// How many alternative architectures were evaluated.
    pub alternatives_considered: usize,
    /// Distinct frameworks in the chosen architecture.
    pub frameworks: Vec<String>,
    pub rationale: String,
}

// ---------------------------------------------------------------------------
// SolutionWeaver
// ---------------------------------------------------------------------------

/// SolutionWeaver's request payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImplementRequest {
    pub decomposition: Decomposition,
    pub architecture: ArchitecturePlan,
    /// Content hash of the registry document attached to the prompt.
    pub registry: u64,
    /// Validation errors from a previous attempt (repair loop), if any.
    pub feedback: Vec<String>,
}

impl Task for ImplementRequest {
    type Response = ImplementationPlan;
    const TAG: &'static str = "solutionweaver.implement";
    const AGENT: &'static str = "SolutionWeaver";
    const SYSTEM: &'static str =
        "You are SolutionWeaver, a measurement integration engineer. Convert the chosen \
         architecture into an executable workflow: translate data formats between \
         heterogeneous tools, and weave quality assurance (consistency verification, \
         sanity checks, uncertainty quantification) into the implementation rather than \
         bolting it on afterwards.";

    fn registry(&self) -> u64 {
        self.registry
    }
}

/// SolutionWeaver's product: the finished workflow program (same step
/// shape, plus QA steps and declared outputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImplementationPlan {
    pub workflow_id: String,
    pub steps: Vec<PlannedStep>,
    pub outputs: Vec<String>,
    /// Names of QA measures woven in.
    pub qa_measures: Vec<String>,
}

// ---------------------------------------------------------------------------
// RegistryCurator
// ---------------------------------------------------------------------------

/// Summary of one executed workflow, for pattern mining.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSummary {
    pub id: String,
    /// Function ids in execution order.
    pub functions: Vec<String>,
    pub success: bool,
}

/// RegistryCurator's request payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CurateRequest {
    pub corpus: Vec<WorkflowSummary>,
    /// Content hash of the registry document attached to the prompt.
    pub registry: u64,
    /// Minimum observations before a pattern is proposed.
    pub min_uses: usize,
}

impl Task for CurateRequest {
    type Response = CurationProposal;
    const TAG: &'static str = "registrycurator.curate";
    const AGENT: &'static str = "RegistryCurator";
    const SYSTEM: &'static str =
        "You are RegistryCurator. Mine successful workflows for reusable patterns, but be \
         validation-first: only capabilities that demonstrated accuracy and utility across \
         multiple uses merit registry inclusion; reject the rest with reasons to prevent \
         registry bloat.";

    fn registry(&self) -> u64 {
        self.registry
    }
}

/// One proposed composite capability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompositeProposal {
    pub id: String,
    pub sequence: Vec<String>,
    pub capability: String,
    /// How many successful workflows exhibited the pattern.
    pub observed_uses: usize,
}

/// RegistryCurator's product.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CurationProposal {
    pub composites: Vec<CompositeProposal>,
    /// Patterns seen but rejected, with reasons (validation-first).
    pub rejected: Vec<(String, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_roundtrips_through_json() {
        let d = Decomposition {
            intent: Intent::CableImpact,
            entities: Entities {
                cables: vec!["SeaMeWe-5".into()],
                target_level: Some("country".into()),
                ..Default::default()
            },
            provided_args: BTreeMap::from([(
                "cable_name".to_string(),
                ResolvedArg {
                    format: DataFormat::Text,
                    value: serde_json::json!("SeaMeWe-5"),
                },
            )]),
            sub_problems: vec![SubProblem::new(
                "deps",
                "identify cable dependencies",
                DataFormat::CableDependencies,
                &[],
            )],
            constraints: vec!["mapping confidence bounds results".into()],
            success_criteria: vec!["per-country impact table produced".into()],
            risks: vec![],
            complexity: Complexity::Moderate,
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: Decomposition = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn architecture_plan_roundtrips() {
        let plan = ArchitecturePlan {
            steps: vec![PlannedStep {
                id: "s1".into(),
                function: "nautilus.map_links".into(),
                bindings: BTreeMap::new(),
                serves: "deps".into(),
                rationale: "cross-layer view".into(),
            }],
            outputs: vec!["s1".into()],
            alternatives_considered: 3,
            frameworks: vec!["nautilus".into()],
            rationale: "direct path".into(),
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: ArchitecturePlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn plan_with_non_ascii_and_escapes_roundtrips() {
        let plan = ArchitecturePlan {
            steps: vec![],
            outputs: vec!["s1".into()],
            alternatives_considered: 2,
            frameworks: vec!["xaminer".into()],
            rationale: "Türkiye → Ägypten:\n\t\"cut\" at 30°E \\ ✓ 😀".into(),
        };
        for json in [
            serde_json::to_string(&plan).unwrap(),
            serde_json::to_string_pretty(&plan).unwrap(),
        ] {
            let back: ArchitecturePlan = serde_json::from_str(&json).unwrap();
            assert_eq!(plan, back);
        }
    }
}
