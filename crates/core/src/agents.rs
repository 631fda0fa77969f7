//! The four agents.
//!
//! Each agent owns its system prompt and task tag, serializes a typed
//! request into the prompt payload, and parses the model's *text*
//! completion back into the protocol type — retrying with feedback when
//! the output does not parse (real LLMs emit malformed JSON sometimes;
//! `llm::FaultyModel` simulates that in tests). Requests name the
//! registry by its document's hash; every prompt carries that
//! [`RegistryDocument`] by reference.

use llm::protocol::*;
use llm::{LanguageModel, LlmError, Prompt, RegistryDocument};

/// Shared agent settings.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// How many times to re-prompt after a malformed completion.
    pub max_retries: usize,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig { max_retries: 2 }
    }
}

/// Errors an agent can surface.
#[derive(Debug)]
pub enum AgentError {
    /// The model itself failed (unknown task, bad payload, transport).
    Model(LlmError),
    /// The model kept returning unparseable output.
    Unparseable { agent: &'static str, attempts: usize, last_error: String },
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentError::Model(e) => write!(f, "model error: {e}"),
            AgentError::Unparseable { agent, attempts, last_error } => write!(
                f,
                "{agent} got unparseable output after {attempts} attempt(s): {last_error}"
            ),
        }
    }
}

impl std::error::Error for AgentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AgentError::Model(e) => Some(e),
            AgentError::Unparseable { .. } => None,
        }
    }
}

impl From<LlmError> for AgentError {
    fn from(e: LlmError) -> Self {
        AgentError::Model(e)
    }
}

/// Shared prompt/parse/retry loop. Every prompt carries `registry`, the
/// document the request names by hash.
fn run_task<Req: serde::Serialize, Resp: serde::de::DeserializeOwned>(
    model: &dyn LanguageModel,
    config: &AgentConfig,
    agent: &'static str,
    system: &str,
    task: &str,
    request: &Req,
    registry: &RegistryDocument,
) -> Result<Resp, AgentError> {
    let payload = serde_json::to_value(request).expect("requests serialize");
    let mut prompt = Prompt::new(system, task, payload).with_document(registry.clone());
    let mut last_error = String::new();
    for attempt in 0..=config.max_retries {
        let completion = model.complete(&prompt)?;
        match serde_json::from_str::<Resp>(&completion.text) {
            Ok(parsed) => return Ok(parsed),
            Err(e) => {
                last_error = e.to_string();
                // Re-prompt with feedback, exactly like a real agent loop.
                if let serde_json::Value::Object(map) = &mut prompt.payload {
                    map.insert(
                        "repair_feedback".to_string(),
                        serde_json::json!(format!(
                            "attempt {} returned invalid JSON: {last_error}",
                            attempt + 1
                        )),
                    );
                }
            }
        }
    }
    Err(AgentError::Unparseable {
        agent,
        attempts: config.max_retries + 1,
        last_error,
    })
}

/// Problem analysis & decomposition.
pub struct QueryMind<'m> {
    model: &'m dyn LanguageModel,
    config: AgentConfig,
}

impl<'m> QueryMind<'m> {
    pub fn new(model: &'m dyn LanguageModel, config: AgentConfig) -> Self {
        QueryMind { model, config }
    }

    /// System prompt (kept verbatim in transcripts).
    pub const SYSTEM: &'static str =
        "You are QueryMind, an Internet measurement expert. Break the user's query into \
         structured sub-problems with dependencies, analyze data/technical/methodological \
         constraints early, and define explicit success criteria so downstream agents \
         neither under- nor over-analyze.";

    pub fn run(
        &self,
        query: &str,
        context: &QueryContext,
        registry: &RegistryDocument,
    ) -> Result<Decomposition, AgentError> {
        let request = DecomposeRequest {
            query: query.to_string(),
            context: context.clone(),
            registry: registry.hash(),
        };
        run_task(
            self.model,
            &self.config,
            "QueryMind",
            Self::SYSTEM,
            "querymind.decompose",
            &request,
            registry,
        )
    }
}

/// Solution space exploration & design.
pub struct WorkflowScout<'m> {
    model: &'m dyn LanguageModel,
    config: AgentConfig,
}

impl<'m> WorkflowScout<'m> {
    pub fn new(model: &'m dyn LanguageModel, config: AgentConfig) -> Self {
        WorkflowScout { model, config }
    }

    pub const SYSTEM: &'static str =
        "You are WorkflowScout, a measurement solution architect. Explore the registry for \
         function combinations that solve each sub-problem; scale exploration to problem \
         complexity; compare trade-offs in data requirements, cost and reliability; and \
         avoid over-engineering — prefer the smallest architecture that meets the success \
         criteria.";

    pub fn run(
        &self,
        decomposition: &Decomposition,
        registry: &RegistryDocument,
        variant: u64,
    ) -> Result<ArchitecturePlan, AgentError> {
        let request = ExploreRequest {
            decomposition: decomposition.clone(),
            registry: registry.hash(),
            variant,
        };
        run_task(
            self.model,
            &self.config,
            "WorkflowScout",
            Self::SYSTEM,
            "workflowscout.explore",
            &request,
            registry,
        )
    }
}

/// Solution implementation.
pub struct SolutionWeaver<'m> {
    model: &'m dyn LanguageModel,
    config: AgentConfig,
}

impl<'m> SolutionWeaver<'m> {
    pub fn new(model: &'m dyn LanguageModel, config: AgentConfig) -> Self {
        SolutionWeaver { model, config }
    }

    pub const SYSTEM: &'static str =
        "You are SolutionWeaver, a measurement integration engineer. Convert the chosen \
         architecture into an executable workflow: translate data formats between \
         heterogeneous tools, and weave quality assurance (consistency verification, \
         sanity checks, uncertainty quantification) into the implementation rather than \
         bolting it on afterwards.";

    pub fn run(
        &self,
        decomposition: &Decomposition,
        architecture: &ArchitecturePlan,
        registry: &RegistryDocument,
        feedback: Vec<String>,
    ) -> Result<ImplementationPlan, AgentError> {
        let request = ImplementRequest {
            decomposition: decomposition.clone(),
            architecture: architecture.clone(),
            registry: registry.hash(),
            feedback,
        };
        run_task(
            self.model,
            &self.config,
            "SolutionWeaver",
            Self::SYSTEM,
            "solutionweaver.implement",
            &request,
            registry,
        )
    }
}

/// Systematic registry evolution.
pub struct RegistryCurator<'m> {
    model: &'m dyn LanguageModel,
    config: AgentConfig,
}

impl<'m> RegistryCurator<'m> {
    pub fn new(model: &'m dyn LanguageModel, config: AgentConfig) -> Self {
        RegistryCurator { model, config }
    }

    pub const SYSTEM: &'static str =
        "You are RegistryCurator. Mine successful workflows for reusable patterns, but be \
         validation-first: only capabilities that demonstrated accuracy and utility across \
         multiple uses merit registry inclusion; reject the rest with reasons to prevent \
         registry bloat.";

    pub fn run(
        &self,
        corpus: &[WorkflowSummary],
        registry: &RegistryDocument,
        min_uses: usize,
    ) -> Result<CurationProposal, AgentError> {
        let request = CurateRequest {
            corpus: corpus.to_vec(),
            registry: registry.hash(),
            min_uses,
        };
        run_task(
            self.model,
            &self.config,
            "RegistryCurator",
            Self::SYSTEM,
            "registrycurator.curate",
            &request,
            registry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::{DeterministicExpertModel, FaultyModel, ScriptedModel};
    use registry::{CapabilityEntry, DataFormat, Param, Registry};

    /// The mini registry as agents send it: its document.
    fn mini_registry() -> RegistryDocument {
        RegistryDocument::new(&entries())
    }

    fn entries() -> Registry {
        let mut r = Registry::new();
        r.register(CapabilityEntry::new(
            "xaminer.event_impact",
            "xaminer",
            "processes failure events into a country impact table",
            vec![Param::required("event", DataFormat::FailureEventSpec)],
            DataFormat::CountryImpactTable,
        ))
        .unwrap();
        r.register(CapabilityEntry::new(
            "util.compile_disasters",
            "util",
            "compiles disaster specs into failure events",
            vec![
                Param::required("disasters", DataFormat::DisasterSpecs),
                Param::required("failure_probability", DataFormat::Scalar),
            ],
            DataFormat::FailureEventSpec,
        ))
        .unwrap();
        r
    }

    fn context() -> QueryContext {
        QueryContext {
            cable_names: vec!["SeaMeWe-5".into()],
            now: 864_000,
            horizon_days: 10,
        }
    }

    #[test]
    fn querymind_parses_model_output() {
        let model = DeterministicExpertModel::new();
        let qm = QueryMind::new(&model, AgentConfig::default());
        let d = qm
            .run(
                "Identify the impact of severe earthquakes globally assuming a 10% infra \
                 failure probability",
                &context(),
                &mini_registry(),
            )
            .unwrap();
        assert_eq!(d.intent, Intent::DisasterImpact);
    }

    #[test]
    fn agents_recover_from_malformed_output() {
        // One corrupted completion, then a good one: the retry loop heals it.
        let model = FaultyModel::new(DeterministicExpertModel::new(), 1);
        let qm = QueryMind::new(&model, AgentConfig { max_retries: 2 });
        let d = qm.run("impact of earthquakes at 10%", &context(), &mini_registry());
        assert!(d.is_ok(), "{:?}", d.err().map(|e| e.to_string()));
    }

    #[test]
    fn deeply_nested_completions_fail_closed() {
        // A run of `[` used to overflow the JSON parser's stack and abort
        // the process; now it is one more unparseable completion. A 2 MiB
        // thread (the default for spawned threads) shows it.
        let nested = "[".repeat(1_000_000);
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                assert!(serde_json::from_str::<serde_json::Value>(&nested).is_err());
                let model = ScriptedModel::new(vec![("querymind.decompose", nested.as_str())]);
                let qm = QueryMind::new(&model, AgentConfig { max_retries: 1 });
                qm.run("impact of earthquakes", &context(), &mini_registry()).map(|_| ())
            })
            .expect("thread spawns")
            .join()
            .expect("parsing returns instead of overflowing the stack")
            .unwrap_err();
        assert!(matches!(err, AgentError::Unparseable { attempts: 2, .. }), "{err}");
    }

    #[test]
    fn agents_give_up_after_retries() {
        // Corrupt more completions than the retry budget allows.
        let model = FaultyModel::new(DeterministicExpertModel::new(), 10);
        let qm = QueryMind::new(&model, AgentConfig { max_retries: 1 });
        let err = qm.run("impact of earthquakes", &context(), &mini_registry()).unwrap_err();
        match err {
            AgentError::Unparseable { agent, attempts, .. } => {
                assert_eq!(agent, "QueryMind");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected Unparseable, got {other}"),
        }
    }

    #[test]
    fn scripted_model_drives_scout() {
        // The scout parses whatever the model returns — here a canned plan.
        let plan = ArchitecturePlan {
            steps: vec![],
            outputs: vec![],
            alternatives_considered: 1,
            frameworks: vec![],
            rationale: "canned".into(),
        };
        let canned = serde_json::to_string(&plan).unwrap();
        let model = ScriptedModel::new(vec![("workflowscout.explore", canned.as_str())]);
        let scout = WorkflowScout::new(&model, AgentConfig::default());
        let d = llm::expert::decompose(
            &DecomposeRequest {
                query: "impact of earthquakes at 10%".into(),
                context: context(),
                registry: mini_registry().hash(),
            },
            &entries(),
        );
        let got = scout.run(&d, &mini_registry(), 0).unwrap();
        assert_eq!(got.rationale, "canned");
    }

    #[test]
    fn curator_runs_over_prompts() {
        let model = DeterministicExpertModel::new();
        let curator = RegistryCurator::new(&model, AgentConfig::default());
        let corpus = vec![
            WorkflowSummary {
                id: "w1".into(),
                functions: vec!["util.compile_disasters".into(), "xaminer.event_impact".into()],
                success: true,
            },
            WorkflowSummary {
                id: "w2".into(),
                functions: vec!["util.compile_disasters".into(), "xaminer.event_impact".into()],
                success: true,
            },
        ];
        let proposal = curator.run(&corpus, &mini_registry(), 2).unwrap();
        assert_eq!(proposal.composites.len(), 1);
    }
}
