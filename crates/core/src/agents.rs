//! The four agents' one exchange loop.
//!
//! QueryMind, WorkflowScout, SolutionWeaver and RegistryCurator are each
//! a [`Task`] in `llm::protocol`: a request type bound to its response,
//! task tag, agent name and system prompt. [`ask`] runs any of them: it
//! serializes the request into the prompt payload and parses the model's
//! *text* completion back into the response type — retrying with
//! feedback when the output does not parse (real LLMs emit malformed
//! JSON sometimes; `llm::FaultyModel` simulates that in tests). Requests
//! name the registry by its document's hash; every prompt carries that
//! [`RegistryDocument`] by reference.

use llm::protocol::Task;
use llm::{LanguageModel, LlmError, Prompt, RegistryDocument};

/// How many times an agent re-prompts after a malformed completion.
const MAX_RETRIES: usize = 2;

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

/// Sends `request` as its agent and parses the completion into the
/// task's response. The prompt carries `document`, the registry the
/// request names by hash; a completion that does not parse is answered
/// with a re-prompt carrying `repair_feedback`, up to `MAX_RETRIES` (2)
/// times.
pub fn ask<T: Task>(
    model: &dyn LanguageModel,
    request: &T,
    document: &RegistryDocument,
) -> Result<T::Response, AgentError> {
    let mut prompt =
        Prompt::new(T::SYSTEM, T::TAG, request.serialize_json()).with_document(document.clone());
    let mut last_error = String::new();
    for attempt in 0..=MAX_RETRIES {
        let completion = model.complete(&prompt)?;
        match serde_json::from_str::<T::Response>(&completion.text) {
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
    Err(AgentError::Unparseable { agent: T::AGENT, attempts: MAX_RETRIES + 1, last_error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::protocol::*;
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

    fn decompose_request(query: &str) -> DecomposeRequest {
        DecomposeRequest {
            query: query.to_string(),
            context: context(),
            registry: mini_registry().hash(),
        }
    }

    #[test]
    fn querymind_parses_model_output() {
        let model = DeterministicExpertModel::new();
        let d = ask(
            &model,
            &decompose_request(
                "Identify the impact of severe earthquakes globally assuming a 10% infra \
                 failure probability",
            ),
            &mini_registry(),
        )
        .unwrap();
        assert_eq!(d.intent, Intent::DisasterImpact);
    }

    #[test]
    fn agents_recover_from_malformed_output() {
        // One corrupted completion, then a good one: the retry loop heals it.
        let model = FaultyModel::new(DeterministicExpertModel::new(), 1);
        let d = ask(&model, &decompose_request("impact of earthquakes at 10%"), &mini_registry());
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
                ask(&model, &decompose_request("impact of earthquakes"), &mini_registry())
                    .map(|_| ())
            })
            .expect("thread spawns")
            .join()
            .expect("parsing returns instead of overflowing the stack")
            .unwrap_err();
        assert!(matches!(err, AgentError::Unparseable { attempts: 3, .. }), "{err}");
    }

    #[test]
    fn agents_give_up_after_retries() {
        // Corrupt more completions than the retry budget allows.
        let model = FaultyModel::new(DeterministicExpertModel::new(), 10);
        let err =
            ask(&model, &decompose_request("impact of earthquakes"), &mini_registry()).unwrap_err();
        match err {
            AgentError::Unparseable { agent, attempts, .. } => {
                assert_eq!(agent, "QueryMind");
                assert_eq!(attempts, MAX_RETRIES + 1);
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
        let decomposition =
            llm::expert::decompose(&decompose_request("impact of earthquakes at 10%"), &entries());
        let request =
            ExploreRequest { decomposition, registry: mini_registry().hash(), variant: 0 };
        let got = ask(&model, &request, &mini_registry()).unwrap();
        assert_eq!(got.rationale, "canned");
    }

    #[test]
    fn curator_runs_over_prompts() {
        let model = DeterministicExpertModel::new();
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
        let request = CurateRequest { corpus, registry: mini_registry().hash(), min_uses: 2 };
        let proposal = ask(&model, &request, &mini_registry()).unwrap();
        assert_eq!(proposal.composites.len(), 1);
    }
}
