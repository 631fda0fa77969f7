//! # llm — the language-model substrate
//!
//! ArachNet's agents are prompt/completion loops over an LLM (the paper
//! uses Claude Sonnet 4). Reproducing that offline substitutes a
//! [`LanguageModel`] trait with a deterministic implementation,
//! [`DeterministicExpertModel`], that encodes the same expert reasoning
//! the authors iteratively embedded in their prompts.
//!
//! The mechanics of the real system are preserved end to end:
//!
//! * agents build a [`Prompt`] (system text + task tag + JSON payload),
//! * the payload names the capability registry by content hash; the
//!   prompt carries the pinned epoch's [`RegistryDocument`] (the
//!   registry's canonical JSON, serialized once per epoch) by reference,
//!   so the registry is not re-serialized into every exchange. The
//!   deterministic model parses each document once per content hash and
//!   fails closed when the document is missing, names another registry
//!   or does not parse,
//! * the model returns a [`Completion`] containing **text** (JSON the
//!   agent must parse — nothing is passed as native structs),
//! * agents parse defensively and **retry with feedback** on malformed
//!   output; [`FaultyModel`] exists to exercise exactly that path,
//! * [`RecordingModel`] captures transcripts for inspection, mirroring the
//!   prompt/case-study artifacts the authors open-sourced.
//!
//! The expert reasoning itself lives in [`expert`], with the
//! natural-language query analysis in [`lexicon`] and the solution-space
//! search in [`planner`].

pub mod expert;
pub mod lexicon;
pub mod planner;
pub mod protocol;

pub use expert::DeterministicExpertModel;

use std::sync::Arc;

use net_model::hash::stable_str_hash;
use parking_lot::Mutex;
use registry::Registry;
use serde::{Deserialize, Serialize};

/// A registry as the model reads it: its canonical JSON, serialized once,
/// named by [`stable_str_hash`] of that text. Cloning shares the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryDocument {
    hash: u64,
    json: Arc<str>,
}

impl RegistryDocument {
    /// Serializes `registry` into its document.
    pub fn new(registry: &Registry) -> RegistryDocument {
        RegistryDocument::from_json(registry.serialize_json().to_json_string())
    }

    /// A document over already-serialized registry JSON. The hash is
    /// always computed from `json`, so equal text means equal hash.
    pub fn from_json(json: impl Into<Arc<str>>) -> RegistryDocument {
        let json = json.into();
        RegistryDocument { hash: stable_str_hash(&json), json }
    }

    /// The content hash requests name the registry by.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The registry's canonical JSON.
    pub fn json(&self) -> &str {
        &self.json
    }
}

/// A prompt sent to the model.
#[derive(Debug, Clone, PartialEq)]
pub struct Prompt {
    /// The agent's system prompt (role + instructions). Carried for
    /// fidelity and transcripts; the deterministic model keys off `task`.
    pub system: String,
    /// Task tag, e.g. `"querymind.decompose"`.
    pub task: String,
    /// Structured payload (query, context, registry hash, prior artifacts).
    pub payload: serde_json::Value,
    /// The registry document the payload names by hash, attached by
    /// reference rather than copied into the payload.
    pub document: Option<RegistryDocument>,
}

impl Prompt {
    pub fn new(system: &str, task: &str, payload: serde_json::Value) -> Prompt {
        Prompt { system: system.to_string(), task: task.to_string(), payload, document: None }
    }

    /// Attaches the registry document the payload names.
    pub fn with_document(mut self, document: RegistryDocument) -> Prompt {
        self.document = Some(document);
        self
    }
}

/// A model completion: text the agent must parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    pub text: String,
}

/// Errors from the model layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LlmError {
    /// The model cannot handle this task tag.
    UnknownTask(String),
    /// The payload did not match the task's expected schema.
    BadPayload { task: String, message: String },
    /// Transport-level failure (simulated).
    Unavailable(String),
}

impl std::fmt::Display for LlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmError::UnknownTask(t) => write!(f, "model has no handler for task {t:?}"),
            LlmError::BadPayload { task, message } => {
                write!(f, "bad payload for {task}: {message}")
            }
            LlmError::Unavailable(m) => write!(f, "model unavailable: {m}"),
        }
    }
}

impl std::error::Error for LlmError {}

/// The model abstraction. A production deployment would implement this
/// over an API client; the reproduction ships deterministic
/// implementations.
pub trait LanguageModel: Send + Sync {
    /// Completes a prompt.
    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError>;

    /// Model name for reports.
    fn name(&self) -> &str;
}

/// Wraps a model and records every exchange.
pub struct RecordingModel<M> {
    inner: M,
    transcript: Mutex<Vec<(Prompt, Result<Completion, LlmError>)>>,
}

impl<M: LanguageModel> RecordingModel<M> {
    pub fn new(inner: M) -> Self {
        RecordingModel { inner, transcript: Mutex::new(Vec::new()) }
    }

    /// Number of exchanges so far.
    pub fn exchanges(&self) -> usize {
        self.transcript.lock().len()
    }

    /// Clones the transcript.
    pub fn transcript(&self) -> Vec<(Prompt, Result<Completion, LlmError>)> {
        self.transcript.lock().clone()
    }
}

impl<M: LanguageModel> LanguageModel for RecordingModel<M> {
    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        let result = self.inner.complete(prompt);
        self.transcript.lock().push((prompt.clone(), result.clone()));
        result
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A model that corrupts its first `faults` completions (truncated JSON),
/// then behaves like the inner model — used to test agent retry loops.
pub struct FaultyModel<M> {
    inner: M,
    remaining_faults: Mutex<usize>,
}

impl<M: LanguageModel> FaultyModel<M> {
    pub fn new(inner: M, faults: usize) -> Self {
        FaultyModel { inner, remaining_faults: Mutex::new(faults) }
    }
}

impl<M: LanguageModel> LanguageModel for FaultyModel<M> {
    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        let mut remaining = self.remaining_faults.lock();
        if *remaining > 0 {
            *remaining -= 1;
            let good = self.inner.complete(prompt)?;
            let mut cut = good.text.len() / 2;
            while !good.text.is_char_boundary(cut) {
                cut -= 1;
            }
            return Ok(Completion { text: good.text[..cut].to_string() });
        }
        self.inner.complete(prompt)
    }

    fn name(&self) -> &str {
        "faulty-wrapper"
    }
}

/// A fully scripted model: returns canned completions per task tag.
/// Useful for unit-testing agents in isolation.
pub struct ScriptedModel {
    responses: Vec<(String, String)>,
}

impl ScriptedModel {
    pub fn new(responses: Vec<(&str, &str)>) -> Self {
        ScriptedModel {
            responses: responses
                .into_iter()
                .map(|(t, r)| (t.to_string(), r.to_string()))
                .collect(),
        }
    }
}

impl LanguageModel for ScriptedModel {
    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        self.responses
            .iter()
            .find(|(task, _)| task == &prompt.task)
            .map(|(_, r)| Completion { text: r.clone() })
            .ok_or_else(|| LlmError::UnknownTask(prompt.task.clone()))
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_model_returns_canned_text() {
        let m = ScriptedModel::new(vec![("a.task", "{\"ok\":true}")]);
        let c = m.complete(&Prompt::new("sys", "a.task", serde_json::json!({}))).unwrap();
        assert_eq!(c.text, "{\"ok\":true}");
        assert!(m.complete(&Prompt::new("sys", "other", serde_json::json!({}))).is_err());
    }

    #[test]
    fn recording_model_captures_exchanges() {
        let m = RecordingModel::new(ScriptedModel::new(vec![("t", "x")]));
        let _ = m.complete(&Prompt::new("s", "t", serde_json::json!({})));
        let _ = m.complete(&Prompt::new("s", "missing", serde_json::json!({})));
        assert_eq!(m.exchanges(), 2);
        let t = m.transcript();
        assert!(t[0].1.is_ok());
        assert!(t[1].1.is_err());
    }

    #[test]
    fn faulty_model_corrupts_then_recovers() {
        let m = FaultyModel::new(ScriptedModel::new(vec![("t", "{\"k\": \"value\"}")]), 1);
        let p = Prompt::new("s", "t", serde_json::json!({}));
        let first = m.complete(&p).unwrap();
        assert!(serde_json::from_str::<serde_json::Value>(&first.text).is_err());
        let second = m.complete(&p).unwrap();
        assert!(serde_json::from_str::<serde_json::Value>(&second.text).is_ok());
    }

    #[test]
    fn faulty_model_cuts_on_a_char_boundary() {
        // 6 bytes: the midpoint (3) falls inside the two-byte `é` at 2..4.
        let text = "[\"é\"]";
        assert!(!text.is_char_boundary(text.len() / 2));
        let m = FaultyModel::new(ScriptedModel::new(vec![("t", text)]), 1);
        let p = Prompt::new("s", "t", serde_json::json!({}));
        assert_eq!(m.complete(&p).unwrap().text, "[\"");
        assert_eq!(m.complete(&p).unwrap().text, text);
    }
}
