//! # registry — measurement capability encoding
//!
//! ArachNet's foundation: a curated catalog describing *what* measurement
//! tools can do, not *how* they do it. Each [`CapabilityEntry`] records a
//! tool function's capability sentence, typed inputs and output
//! ([`DataFormat`]), constraints, cost class and reliability — the
//! "measurement API" the agents compose against.
//!
//! Design notes carried over from the paper:
//!
//! * the registry is **compact** (capability sentences, not codebases) —
//!   agents reason over this view alone;
//! * entries are **typed**: workflow wiring is checked against input/output
//!   formats, which is what makes automated composition safe;
//! * the registry **evolves**: RegistryCurator adds validated composite
//!   capabilities ([`Implementation::Composite`]) mined from successful
//!   workflows;
//! * lookups scale **linearly** in the number of entries (benchmarked in
//!   E5).

pub mod entry;
pub mod format;
pub mod search;

pub use entry::{CapabilityEntry, CostClass, FunctionId, Implementation, Param};
pub use format::DataFormat;
pub use search::{EntryTokens, SearchHit};

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

/// Errors raised by registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Attempted to register a function id twice.
    Duplicate(FunctionId),
    /// Composite refers to a function that is not registered.
    MissingDependency { composite: FunctionId, missing: FunctionId },
    /// (De)serialization failure.
    Serde(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate(id) => write!(f, "duplicate registry entry {id}"),
            RegistryError::MissingDependency { composite, missing } => {
                write!(f, "composite {composite} depends on unregistered {missing}")
            }
            RegistryError::Serde(e) => write!(f, "registry serialization error: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The capability registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: BTreeMap<FunctionId, CapabilityEntry>,
    /// Per-entry token sets, built once at [`Registry::register`] time so
    /// search never re-tokenizes entry text (see [`search`]). Keyed in
    /// lockstep with `entries`; rebuilt (not persisted) on deserialize.
    tokens: BTreeMap<FunctionId, EntryTokens>,
}

// The token cache is derived state, so (de)serialization is hand-written:
// only `entries` is persisted (the same JSON shape the derive produced)
// and the cache is rebuilt when a registry is loaded — it can never go
// stale against its entries.
impl Serialize for Registry {
    fn serialize_json(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("entries".to_string(), self.entries.serialize_json());
        Value::Object(obj)
    }
}

impl Deserialize for Registry {
    fn deserialize_json(v: &Value) -> Result<Self, serde::Error> {
        let obj = match v {
            Value::Object(m) => m,
            _ => return Err(serde::Error::msg("expected registry object")),
        };
        let entries_value =
            obj.get("entries").ok_or_else(|| serde::Error::msg("missing field entries"))?;
        let entries: BTreeMap<FunctionId, CapabilityEntry> =
            Deserialize::deserialize_json(entries_value)?;
        let tokens = entries.iter().map(|(id, e)| (id.clone(), EntryTokens::of(e))).collect();
        Ok(Registry { entries, tokens })
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers an entry; rejects duplicates and composites with missing
    /// dependencies.
    pub fn register(&mut self, entry: CapabilityEntry) -> Result<(), RegistryError> {
        if self.entries.contains_key(&entry.id) {
            return Err(RegistryError::Duplicate(entry.id));
        }
        if let Implementation::Composite { sequence } = &entry.implementation {
            for dep in sequence {
                if !self.entries.contains_key(dep) {
                    return Err(RegistryError::MissingDependency {
                        composite: entry.id.clone(),
                        missing: dep.clone(),
                    });
                }
            }
        }
        self.tokens.insert(entry.id.clone(), EntryTokens::of(&entry));
        self.entries.insert(entry.id.clone(), entry);
        Ok(())
    }

    /// Looks up an entry.
    pub fn get(&self, id: &FunctionId) -> Option<&CapabilityEntry> {
        self.entries.get(id)
    }

    /// Whether the function is registered.
    pub fn contains(&self, id: &FunctionId) -> bool {
        self.entries.contains_key(id)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in canonical (id) order.
    pub fn iter(&self) -> impl Iterator<Item = &CapabilityEntry> + '_ {
        self.entries.values()
    }

    /// Entries zipped with their register-time token caches, in canonical
    /// (id) order. The two maps are keyed in lockstep.
    pub(crate) fn iter_with_tokens(
        &self,
    ) -> impl Iterator<Item = (&CapabilityEntry, &EntryTokens)> + '_ {
        self.entries.values().zip(self.tokens.values())
    }

    /// Entries whose output format is compatible with `format`.
    pub fn producing(&self, format: DataFormat) -> Vec<&CapabilityEntry> {
        self.iter().filter(|e| e.output.compatible_with(format)).collect()
    }

    /// Keyword search over capability text and tags; see [`search`].
    pub fn search(&self, query: &str, limit: usize) -> Vec<SearchHit<'_>> {
        search::search(self, query, limit)
    }

    /// Frameworks represented, deduplicated and sorted.
    pub fn frameworks(&self) -> Vec<String> {
        let mut v: Vec<String> = self.iter().map(|e| e.framework.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Serializes to pretty JSON (the on-disk registry format).
    pub fn to_json(&self) -> Result<String, RegistryError> {
        serde_json::to_string_pretty(self).map_err(|e| RegistryError::Serde(e.to_string()))
    }

    /// Loads from JSON.
    pub fn from_json(s: &str) -> Result<Self, RegistryError> {
        serde_json::from_str(s).map_err(|e| RegistryError::Serde(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, output: DataFormat) -> CapabilityEntry {
        CapabilityEntry::new(id, "test", &format!("does {id}"), vec![], output)
    }

    #[test]
    fn register_and_lookup() {
        let mut r = Registry::new();
        r.register(entry("a.f", DataFormat::ImpactReport)).unwrap();
        assert!(r.contains(&FunctionId::from("a.f")));
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn duplicate_rejected() {
        let mut r = Registry::new();
        r.register(entry("a.f", DataFormat::ImpactReport)).unwrap();
        let err = r.register(entry("a.f", DataFormat::ImpactReport)).unwrap_err();
        assert_eq!(err, RegistryError::Duplicate(FunctionId::from("a.f")));
    }

    #[test]
    fn composite_requires_dependencies() {
        let mut r = Registry::new();
        r.register(entry("a.f", DataFormat::ImpactReport)).unwrap();
        let mut comp = entry("macro.g", DataFormat::ImpactReport);
        comp.implementation = Implementation::Composite {
            sequence: vec![FunctionId::from("a.f"), FunctionId::from("a.missing")],
        };
        let err = r.register(comp).unwrap_err();
        assert!(matches!(err, RegistryError::MissingDependency { .. }));
    }

    #[test]
    fn producing_respects_compatibility() {
        let mut r = Registry::new();
        r.register(entry("a.links", DataFormat::CableDependencies)).unwrap();
        r.register(entry("a.report", DataFormat::ImpactReport)).unwrap();
        let hits = r.producing(DataFormat::CableDependencies);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, FunctionId::from("a.links"));
    }

    #[test]
    fn json_roundtrip() {
        let mut r = Registry::new();
        r.register(entry("a.f", DataFormat::ImpactReport)).unwrap();
        r.register(entry("b.g", DataFormat::CableDependencies)).unwrap();
        let json = r.to_json().unwrap();
        let back = Registry::from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.contains(&FunctionId::from("b.g")));
    }

    #[test]
    fn frameworks_deduplicated() {
        let mut r = Registry::new();
        r.register(entry("a.f", DataFormat::CableDependencies)).unwrap();
        r.register(entry("a.g", DataFormat::CableDependencies)).unwrap();
        assert_eq!(r.frameworks(), vec!["test".to_string()]);
    }
}
