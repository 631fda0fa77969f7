//! Deterministic named counters.
//!
//! Everything is keyed by `BTreeMap`, so snapshots enumerate in name
//! order and two identical runs produce identical snapshots byte for
//! byte.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A counter captured at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// An immutable, name-ordered view of every counter a [`Recorder`]
/// holds — the facts no typed report carries (`events.*`,
/// `artifact_cache.*`, `world_cache.*`).
///
/// [`Recorder`]: crate::Recorder
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter, `0` when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// Mutable registry of counters. Name order (BTreeMap) makes
/// `snapshot()` deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// Add `delta` to the named counter (creating it at zero).
    pub(crate) fn add(&mut self, name: &str, delta: u64) {
        let slot = self.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Capture the current state, ordered by name.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, value)| CounterSnapshot {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::default();
        reg.add("a", 2);
        reg.add("a", 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn snapshots_enumerate_in_name_order() {
        let mut reg = MetricsRegistry::default();
        reg.add("zeta", 1);
        reg.add("alpha", 1);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
