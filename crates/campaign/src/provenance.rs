//! Provenance: every campaign result carries the words needed to
//! reproduce it.
//!
//! PROV-AGENT's framing (PAPERS.md): agentic outputs are only trustworthy
//! if each one is stamped with where it came from. For a campaign query
//! that means: which scenario (content hash, not just a name), over
//! which world, served under which registry epoch, expanded from which
//! family with which params, at which Monte Carlo draw, under which
//! fault plan. Two results with equal provenance hashes are replays of
//! the same computation and must carry equal payloads — the campaign
//! determinism suite pins exactly that.

use serde::{Deserialize, Serialize};
use net_model::hash::stable_hash;

/// Fold a string into the stable-hash word stream (length-prefixed so
/// `"ab" + "c"` and `"a" + "bc"` cannot collide across fields).
pub(crate) fn str_words(s: &str) -> u64 {
    let mut words: Vec<u64> = Vec::with_capacity(s.len() + 1);
    words.push(s.len() as u64);
    words.extend(s.as_bytes().iter().map(|&b| b as u64));
    stable_hash(&words)
}

/// The reproducibility stamp attached to one campaign query result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Engine scenario key the query was served against.
    pub scenario_key: String,
    /// [`world::Scenario::content_hash`] of the served scenario — the
    /// full timeline identity, not just the name.
    pub scenario_hash: u64,
    /// The world's content address ([`world::WorldConfig::content_hash`]).
    pub world_hash: u64,
    /// Registry epoch the serving session pinned.
    pub registry_epoch: u64,
    /// Family (base or composed) the scenario expanded from.
    pub family: String,
    /// [`scenario_forge::FamilyParams::content_hash`] of the draw's params.
    pub params_hash: u64,
    /// Monte Carlo draw index within the ensemble (0 = root params).
    pub draw: u64,
    /// Seed of the engine's installed fault plan, when one was injected —
    /// degraded results are only reproducible with the same plan.
    pub fault_seed: Option<u64>,
    /// Stable hash of the query text.
    pub query_hash: u64,
    /// Content hash of the run's deterministic trace, when the campaign
    /// ran with tracing enabled ([`telemetry::Recorder::trace_hash`]) —
    /// links the provenance stamp to the exported trace artifact.
    pub trace_hash: Option<u64>,
}

impl ProvenanceRecord {
    /// The whole record folded into one word — the identity campaign
    /// reports compare across reruns and worker counts.
    pub fn content_hash(&self) -> u64 {
        stable_hash(&[
            0x5052_4F56_454E_414E, // "PROVENAN"
            str_words(&self.scenario_key),
            self.scenario_hash,
            self.world_hash,
            self.registry_epoch,
            str_words(&self.family),
            self.params_hash,
            self.draw,
            match self.fault_seed {
                Some(seed) => seed ^ 0x4641_554C_5400_0001,
                None => 0x4E4F_5F46_4155_4C54, // "NO_FAULT"
            },
            self.query_hash,
            match self.trace_hash {
                Some(hash) => hash ^ 0x5452_4143_4500_0001,
                None => 0x4E4F_5F54_5241_4345, // "NO_TRACE"
            },
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ProvenanceRecord {
        ProvenanceRecord {
            scenario_key: "hijack-during-cascade/d0/v0".into(),
            scenario_hash: 1,
            world_hash: 2,
            registry_epoch: 0,
            family: "hijack-during-cascade".into(),
            params_hash: 3,
            draw: 0,
            fault_seed: None,
            query_hash: 4,
            trace_hash: None,
        }
    }

    #[test]
    fn content_hash_tracks_every_field() {
        let base = record();
        let variants = [
            ProvenanceRecord { scenario_key: "other".into(), ..record() },
            ProvenanceRecord { scenario_hash: 9, ..record() },
            ProvenanceRecord { world_hash: 9, ..record() },
            ProvenanceRecord { registry_epoch: 9, ..record() },
            ProvenanceRecord { family: "other".into(), ..record() },
            ProvenanceRecord { params_hash: 9, ..record() },
            ProvenanceRecord { draw: 9, ..record() },
            ProvenanceRecord { fault_seed: Some(0), ..record() },
            ProvenanceRecord { query_hash: 9, ..record() },
            ProvenanceRecord { trace_hash: Some(0), ..record() },
        ];
        let mut hashes = vec![base.content_hash()];
        hashes.extend(variants.iter().map(|r| r.content_hash()));
        let unique: std::collections::BTreeSet<u64> = hashes.iter().copied().collect();
        assert_eq!(unique.len(), hashes.len(), "every field moves the hash");
        assert_eq!(base.content_hash(), record().content_hash());
    }

    #[test]
    fn string_words_are_length_prefixed() {
        assert_ne!(str_words("ab"), str_words("a"));
        assert_ne!(str_words(""), str_words("\0"));
        assert_eq!(str_words("x"), str_words("x"));
    }

    #[test]
    fn records_roundtrip_through_json() {
        let r = ProvenanceRecord { trace_hash: Some(7), ..record() };
        let json = serde_json::to_string(&r).expect("serializes");
        let back: ProvenanceRecord = serde_json::from_str(&json).expect("parses");
        assert_eq!(r, back);
    }
}
