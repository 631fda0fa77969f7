//! Scenario events: the things that go wrong.
//!
//! Two kinds of "events" appear in the paper's case studies and they are
//! deliberately different objects here:
//!
//! * **Timeline events** ([`Event`]) actually happen inside a scenario at a
//!   specific [`SimTime`] — a cable cut, a disaster, a congestion surge.
//!   The BGP and traceroute simulators derive their dumps from them, so the
//!   measurement record organically contains the evidence the forensic
//!   workflow (case study 4) has to dig out.
//! * **Hypothetical events** (case study 2's "assume 10% failure
//!   probability") never enter a timeline; they are *analysis inputs*
//!   evaluated by the Xaminer substrate's event processor.
//!
//! Probabilistic failures are resolved deterministically: whether a given
//! asset fails under a given event is a pure function of
//! `(world seed, event id, asset id, probability)` via [`stable_hash`].

use net_model::{Asn, CableId, GeoPoint, Ipv4Net, Region, SimTime};
use net_model::geo::GeoCircle;
use serde::{Deserialize, Serialize};

/// Re-exported from `net_model::hash`, where the workspace's stable
/// hashes live.
use net_model::hash::stable_hash;

/// Identifier of a timeline event within a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventId(pub u32);

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event-{}", self.0)
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A full cable-system failure (trawler, anchor drag, air strike…).
    CableCut { cable: CableId },
    /// A single segment failure on a cable.
    SegmentCut { cable: CableId, segment: usize },
    /// An earthquake with a circular footprint; each exposed asset fails
    /// with `failure_prob`.
    Earthquake { footprint: GeoCircle, failure_prob: f64 },
    /// A hurricane; identical mechanics, different label (and typically a
    /// larger footprint with lower per-asset failure probability).
    Hurricane { footprint: GeoCircle, failure_prob: f64 },
    /// Extra one-way latency on paths between two regions (congestion,
    /// DDoS scrubbing detour…). A confounder for forensic analysis.
    CongestionSurge { from: Region, to: Region, extra_ms: f64 },
    /// A control-plane incident: `origin` illegitimately announces
    /// `victim_prefix` (which another AS owns), creating a MOAS conflict.
    /// Topology-neutral: no link fails, but BGP best paths move wherever
    /// the bogus origin wins the route selection.
    PrefixHijack { origin: Asn, victim_prefix: Ipv4Net },
    /// A control-plane incident: `leaker` re-exports its best routes to
    /// *every* neighbour, violating the valley-free export rule (the
    /// classic accidental transit leak). Also topology-neutral.
    RouteLeak { leaker: Asn },
}

impl EventKind {
    /// Short classifier used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::CableCut { .. } => "cable-cut",
            EventKind::SegmentCut { .. } => "segment-cut",
            EventKind::Earthquake { .. } => "earthquake",
            EventKind::Hurricane { .. } => "hurricane",
            EventKind::CongestionSurge { .. } => "congestion-surge",
            EventKind::PrefixHijack { .. } => "prefix-hijack",
            EventKind::RouteLeak { .. } => "route-leak",
        }
    }

    /// Whether the event lives purely in the BGP control plane (no
    /// physical asset fails; the AS-level topology is untouched while
    /// routing policy — origination or export — changes).
    pub fn is_control_plane(&self) -> bool {
        matches!(self, EventKind::PrefixHijack { .. } | EventKind::RouteLeak { .. })
    }

    /// Appends the event's content as stable hash words (a discriminant
    /// followed by every field, floats by bit pattern). Two kinds push
    /// the same words iff they compare equal — provenance hashing and
    /// deterministic script merging both build on this.
    pub fn push_content_words(&self, out: &mut Vec<u64>) {
        match self {
            EventKind::CableCut { cable } => {
                out.extend([1, cable.0 as u64]);
            }
            EventKind::SegmentCut { cable, segment } => {
                out.extend([2, cable.0 as u64, *segment as u64]);
            }
            EventKind::Earthquake { footprint, failure_prob } => {
                out.extend([3]);
                push_circle_words(footprint, *failure_prob, out);
            }
            EventKind::Hurricane { footprint, failure_prob } => {
                out.extend([4]);
                push_circle_words(footprint, *failure_prob, out);
            }
            EventKind::CongestionSurge { from, to, extra_ms } => {
                out.extend([5, *from as u64, *to as u64, extra_ms.to_bits()]);
            }
            EventKind::PrefixHijack { origin, victim_prefix } => {
                out.extend([
                    6,
                    origin.0 as u64,
                    victim_prefix.network().0 as u64,
                    victim_prefix.len() as u64,
                ]);
            }
            EventKind::RouteLeak { leaker } => {
                out.extend([7, leaker.0 as u64]);
            }
        }
    }

    /// The event content folded into one stable word.
    pub fn content_hash(&self) -> u64 {
        let mut words = Vec::new();
        self.push_content_words(&mut words);
        stable_hash(&words)
    }
}

fn push_circle_words(footprint: &GeoCircle, failure_prob: f64, out: &mut Vec<u64>) {
    out.extend([
        footprint.center.lat().to_bits(),
        footprint.center.lon().to_bits(),
        footprint.radius_km.to_bits(),
        failure_prob.to_bits(),
    ]);
}

/// A timeline event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    pub id: EventId,
    pub kind: EventKind,
    /// When the event takes effect.
    pub at: SimTime,
    /// When its effects end (`None` = persists through the horizon; cable
    /// repairs take weeks, longer than any scenario here).
    pub until: Option<SimTime>,
}

impl Event {
    /// Whether the event is in effect at time `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.at && self.until.is_none_or(|end| t < end)
    }
}

/// A hypothetical disaster spec — the analysis input for what-if impact
/// studies (case study 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisasterSpec {
    /// "earthquake" / "hurricane" — free-form label carried into reports.
    pub kind: String,
    pub name: String,
    pub footprint: GeoCircle,
    pub failure_prob: f64,
}

impl DisasterSpec {
    pub fn earthquake(name: impl Into<String>, center: GeoPoint, radius_km: f64, p: f64) -> Self {
        DisasterSpec {
            kind: "earthquake".into(),
            name: name.into(),
            footprint: GeoCircle::new(center, radius_km),
            failure_prob: p,
        }
    }

    pub fn hurricane(name: impl Into<String>, center: GeoPoint, radius_km: f64, p: f64) -> Self {
        DisasterSpec {
            kind: "hurricane".into(),
            name: name.into(),
            footprint: GeoCircle::new(center, radius_km),
            failure_prob: p,
        }
    }
}

/// Deterministic Bernoulli draw: does `asset` fail under `event` given
/// probability `p`?
pub fn fails(seed: u64, event: u64, asset: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let h = stable_hash(&[seed, event, asset]);
    (h as f64 / u64::MAX as f64) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_activity_window() {
        let e = Event {
            id: EventId(0),
            kind: EventKind::CableCut { cable: CableId(1) },
            at: SimTime(100),
            until: None,
        };
        assert!(!e.active_at(SimTime(99)));
        assert!(e.active_at(SimTime(100)));
        assert!(e.active_at(SimTime(1_000_000)));

        let bounded = Event { until: Some(SimTime(200)), ..e };
        assert!(bounded.active_at(SimTime(150)));
        assert!(!bounded.active_at(SimTime(200)));
    }

    #[test]
    fn stable_hash_is_stable_and_sensitive() {
        let a = stable_hash(&[1, 2, 3]);
        let b = stable_hash(&[1, 2, 3]);
        let c = stable_hash(&[1, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fails_edge_probabilities() {
        assert!(!fails(42, 1, 1, 0.0));
        assert!(fails(42, 1, 1, 1.0));
    }

    #[test]
    fn fails_rate_approximates_probability() {
        let p = 0.1;
        let n = 10_000;
        let hits = (0..n).filter(|&i| fails(42, 7, i, p)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - p).abs() < 0.02, "rate {rate} too far from {p}");
    }

    #[test]
    fn fails_is_deterministic() {
        for i in 0..100u64 {
            assert_eq!(fails(1, 2, i, 0.3), fails(1, 2, i, 0.3));
        }
    }

    #[test]
    fn disaster_spec_constructors() {
        let q = DisasterSpec::earthquake("Aegean", GeoPoint::of(38.0, 25.0), 300.0, 0.1);
        assert_eq!(q.kind, "earthquake");
        assert!((q.failure_prob - 0.1).abs() < 1e-12);
        let h = DisasterSpec::hurricane("H1", GeoPoint::of(25.0, -80.0), 500.0, 0.1);
        assert_eq!(h.kind, "hurricane");
    }
}
