//! RIB snapshots: what a route collector sees at an instant.
//!
//! A [`RibSnapshot`] is the set of best routes from every collector peer to
//! every announced prefix — the synthetic analogue of a RouteViews
//! `bview`/RIB dump file.
//!
//! Control-plane incidents surface here: an active prefix hijack makes the
//! victim prefix a **MOAS** prefix (two candidate origins), and each
//! vantage point picks whichever origin its route selection actually
//! prefers — the classic partial-hijack capture footprint. Active route
//! leaks plumb into the routing computation itself as
//! [`crate::routing::PolicyOverrides`], so leaked (valley-violating,
//! inflated) paths appear verbatim in the snapshot entries.

use std::collections::{BTreeMap, BTreeSet};

use net_model::{Asn, Ipv4Net, SimTime};
use serde::{Deserialize, Serialize};
use world::{ControlPlaneState, Scenario};

use crate::graph::AsGraph;
use crate::routing::RoutingTable;

/// One RIB entry: `peer` reaches `prefix` via `as_path`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RibEntry {
    pub peer: Asn,
    pub prefix: Ipv4Net,
    /// AS path from peer to origin (peer first, origin last).
    pub as_path: Vec<Asn>,
}

impl RibEntry {
    /// The origin AS (last path element).
    #[expect(clippy::expect_used, reason = "a captured path holds at least its origin")]
    pub fn origin(&self) -> Asn {
        *self.as_path.last().expect("paths are non-empty")
    }
}

/// A full collector snapshot at `at`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RibSnapshot {
    pub at: SimTime,
    /// Entries in canonical (peer, prefix) order.
    pub entries: Vec<RibEntry>,
}

/// Per-prefix origin sets of a RIB: `(prefix, origins)` in ascending
/// prefix order, each origin list ascending and non-empty. Prefixes no
/// peer routes are absent. This is all the MOAS detector needs of a
/// baseline RIB ([`crate::anomaly::detect_moas_conflicts_indexed`]).
pub type OriginIndex = Vec<(Ipv4Net, Vec<Asn>)>;

impl RibSnapshot {
    /// Captures the snapshot for the given collector peers at `t`,
    /// including whatever control-plane incidents the scenario has active
    /// at that instant. Peers are sorted and deduplicated first, so the
    /// entries are in `(peer, prefix)` order with no duplicates whatever
    /// order or repetition `peers` arrives in.
    ///
    /// Many prefixes share an origin AS, so the best path per
    /// `(peer, origin)` pair is materialized from the routing table once
    /// and reused for every prefix that origin announces.
    pub fn capture(scenario: &Scenario, peers: &[Asn], t: SimTime) -> RibSnapshot {
        let world = &scenario.world;
        let control = scenario.control_plane_at(t);
        let graph = AsGraph::at_time(scenario, t);
        let routing = RoutingTable::compute_with(&graph, world, &(&control).into());
        let mut peers = peers.to_vec();
        peers.sort();
        peers.dedup();
        let hijacked = hijack_index(&control);
        let mut entries = Vec::new();
        let mut paths: BTreeMap<Asn, Option<Vec<Asn>>> = BTreeMap::new();
        for &peer in &peers {
            paths.clear();
            for pfx in &world.prefixes {
                let origin = match hijacked.get(&pfx.net) {
                    None => pfx.origin,
                    Some(bogus) => match arbitrate(&routing, peer, pfx.origin, bogus) {
                        Some(o) => o,
                        None => continue, // no candidate origin is routed
                    },
                };
                let path = paths
                    .entry(origin)
                    .or_insert_with(|| routing.route(peer, origin).map(|r| r.as_path));
                if let Some(path) = path {
                    entries.push(RibEntry { peer, prefix: pfx.net, as_path: path.clone() });
                }
            }
        }
        entries.sort_by_key(|a| (a.peer, a.prefix));
        RibSnapshot { at: t, entries }
    }

    /// The snapshot folded to its per-prefix origin sets.
    pub fn origins(&self) -> OriginIndex {
        let mut by_prefix: BTreeMap<Ipv4Net, BTreeSet<Asn>> = BTreeMap::new();
        for e in &self.entries {
            by_prefix.entry(e.prefix).or_default().insert(e.origin());
        }
        by_prefix
            .into_iter()
            .map(|(prefix, origins)| (prefix, origins.into_iter().collect()))
            .collect()
    }

    /// Fraction of (peer, prefix) pairs with a route, relative to the full
    /// cross product — a reachability health metric.
    pub fn coverage(&self, peers: usize, prefixes: usize) -> f64 {
        if peers == 0 || prefixes == 0 {
            return 0.0;
        }
        self.entries.len() as f64 / (peers * prefixes) as f64
    }
}

/// The active hijacks of a control-plane state, indexed by victim prefix
/// (bogus origins in ascending order), so quiet prefixes stay on the
/// memoized per-origin fast path.
pub(crate) fn hijack_index(control: &ControlPlaneState) -> BTreeMap<Ipv4Net, Vec<Asn>> {
    let mut hijacked: BTreeMap<Ipv4Net, Vec<Asn>> = BTreeMap::new();
    for &(prefix, origin) in &control.hijacks {
        hijacked.entry(prefix).or_default().push(origin);
    }
    hijacked
}

/// MOAS arbitration for one hijacked prefix: the vantage point holds the
/// route to whichever candidate origin — a bogus one or the legitimate
/// `origin` — its selection prefers, `(kind, hops, next hop)` and then
/// the lowest origin ASN. `None` when no candidate is routed.
pub(crate) fn arbitrate(
    routing: &RoutingTable,
    peer: Asn,
    origin: Asn,
    bogus: &[Asn],
) -> Option<Asn> {
    bogus
        .iter()
        .chain(std::iter::once(&origin))
        .filter_map(|&o| routing.selection(peer, o).map(|k| (k, o)))
        .min()
        .map(|(_, o)| o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::SimDuration;
    use world::{generate, EventKind, WorldConfig};

    fn scenario_with_cut() -> (Scenario, net_model::CableId, SimTime) {
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut = SimTime::EPOCH + SimDuration::days(5);
        let s = Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut);
        (s, cable, cut)
    }

    #[test]
    fn snapshot_is_canonical_and_covers_most_pairs() {
        let (s, _, _) = scenario_with_cut();
        let peers: Vec<Asn> = s.world.ases.iter().take(10).map(|a| a.asn).collect();
        let rib = RibSnapshot::capture(&s, &peers, SimTime::EPOCH);
        for w in rib.entries.windows(2) {
            assert!((w[0].peer, w[0].prefix) < (w[1].peer, w[1].prefix));
        }
        let cov = rib.coverage(peers.len(), s.world.prefixes.len());
        assert!(cov > 0.9, "coverage {cov}");
    }

    #[test]
    fn peer_order_and_duplicates_do_not_change_the_snapshot() {
        let (s, _, cut) = scenario_with_cut();
        let peers: Vec<Asn> = s.world.ases.iter().take(12).map(|a| a.asn).collect();
        let t = cut + SimDuration::hours(1);
        let canonical = RibSnapshot::capture(&s, &peers, t);
        let mut reversed = peers.clone();
        reversed.reverse();
        assert_eq!(RibSnapshot::capture(&s, &reversed, t), canonical);
        let mut with_dups = reversed.clone();
        with_dups.extend(peers.iter().take(4).copied());
        with_dups.insert(0, peers[7]);
        assert_eq!(RibSnapshot::capture(&s, &with_dups, t), canonical);
        for w in canonical.entries.windows(2) {
            assert!((w[0].peer, w[0].prefix) < (w[1].peer, w[1].prefix));
        }
    }

    #[test]
    fn entries_terminate_at_true_origin() {
        let (s, _, _) = scenario_with_cut();
        let peers = vec![s.world.ases[0].asn];
        let rib = RibSnapshot::capture(&s, &peers, SimTime::EPOCH);
        for e in &rib.entries {
            let pfx = s.world.prefixes.iter().find(|p| p.net == e.prefix).unwrap();
            assert_eq!(e.origin(), pfx.origin);
        }
    }

    #[test]
    fn hijack_creates_a_moas_split_across_vantage_points() {
        let world = generate(&WorldConfig::default());
        // Victim: a prefix whose origin is not itself a collector-tier AS;
        // hijacker: an AS in the victim's topological vicinity is not
        // required — any other AS will capture *some* vantage points.
        let victim = world.prefixes[0];
        let hijacker = world
            .ases
            .iter()
            .map(|a| a.asn)
            .find(|&a| a != victim.origin)
            .unwrap();
        let at = SimTime::EPOCH + SimDuration::days(5);
        let s = Scenario::quiet(world, 10).with_event(
            world::EventKind::PrefixHijack { origin: hijacker, victim_prefix: victim.net },
            at,
        );
        let peers: Vec<Asn> = s.world.ases.iter().map(|a| a.asn).collect();

        let before = RibSnapshot::capture(&s, &peers, at - SimDuration::hours(1));
        let after = RibSnapshot::capture(&s, &peers, at + SimDuration::hours(1));

        let origins = |rib: &RibSnapshot| -> std::collections::BTreeSet<Asn> {
            rib.entries.iter().filter(|e| e.prefix == victim.net).map(|e| e.origin()).collect()
        };
        assert_eq!(
            origins(&before).into_iter().collect::<Vec<_>>(),
            vec![victim.origin],
            "pre-hijack the prefix has one origin"
        );
        let moas = origins(&after);
        assert!(moas.contains(&hijacker), "some vantage point must capture the hijack");
        assert!(
            moas.contains(&victim.origin),
            "a partial hijack leaves other vantage points on the legitimate origin"
        );
        // Every non-hijacked prefix is untouched.
        let unchanged = after
            .entries
            .iter()
            .filter(|e| e.prefix != victim.net)
            .zip(before.entries.iter().filter(|e| e.prefix != victim.net))
            .all(|(a, b)| a == b);
        assert!(unchanged, "hijack must only move the victim prefix");
    }

    #[test]
    fn cut_changes_some_paths() {
        let (s, _, cut) = scenario_with_cut();
        let peers: Vec<Asn> = s.world.ases.iter().map(|a| a.asn).take(30).collect();
        let before = RibSnapshot::capture(&s, &peers, cut - SimDuration::hours(1));
        let after = RibSnapshot::capture(&s, &peers, cut + SimDuration::hours(1));
        let bi: BTreeMap<(Asn, Ipv4Net), &RibEntry> =
            before.entries.iter().map(|e| ((e.peer, e.prefix), e)).collect();
        let changed = after
            .entries
            .iter()
            .filter(|e| bi.get(&(e.peer, e.prefix)).is_none_or(|b| b.as_path != e.as_path))
            .count();
        assert!(changed > 0, "a major cable cut must move some best paths");
    }
}
