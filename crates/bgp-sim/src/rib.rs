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

use std::collections::BTreeMap;

use net_model::{Asn, Ipv4Net, SimTime};
use serde::{Deserialize, Serialize};
use world::{ControlPlaneState, Scenario, World};

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

impl RibSnapshot {
    /// Captures the snapshot for the given collector peers at `t`,
    /// including whatever control-plane incidents the scenario has active
    /// at that instant.
    ///
    /// Many prefixes share an origin AS, so the best path per
    /// `(peer, origin)` pair is materialized from the routing table once
    /// and reused for every prefix that origin announces.
    pub fn capture(scenario: &Scenario, peers: &[Asn], t: SimTime) -> RibSnapshot {
        let graph = AsGraph::at_time(scenario, t);
        Self::capture_with(&scenario.world, &graph, peers, t, &scenario.control_plane_at(t))
    }

    /// Captures the snapshot for a pre-built AS graph under an explicit
    /// control-plane state. Routing (and therefore the snapshot) is a pure
    /// function of `(topology, control-plane state)` — `derive_updates`
    /// memoizes on exactly that pair.
    pub fn capture_with(
        world: &World,
        graph: &AsGraph,
        peers: &[Asn],
        t: SimTime,
        control: &ControlPlaneState,
    ) -> RibSnapshot {
        let routing = RoutingTable::compute_with(
            graph,
            world,
            crate::routing::default_threads(),
            &control.into(),
        );
        // Hijacked prefixes, pre-indexed so quiet prefixes stay on the
        // memoized per-origin fast path.
        let mut hijacked: BTreeMap<Ipv4Net, Vec<Asn>> = BTreeMap::new();
        for &(prefix, origin) in &control.hijacks {
            hijacked.entry(prefix).or_default().push(origin);
        }
        let mut entries = Vec::new();
        let mut paths: BTreeMap<Asn, Option<Vec<Asn>>> = BTreeMap::new();
        for peer in peers {
            paths.clear();
            for pfx in &world.prefixes {
                // MOAS arbitration: the vantage point holds the route to
                // whichever candidate origin its selection prefers —
                // `(kind, hops, next hop)`, then lowest origin ASN.
                let origin = match hijacked.get(&pfx.net) {
                    None => pfx.origin,
                    Some(bogus) => {
                        let best = bogus
                            .iter()
                            .chain(std::iter::once(&pfx.origin))
                            .filter_map(|&o| routing.selection(*peer, o).map(|k| (k, o)))
                            .min();
                        match best {
                            Some((_, o)) => o,
                            None => continue, // no candidate origin is routed
                        }
                    }
                };
                let path = paths
                    .entry(origin)
                    .or_insert_with(|| routing.route(*peer, origin).map(|r| r.as_path));
                if let Some(path) = path {
                    entries.push(RibEntry {
                        peer: *peer,
                        prefix: pfx.net,
                        as_path: path.clone(),
                    });
                }
            }
        }
        entries.sort_by_key(|a| (a.peer, a.prefix));
        RibSnapshot { at: t, entries }
    }

    /// Index by (peer, prefix) for diffing.
    pub fn index(&self) -> BTreeMap<(Asn, Ipv4Net), &RibEntry> {
        self.entries.iter().map(|e| ((e.peer, e.prefix), e)).collect()
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
        let bi = before.index();
        let changed = after
            .entries
            .iter()
            .filter(|e| bi.get(&(e.peer, e.prefix)).is_none_or(|b| b.as_path != e.as_path))
            .count();
        assert!(changed > 0, "a major cable cut must move some best paths");
    }
}
