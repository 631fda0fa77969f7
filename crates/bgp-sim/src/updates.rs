//! BGP update streams.
//!
//! Real collectors record a continuous update feed; the simulator derives
//! an equivalent one by diffing routing state across every scenario event
//! and emitting, per changed `(peer, prefix)`:
//!
//! * a **withdrawal** if the pair lost its route,
//! * an **announcement** with the new path if it changed or appeared,
//! * plus 0–2 deterministic *path-exploration transients* shortly after the
//!   event (BGP's well-known convergence chatter), so update-burst
//!   detectors have realistic texture to work on.
//!
//! Each update's timestamp is the event time plus a per-(peer, prefix)
//! convergence jitter of up to two minutes, derived from `stable_hash`.

use net_model::{Asn, Ipv4Net, SimTime};
use serde::{Deserialize, Serialize};
use world::events::stable_hash;
use world::Scenario;

use crate::rib::{RibEntry, RibSnapshot};

/// Kind of update.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateKind {
    /// New best path announced.
    Announce { as_path: Vec<Asn> },
    /// Route withdrawn.
    Withdraw,
}

/// One BGP update as recorded by the collector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BgpUpdate {
    pub time: SimTime,
    pub peer: Asn,
    pub prefix: Ipv4Net,
    pub kind: UpdateKind,
}

impl BgpUpdate {
    /// Whether this is a withdrawal.
    pub fn is_withdraw(&self) -> bool {
        matches!(self.kind, UpdateKind::Withdraw)
    }
}

/// Derives the full update stream for a scenario from the given collector
/// peers, ordered by (time, peer, prefix).
///
/// Routing state is diffed at every event *boundary* inside the horizon —
/// starts and (for bounded events) ends — so a repaired cable or a
/// withdrawn route leak produces its reconvergence churn, not just its
/// onset.
pub fn derive_updates(scenario: &Scenario, peers: &[Asn]) -> Vec<BgpUpdate> {
    let mut updates = Vec::new();
    let mut boundaries: Vec<SimTime> = scenario
        .events
        .iter()
        .flat_map(|e| [Some(e.at), e.until])
        .flatten()
        .filter(|t| scenario.horizon.contains(*t))
        .collect();
    boundaries.sort();
    boundaries.dedup();
    if boundaries.is_empty() {
        return updates;
    }

    // A duplicated peer would duplicate (peer, prefix) entries in the
    // snapshots, and the merge-join below would emit its updates twice
    // (the old map-indexed diff deduplicated implicitly).
    let mut peers: Vec<Asn> = peers.to_vec();
    peers.sort();
    peers.dedup();
    let peers = &peers[..];

    // RIB snapshots are memoized across events: a capture is one full
    // routing run plus per-(peer, origin) path materialization (the
    // dominant cost centre once routing went dense), but routing state is
    // a pure function of `(AS-graph topology, control-plane state)`.
    // Events that change neither (congestion surges, cuts on already-dead
    // cables, sub-threshold disasters) reuse the previous snapshot and
    // produce no diff, instead of recomputing one capture per event.
    // Control-plane incidents (prefix hijacks, route leaks) are
    // *topology-neutral but routing-relevant*, which is why the
    // `same_topology` check alone is not a sound skip condition — the
    // active hijack/leak set must match, too.
    let world = &scenario.world;
    let start = scenario.horizon.start;
    let mut prev_graph = crate::graph::AsGraph::at_time(scenario, start);
    let mut prev_control = scenario.control_plane_at(start);
    let mut prev = RibSnapshot::capture_with(world, &prev_graph, peers, start, &prev_control);
    for at in boundaries {
        let after_t = SimTime(at.0 + 1);
        let graph = crate::graph::AsGraph::at_time(scenario, after_t);
        let control = scenario.control_plane_at(after_t);
        if graph.same_topology(&prev_graph) && control == prev_control {
            continue;
        }
        let next = RibSnapshot::capture_with(world, &graph, peers, after_t, &control);
        diff_into(scenario, &prev, &next, at, &mut updates);
        prev = next;
        prev_graph = graph;
        prev_control = control;
    }

    updates.sort_by_key(|a| (a.time, a.peer, a.prefix));
    updates
}

/// Diffs two snapshots by merge-joining their canonically sorted entry
/// vectors — no per-diff `(peer, prefix)` index maps. Relies on
/// [`RibSnapshot::capture`]'s invariant that entries are sorted by
/// `(peer, prefix)` with no duplicates (peers are deduplicated by
/// `derive_updates`). Updates are pushed unordered here; `derive_updates`
/// sorts the full stream at the end (the `(time, peer, prefix)` key is
/// collision-free, so output order is independent of emission order).
fn diff_into(
    scenario: &Scenario,
    before: &RibSnapshot,
    after: &RibSnapshot,
    event_time: SimTime,
    out: &mut Vec<BgpUpdate>,
) {
    let seed = scenario.world.seed;
    let (b, a) = (&before.entries, &after.entries);
    let (mut i, mut j) = (0, 0);
    while i < b.len() || j < a.len() {
        let bk = b.get(i).map(|e| (e.peer, e.prefix));
        let ak = a.get(j).map(|e| (e.peer, e.prefix));
        match (bk, ak) {
            (Some(bk), ak) if ak.is_none() || bk < ak.unwrap() => {
                // Withdrawal: in before, not in after.
                let t = jittered(seed, event_time, bk.0, &bk.1, 0);
                out.push(BgpUpdate { time: t, peer: bk.0, prefix: bk.1, kind: UpdateKind::Withdraw });
                i += 1;
            }
            (bk, Some(ak)) if bk.is_none() || ak < bk.unwrap() => {
                // New route.
                announce_into(seed, event_time, &a[j], out);
                j += 1;
            }
            _ => {
                // Present in both: announce only on path change.
                if b[i].as_path != a[j].as_path {
                    announce_into(seed, event_time, &a[j], out);
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Emits the announcement for a new/changed entry, preceded by its 0–2
/// deterministic path-exploration transients.
fn announce_into(seed: u64, event_time: SimTime, entry: &RibEntry, out: &mut Vec<BgpUpdate>) {
    let (peer, prefix) = (entry.peer, entry.prefix);
    let n_transients =
        (stable_hash(&[seed, peer.0 as u64, prefix.network().0 as u64, 0xA11]) % 3) as usize;
    for k in 0..n_transients {
        // Transient: the final path with the next hop's provider chain
        // artificially extended (prepend the peer again — synthetic
        // "exploration" path, clearly longer).
        let mut path = entry.as_path.clone();
        if let Some(&first) = path.first() {
            path.insert(0, first);
        }
        let t = jittered(seed, event_time, peer, &prefix, 1 + k as u64);
        out.push(BgpUpdate {
            time: t,
            peer,
            prefix,
            kind: UpdateKind::Announce { as_path: path },
        });
    }
    let t = jittered(seed, event_time, peer, &prefix, 10);
    out.push(BgpUpdate {
        time: t,
        peer,
        prefix,
        kind: UpdateKind::Announce { as_path: entry.as_path.clone() },
    });
}

/// Event time plus 0–89 s of deterministic convergence jitter. The jitter
/// base depends only on `(peer, prefix)` so that later `stage`s land
/// strictly later — transients always precede the settled path.
fn jittered(seed: u64, event: SimTime, peer: Asn, prefix: &Ipv4Net, stage: u64) -> SimTime {
    let h = stable_hash(&[seed, peer.0 as u64, prefix.network().0 as u64]);
    let base = (h % 90) as i64; // 0–89 s
    SimTime(event.0 + base + stage as i64 * 3 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::SimDuration;
    use world::{generate, EventKind, WorldConfig};

    fn updates_for_cut() -> (Scenario, SimTime, Vec<BgpUpdate>) {
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut = SimTime::EPOCH + SimDuration::days(5);
        let s = Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut);
        let peers: Vec<Asn> = s.world.ases.iter().take(40).map(|a| a.asn).collect();
        let ups = derive_updates(&s, &peers);
        (s, cut, ups)
    }

    #[test]
    fn quiet_scenario_produces_no_updates() {
        let world = generate(&WorldConfig::default());
        let s = Scenario::quiet(world, 10);
        let peers: Vec<Asn> = s.world.ases.iter().take(10).map(|a| a.asn).collect();
        assert!(derive_updates(&s, &peers).is_empty());
    }

    #[test]
    fn updates_cluster_after_the_event() {
        let (_, cut, ups) = updates_for_cut();
        assert!(!ups.is_empty());
        for u in &ups {
            assert!(u.time >= cut, "update at {} before cut {}", u.time, cut);
            assert!(u.time.0 <= cut.0 + 600, "update too late: {}", u.time);
        }
    }

    #[test]
    fn stream_is_sorted_and_deterministic() {
        let (_, _, ups1) = updates_for_cut();
        let (_, _, ups2) = updates_for_cut();
        assert_eq!(ups1, ups2);
        for w in ups1.windows(2) {
            assert!((w[0].time, w[0].peer, w[0].prefix) <= (w[1].time, w[1].peer, w[1].prefix));
        }
    }

    #[test]
    fn transients_precede_settled_announcement() {
        let (_, _, ups) = updates_for_cut();
        use std::collections::BTreeMap;
        let mut last_settled: BTreeMap<(Asn, Ipv4Net), SimTime> = BTreeMap::new();
        for u in &ups {
            if let UpdateKind::Announce { as_path } = &u.kind {
                // settled paths are simple (no duplicated head)
                if as_path.len() < 2 || as_path[0] != as_path[1] {
                    last_settled.insert((u.peer, u.prefix), u.time);
                }
            }
        }
        for u in &ups {
            if let UpdateKind::Announce { as_path } = &u.kind {
                if as_path.len() >= 2 && as_path[0] == as_path[1] {
                    let settled = last_settled.get(&(u.peer, u.prefix)).copied();
                    if let Some(st) = settled {
                        assert!(u.time < st, "transient after settle for {}", u.prefix);
                    }
                }
            }
        }
    }

    #[test]
    fn peer_order_and_duplicates_do_not_change_the_stream() {
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut = SimTime::EPOCH + SimDuration::days(5);
        let s = Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut);
        let peers: Vec<Asn> = s.world.ases.iter().take(20).map(|a| a.asn).collect();
        let canonical = derive_updates(&s, &peers);
        assert!(!canonical.is_empty());

        let mut reversed = peers.clone();
        reversed.reverse();
        assert_eq!(derive_updates(&s, &reversed), canonical);

        let mut with_dups = peers.clone();
        with_dups.extend(peers.iter().take(5).copied());
        assert_eq!(derive_updates(&s, &with_dups), canonical);
    }

    #[test]
    fn topology_neutral_events_produce_no_updates_and_skip_captures() {
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut = SimTime::EPOCH + SimDuration::days(5);
        let peers: Vec<Asn> = world.ases.iter().take(20).map(|a| a.asn).collect();

        // Baseline: just the cut.
        let base = Scenario::quiet(world.clone(), 10)
            .with_event(EventKind::CableCut { cable }, cut);
        let canonical = derive_updates(&base, &peers);
        assert!(!canonical.is_empty());

        // The same cut plus congestion surges (no connectivity change) —
        // the memoized path must skip those events and emit the identical
        // stream.
        let noisy = Scenario::quiet(world, 10)
            .with_event(
                EventKind::CongestionSurge {
                    from: net_model::Region::Europe,
                    to: net_model::Region::Asia,
                    extra_ms: 40.0,
                },
                SimTime::EPOCH + SimDuration::days(2),
            )
            .with_event(EventKind::CableCut { cable }, cut)
            .with_event(
                EventKind::CongestionSurge {
                    from: net_model::Region::NorthAmerica,
                    to: net_model::Region::Europe,
                    extra_ms: 25.0,
                },
                SimTime::EPOCH + SimDuration::days(7),
            );
        assert_eq!(derive_updates(&noisy, &peers), canonical);
    }

    #[test]
    fn control_plane_events_produce_updates_despite_identical_topology() {
        // A hijack and a bounded leak change no adjacency, so the old
        // `same_topology`-only memoization would have (wrongly) skipped
        // every capture and derived an empty stream.
        let world = generate(&WorldConfig::default());
        let victim = world.prefixes[0];
        let hijacker = world
            .ases
            .iter()
            .map(|a| a.asn)
            .find(|&a| a != victim.origin)
            .unwrap();
        let at = SimTime::EPOCH + SimDuration::days(5);
        let s = Scenario::quiet(world, 10).with_event(
            EventKind::PrefixHijack { origin: hijacker, victim_prefix: victim.net },
            at,
        );
        let peers: Vec<Asn> = s.world.ases.iter().take(40).map(|a| a.asn).collect();
        let ups = derive_updates(&s, &peers);
        assert!(!ups.is_empty(), "a hijack must generate announcements");
        // Every update concerns the hijacked prefix, and the settled
        // announcements all originate at the hijacker (updates are only
        // emitted for vantage points that switched).
        for u in &ups {
            assert_eq!(u.prefix, victim.net);
            assert!(u.time >= at);
        }
        let moas: Vec<Asn> = ups
            .iter()
            .filter_map(|u| match &u.kind {
                UpdateKind::Announce { as_path } => as_path.last().copied(),
                UpdateKind::Withdraw => None,
            })
            .filter(|o| *o == hijacker)
            .collect();
        assert!(!moas.is_empty(), "hijacked announcements must carry the bogus origin");
    }

    #[test]
    fn bounded_leak_reconverges_at_both_window_edges() {
        let world = generate(&WorldConfig::default());
        let scenario0 = Scenario::quiet(world.clone(), 10);
        let graph = crate::graph::AsGraph::at_time(&scenario0, SimTime::EPOCH);
        // A multi-homed AS guarantees the leak changes some best path.
        let leaker = world
            .ases
            .iter()
            .map(|a| a.asn)
            .find(|&a| graph.providers(a).len() >= 2)
            .expect("multi-homed AS exists");
        let start = SimTime::EPOCH + SimDuration::days(4);
        let end = start + SimDuration::days(2);
        let mut s = Scenario::quiet(world, 10);
        s.push_event(EventKind::RouteLeak { leaker }, start, Some(end));
        let peers: Vec<Asn> = s.world.ases.iter().take(40).map(|a| a.asn).collect();
        let ups = derive_updates(&s, &peers);
        assert!(!ups.is_empty(), "the leak must move some best paths");
        let (onset, recovery): (Vec<_>, Vec<_>) = ups.iter().partition(|u| u.time < end);
        assert!(!onset.is_empty(), "leak onset churn");
        assert!(!recovery.is_empty(), "leak withdrawal churn at the window end");
        // Onset announcements include leak-inflated paths crossing the
        // leaker mid-path.
        let through_leaker = onset.iter().any(|u| match &u.kind {
            UpdateKind::Announce { as_path } => {
                as_path.len() > 2 && as_path[1..as_path.len() - 1].contains(&leaker)
            }
            UpdateKind::Withdraw => false,
        });
        assert!(through_leaker, "some announced path must ride the leaker");
    }
}
