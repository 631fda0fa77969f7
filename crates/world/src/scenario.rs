//! Scenarios: a world plus a timeline of events plus "now".
//!
//! A [`Scenario`] is the unit the measurement substrates consume. It knows
//! which assets are failed at any instant, which the BGP simulator turns
//! into reconvergence (withdrawals/announcements) and the traceroute
//! simulator turns into path and latency changes.

use std::collections::BTreeSet;
use std::sync::Arc;

use net_model::{Asn, CableId, Ipv4Net, LinkId, Region, SimDuration, SimTime, TimeWindow};
use net_model::geo::GeoCircle;
use net_model::hash::stable_hash;
use serde::{Deserialize, Serialize};

use crate::events::{fails, Event, EventId, EventKind};
use crate::World;

/// A world with a timeline.
///
/// The world is held behind an `Arc`: scenarios are cheap to clone, and
/// any number of scenarios can share one generated world (the
/// scenario-forge cache hands the *same* `Arc<World>` to every scenario
/// whose config matches — `Arc::ptr_eq` on [`Scenario::world`] is the
/// cache-sharing witness).
#[derive(Debug, Clone)]
pub struct Scenario {
    pub world: Arc<World>,
    pub events: Vec<Event>,
    /// The analyst's "now" — queries with relative time resolve against it.
    pub now: SimTime,
    /// The observable measurement window (dumps exist only inside it).
    pub horizon: TimeWindow,
}

/// Serializable description of a scenario timeline (the world
/// regenerates from its config, so only the world's content identity
/// and the events need persisting). `world_hash` is the config's full
/// [`crate::WorldConfig::content_hash`] — two scenarios whose worlds
/// share a seed but differ in any other knob compare unequal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    pub world_seed: u64,
    pub world_hash: u64,
    pub events: Vec<Event>,
    pub now: SimTime,
    pub horizon: TimeWindow,
}

impl Scenario {
    /// A quiet scenario: no events, `now` at the end of a `days`-long
    /// horizon. Accepts an owned [`World`] or an already-shared
    /// `Arc<World>` (cache hit) interchangeably.
    pub fn quiet(world: impl Into<Arc<World>>, days: i64) -> Scenario {
        let start = SimTime::EPOCH;
        let end = start + SimDuration::days(days);
        Scenario {
            world: world.into(),
            events: Vec::new(),
            now: end,
            horizon: TimeWindow::new(start, end),
        }
    }

    /// The shared world handle (an `Arc` clone, not a world copy).
    pub fn world_handle(&self) -> Arc<World> {
        Arc::clone(&self.world)
    }

    /// Adds an event, assigning the next [`EventId`].
    pub fn push_event(&mut self, kind: EventKind, at: SimTime, until: Option<SimTime>) -> EventId {
        let id = EventId(self.events.len() as u32);
        self.events.push(Event { id, kind, at, until });
        id
    }

    /// Builder-style variant of [`Scenario::push_event`].
    pub fn with_event(mut self, kind: EventKind, at: SimTime) -> Scenario {
        self.push_event(kind, at, None);
        self
    }

    /// Content identity of the whole scenario: world config hash, the
    /// observation window, "now", and every timeline event (id, kind,
    /// bounds) folded through [`stable_hash`]. Two scenarios hash
    /// equal iff a replay from their specs produces identical measurement
    /// records — this is the word a campaign provenance record stamps
    /// on every query result.
    pub fn content_hash(&self) -> u64 {
        let mut words = vec![
            0x5343_454E_4152_494F, // "SCENARIO"
            self.world.config.content_hash(),
            self.now.0 as u64,
            self.horizon.start.0 as u64,
            self.horizon.end.0 as u64,
            self.events.len() as u64,
        ];
        for ev in &self.events {
            words.push(ev.id.0 as u64);
            ev.kind.push_content_words(&mut words);
            words.push(ev.at.0 as u64);
            words.push(match ev.until {
                Some(t) => t.0 as u64 ^ 0x554E_5449_4C00_0001,
                None => 0x4F50_454E_5F45_4E44,
            });
        }
        stable_hash(&words)
    }

    /// The serializable spec for this scenario.
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            world_seed: self.world.seed,
            world_hash: self.world.config.content_hash(),
            events: self.events.clone(),
            now: self.now,
            horizon: self.horizon,
        }
    }

    /// Cable segments failed at `t`, as `(cable, segment index)` pairs.
    pub fn failed_segments_at(&self, t: SimTime) -> BTreeSet<(CableId, usize)> {
        let mut out = BTreeSet::new();
        for ev in &self.events {
            if !ev.active_at(t) {
                continue;
            }
            match &ev.kind {
                EventKind::CableCut { cable } => {
                    let n = self.world.cable(*cable).segments.len();
                    out.extend((0..n).map(|s| (*cable, s)));
                }
                EventKind::SegmentCut { cable, segment } => {
                    out.insert((*cable, *segment));
                }
                EventKind::Earthquake { footprint, failure_prob }
                | EventKind::Hurricane { footprint, failure_prob } => {
                    out.extend(self.disaster_failed_segments(
                        ev.id,
                        footprint,
                        *failure_prob,
                    ));
                }
                EventKind::CongestionSurge { .. }
                | EventKind::PrefixHijack { .. }
                | EventKind::RouteLeak { .. } => {}
            }
        }
        out
    }

    /// Cables with at least one failed segment at `t`.
    pub fn degraded_cables_at(&self, t: SimTime) -> BTreeSet<CableId> {
        self.failed_segments_at(t).into_iter().map(|(c, _)| c).collect()
    }

    /// Cable segments that a disaster footprint takes out: a segment is
    /// exposed if either landing lies inside the footprint, and each exposed
    /// segment fails with the event's probability (deterministically).
    fn disaster_failed_segments(
        &self,
        event: EventId,
        footprint: &GeoCircle,
        p: f64,
    ) -> Vec<(CableId, usize)> {
        let mut out = Vec::new();
        for cable in &self.world.cables {
            for (si, seg) in cable.segments.iter().enumerate() {
                let pa = self.world.city(seg.a).location;
                let pb = self.world.city(seg.b).location;
                if footprint.contains(&pa) || footprint.contains(&pb) {
                    let asset = ((cable.id.0 as u64) << 16) | si as u64;
                    if fails(self.world.seed, event.0 as u64, asset, p) {
                        out.push((cable.id, si));
                    }
                }
            }
        }
        out
    }

    /// IP links down at `t`: a link is down if its physical path rides a
    /// failed segment, or (for disasters) if one of its path cities sits
    /// inside an active footprint and the per-asset draw fails it.
    pub fn links_down_at(&self, t: SimTime) -> BTreeSet<LinkId> {
        let failed = self.failed_segments_at(t);
        let mut down = BTreeSet::new();
        for link in &self.world.links {
            let rides_failed = link.path.hops.iter().any(|hop| {
                if let crate::physical::PathHop::Cable { cable, segment, .. } = hop {
                    failed.contains(&(*cable, *segment))
                } else {
                    false
                }
            });
            if rides_failed {
                down.insert(link.id);
                continue;
            }
            // Disaster footprints can also take out landing/terrestrial
            // facilities the link's path traverses.
            for ev in &self.events {
                if !ev.active_at(t) {
                    continue;
                }
                if let EventKind::Earthquake { footprint, failure_prob }
                | EventKind::Hurricane { footprint, failure_prob } = &ev.kind
                {
                    let exposed = link
                        .path
                        .cities
                        .iter()
                        .any(|&c| footprint.contains(&self.world.city(c).location));
                    if exposed {
                        let asset = 0x4C49_4E4B_0000_0000 | link.id.0 as u64; // "LINK"
                        if fails(self.world.seed, ev.id.0 as u64, asset, *failure_prob) {
                            down.insert(link.id);
                            break;
                        }
                    }
                }
            }
        }
        down
    }

    /// Extra one-way latency applied to region pairs at `t` from active
    /// congestion surges (order-insensitive on the pair).
    pub fn congestion_extra_ms(&self, t: SimTime, a: Region, b: Region) -> f64 {
        self.events
            .iter()
            .filter(|e| e.active_at(t))
            .filter_map(|e| match &e.kind {
                EventKind::CongestionSurge { from, to, extra_ms }
                    if (*from == a && *to == b) || (*from == b && *to == a) =>
                {
                    Some(*extra_ms)
                }
                _ => None,
            })
            .sum()
    }

    /// The BGP control-plane state active at `t`: which prefixes are
    /// being hijacked (and by whom) and which ASes are leaking routes.
    /// Canonically ordered and deduplicated, so two instants with the
    /// same active incidents compare equal — the BGP substrate memoizes
    /// RIB captures on exactly this state (plus the topology).
    pub fn control_plane_at(&self, t: SimTime) -> ControlPlaneState {
        let mut hijacks = Vec::new();
        let mut leakers = Vec::new();
        for ev in self.events.iter().filter(|e| e.active_at(t)) {
            match &ev.kind {
                EventKind::PrefixHijack { origin, victim_prefix } => {
                    hijacks.push((*victim_prefix, *origin));
                }
                EventKind::RouteLeak { leaker } => leakers.push(*leaker),
                _ => {}
            }
        }
        hijacks.sort();
        hijacks.dedup();
        leakers.sort();
        leakers.dedup();
        ControlPlaneState { hijacks, leakers }
    }

    /// Whether the scenario schedules any control-plane incident at all.
    pub fn has_control_plane_events(&self) -> bool {
        self.events.iter().any(|e| e.kind.is_control_plane())
    }

    /// All event (time, id) pairs inside the horizon, ordered by time.
    pub fn timeline(&self) -> Vec<(SimTime, EventId)> {
        let mut v: Vec<(SimTime, EventId)> = self
            .events
            .iter()
            .filter(|e| self.horizon.contains(e.at))
            .map(|e| (e.at, e.id))
            .collect();
        v.sort();
        v
    }

    /// Every instant inside the horizon where an event starts or (for a
    /// bounded event) ends, ascending and distinct: the times the world's
    /// state can change.
    pub fn boundaries(&self) -> Vec<SimTime> {
        let mut boundaries: Vec<SimTime> = self
            .events
            .iter()
            .flat_map(|e| [Some(e.at), e.until])
            .flatten()
            .filter(|t| self.horizon.contains(*t))
            .collect();
        boundaries.sort();
        boundaries.dedup();
        boundaries
    }
}

/// The BGP control-plane overlay at one instant: active prefix hijacks
/// (as `(victim prefix, bogus origin)` pairs) and active route leakers,
/// both canonically sorted. Quiet state compares equal to
/// [`ControlPlaneState::default`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlPlaneState {
    /// `(victim prefix, hijacking origin)` pairs, ascending.
    pub hijacks: Vec<(Ipv4Net, Asn)>,
    /// ASes re-exporting every learned route, ascending.
    pub leakers: Vec<Asn>,
}

impl ControlPlaneState {
    /// Whether no control-plane incident is active.
    pub fn is_quiet(&self) -> bool {
        self.hijacks.is_empty() && self.leakers.is_empty()
    }

    /// The hijacking origins for `prefix`, ascending (usually 0 or 1).
    pub fn hijackers_of(&self, prefix: Ipv4Net) -> impl Iterator<Item = Asn> + '_ {
        self.hijacks.iter().filter(move |(p, _)| *p == prefix).map(|(_, a)| *a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, WorldConfig};
    use net_model::GeoPoint;

    fn small_world() -> World {
        generate(&WorldConfig { seed: 7, ..WorldConfig::default() })
    }

    #[test]
    fn quiet_scenario_has_nothing_down() {
        let s = Scenario::quiet(small_world(), 10);
        assert!(s.links_down_at(s.now).is_empty());
        assert!(s.failed_segments_at(s.now).is_empty());
    }

    #[test]
    fn cable_cut_downs_exactly_the_links_riding_it() {
        let world = small_world();
        let cable = world.cable_by_name("SeaMeWe-5").expect("curated cable").id;
        let expected: BTreeSet<LinkId> = world.links_on_cable(cable).into_iter().collect();
        assert!(!expected.is_empty(), "SeaMeWe-5 should carry links");

        let cut_at = SimTime::EPOCH + SimDuration::days(5);
        let s = Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut_at);

        assert!(s.links_down_at(cut_at - SimDuration::hours(1)).is_empty());
        let down = s.links_down_at(cut_at);
        assert_eq!(down, expected);
    }

    #[test]
    fn segment_cut_is_a_subset_of_full_cut() {
        let world = small_world();
        let cable = world.cable_by_name("AAE-1").unwrap().id;
        let at = SimTime::EPOCH + SimDuration::days(1);

        let full = Scenario::quiet(world.clone(), 10)
            .with_event(EventKind::CableCut { cable }, at)
            .links_down_at(at);
        let seg = Scenario::quiet(world, 10)
            .with_event(EventKind::SegmentCut { cable, segment: 0 }, at)
            .links_down_at(at);
        assert!(seg.is_subset(&full));
    }

    #[test]
    fn disaster_failures_scale_with_probability() {
        let world = small_world();
        let footprint = GeoCircle::new(GeoPoint::of(31.2, 29.9), 600.0); // Alexandria
        let at = SimTime::EPOCH + SimDuration::days(1);
        let count = |p: f64| {
            Scenario::quiet(world.clone(), 10)
                .with_event(EventKind::Earthquake { footprint, failure_prob: p }, at)
                .failed_segments_at(at)
                .len()
        };
        assert_eq!(count(0.0), 0);
        let half = count(0.5);
        let full = count(1.0);
        assert!(full >= half, "p=1 ({full}) must fail at least as many as p=0.5 ({half})");
        assert!(full > 0, "Alexandria quake with p=1 must fail something");
    }

    #[test]
    fn congestion_applies_to_region_pair_both_ways() {
        let world = small_world();
        let at = SimTime::EPOCH + SimDuration::days(2);
        let mut s = Scenario::quiet(world, 10);
        s.push_event(
            EventKind::CongestionSurge { from: Region::Europe, to: Region::Asia, extra_ms: 30.0 },
            at,
            Some(at + SimDuration::days(1)),
        );
        assert_eq!(s.congestion_extra_ms(at, Region::Asia, Region::Europe), 30.0);
        assert_eq!(s.congestion_extra_ms(at, Region::Europe, Region::Africa), 0.0);
        assert_eq!(
            s.congestion_extra_ms(at + SimDuration::days(2), Region::Europe, Region::Asia),
            0.0
        );
    }

    #[test]
    fn control_plane_events_touch_no_links() {
        let world = small_world();
        let victim = world.prefixes[0];
        let hijacker = world
            .ases
            .iter()
            .map(|a| a.asn)
            .find(|a| *a != victim.origin)
            .expect("more than one AS");
        let at = SimTime::EPOCH + SimDuration::days(3);
        let mut s = Scenario::quiet(world, 10)
            .with_event(
                EventKind::PrefixHijack { origin: hijacker, victim_prefix: victim.net },
                at,
            );
        s.push_event(
            EventKind::RouteLeak { leaker: hijacker },
            at + SimDuration::days(1),
            Some(at + SimDuration::days(2)),
        );

        assert!(s.has_control_plane_events());
        assert!(s.links_down_at(s.now).is_empty(), "control plane fails no links");
        assert!(s.failed_segments_at(s.now).is_empty());

        // Before either incident: quiet control plane.
        assert!(s.control_plane_at(at - SimDuration::hours(1)).is_quiet());
        // Hijack only.
        let early = s.control_plane_at(at);
        assert_eq!(early.hijacks, vec![(victim.net, hijacker)]);
        assert!(early.leakers.is_empty());
        assert_eq!(early.hijackers_of(victim.net).collect::<Vec<_>>(), vec![hijacker]);
        // Hijack + leak while the leak window is open.
        let mid = s.control_plane_at(at + SimDuration::days(1));
        assert_eq!(mid.leakers, vec![hijacker]);
        // Leak window closed again: same state as the hijack-only instant.
        assert_eq!(s.control_plane_at(s.now - SimDuration::hours(1)), early);
    }

    #[test]
    fn content_hash_tracks_timeline_identity() {
        let world = Arc::new(small_world());
        let at = SimTime::EPOCH + SimDuration::days(2);
        let cable = world.cables[0].id;

        let quiet = Scenario::quiet(Arc::clone(&world), 10);
        let cut = Scenario::quiet(Arc::clone(&world), 10)
            .with_event(EventKind::CableCut { cable }, at);
        let later =
            Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, at + SimDuration::hours(1));

        assert_eq!(quiet.content_hash(), quiet.clone().content_hash());
        assert_eq!(cut.content_hash(), cut.clone().content_hash());
        assert_ne!(quiet.content_hash(), cut.content_hash());
        assert_ne!(cut.content_hash(), later.content_hash(), "event timing is content");
    }

    #[test]
    fn timeline_is_time_ordered() {
        let world = small_world();
        let c0 = world.cables[0].id;
        let c1 = world.cables[1].id;
        let mut s = Scenario::quiet(world, 10);
        s.push_event(EventKind::CableCut { cable: c1 }, SimTime(500_000), None);
        s.push_event(EventKind::CableCut { cable: c0 }, SimTime(100_000), None);
        let tl = s.timeline();
        assert_eq!(tl.len(), 2);
        assert!(tl[0].0 <= tl[1].0);
    }
}
