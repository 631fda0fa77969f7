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
//!
//! ## Diffing in origin space
//!
//! A vantage point's route to a prefix is its route to the prefix's
//! origin AS, and many prefixes share an origin. So the derivation never
//! materializes a RIB per event: between two routing states it compares
//! each `(peer, origin)` path once, walking both routing tables' frozen
//! parent chains ([`RoutingTable::path`], no allocation), and emits
//! updates for the prefixes of the origins whose path changed. Prefixes
//! hijacked in either state go through the same MOAS arbitration as
//! [`crate::RibSnapshot::capture`]. The result is the stream a full
//! snapshot diff would produce, byte for byte (the `reference` oracle in
//! this module's tests pins it).
//!
//! Routing is a pure function of `(AS-graph topology, policy overrides)`,
//! and hijacks never enter it, so the derivation keeps one routing table
//! per distinct pair it meets: a boundary that changes only hijacks, or
//! a bounded incident whose end restores an earlier state, reuses a
//! table instead of recomputing it. Events that change neither topology
//! nor control-plane state (congestion surges, cuts on already-dead
//! cables, sub-threshold disasters) are skipped outright.
//!
//! [`observe`] derives the stream together with the origin sets of the
//! RIB at the horizon start — the MOAS detector's baseline — read from
//! the derivation's own start state, so one scenario needs one
//! derivation.
//!
//! ## Windows by reference
//!
//! An [`Observation`] also keeps one `u32` per update: the slot of the
//! update's prefix in the world's ascending prefix list, recorded at
//! emission (the diff walks prefixes in that order) and carried through
//! the final sort. Slot order is prefix order, so the MOAS detector
//! keeps its per-prefix state in a slot-indexed `Vec` and emits in slot
//! order. An [`UpdateWindow`] is a time window of an observation served
//! without copying it: the observation behind an `Arc` plus the index
//! range two binary searches find on the time-sorted stream. It derefs
//! to its `&[BgpUpdate]`, and its JSON projection is that slice's array.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, Range};
use std::rc::Rc;
use std::sync::Arc;

use net_model::{Asn, Ipv4Net, SimTime, TimeWindow};
use serde::{Deserialize, Serialize};
use world::events::stable_hash;
use world::{ControlPlaneState, Scenario, World};

use crate::graph::AsGraph;
use crate::rib::{arbitrate, hijack_index, OriginIndex};
use crate::routing::{Path, PolicyOverrides, RoutingTable};

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

/// What a collector observes of one scenario: the update stream across
/// the horizon, the prefix slot of each update, and the per-prefix origin
/// sets of its RIB at the horizon start.
#[derive(Debug, Default)]
pub struct Observation {
    /// Ordered by (time, peer, prefix), as [`derive_updates`] returns it,
    /// and held at its exact length.
    updates: Vec<BgpUpdate>,
    /// `slots[i]` is the rank of `updates[i].prefix` in an ascending list
    /// of distinct prefixes (the world's, for a derived stream), so equal
    /// slots mean equal prefixes and slot order is prefix order.
    slots: Vec<u32>,
    /// The length of that prefix list: every slot is below it.
    slot_count: u32,
    /// Equal to [`crate::RibSnapshot::origins`] of the start capture.
    baseline_origins: OriginIndex,
}

impl Observation {
    /// An observation of `updates` alone, with no baseline: each update's
    /// slot is its prefix's rank among the stream's distinct prefixes.
    /// The stream keeps the order it came in.
    pub(crate) fn of_stream(updates: Vec<BgpUpdate>) -> Observation {
        let mut prefixes: Vec<Ipv4Net> = updates.iter().map(|u| u.prefix).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        // Every prefix is in the list, so each search finds its rank; a
        // rank is below the stream length, which `UpdateWindow`'s
        // deserializer bounds to `u32`.
        let rank = |p: &Ipv4Net| prefixes.binary_search(p).unwrap_or_else(|i| i) as u32;
        let slots = updates.iter().map(|u| rank(&u.prefix)).collect();
        Observation {
            updates,
            slots,
            slot_count: prefixes.len() as u32,
            baseline_origins: OriginIndex::new(),
        }
    }

    /// The update stream.
    pub fn updates(&self) -> &[BgpUpdate] {
        &self.updates
    }

    /// The per-prefix origin sets of the collector RIB at the horizon
    /// start: the MOAS detector's baseline.
    pub fn baseline_origins(&self) -> &OriginIndex {
        &self.baseline_origins
    }
}

/// A time window of an [`Observation`]'s update stream, held by
/// reference: the observation is shared behind an `Arc`, and the window is
/// an index range into its stream. It derefs to the window's updates.
///
/// Its JSON projection is the array a `Vec<BgpUpdate>` of the same
/// updates projects to, and it deserializes from such an array: the
/// result is a window over the whole array, with slots ranked among the
/// array's own prefixes and no baseline.
#[derive(Debug, Clone)]
pub struct UpdateWindow {
    observation: Arc<Observation>,
    range: Range<usize>,
}

impl UpdateWindow {
    /// The whole stream of `observation`.
    pub fn new(observation: Observation) -> UpdateWindow {
        let range = 0..observation.updates.len();
        UpdateWindow { observation: Arc::new(observation), range }
    }

    /// The updates of this window at instants inside `window` — the
    /// half-open `[start, end)` of [`TimeWindow::contains`] — sharing the
    /// same observation. Two binary searches; the stream must be in time
    /// order, as every derived stream is.
    pub fn within(&self, window: TimeWindow) -> UpdateWindow {
        let updates = &**self;
        let start = updates.partition_point(|u| u.time < window.start);
        let end = updates.partition_point(|u| u.time < window.end).max(start);
        let offset = self.range.start;
        UpdateWindow {
            observation: Arc::clone(&self.observation),
            range: offset + start..offset + end,
        }
    }

    /// The prefix slot of each update of the window, in stream order.
    pub(crate) fn slots(&self) -> &[u32] {
        &self.observation.slots[self.range.clone()]
    }

    /// How many prefix slots the window's observation has: every slot is
    /// below it.
    pub(crate) fn slot_count(&self) -> usize {
        self.observation.slot_count as usize
    }

    /// The observation the window is a range of.
    pub fn observation(&self) -> &Observation {
        &self.observation
    }
}

impl Deref for UpdateWindow {
    type Target = [BgpUpdate];

    fn deref(&self) -> &[BgpUpdate] {
        &self.observation.updates[self.range.clone()]
    }
}

impl Serialize for UpdateWindow {
    fn serialize_json(&self) -> serde::Value {
        (**self).serialize_json()
    }
}

impl Deserialize for UpdateWindow {
    fn deserialize_json(v: &serde::Value) -> Result<Self, serde::Error> {
        let updates = Vec::<BgpUpdate>::deserialize_json(v)?;
        if u32::try_from(updates.len()).is_err() {
            return Err(serde::Error::msg("update stream longer than u32::MAX"));
        }
        Ok(UpdateWindow::new(Observation::of_stream(updates)))
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
    derive(scenario, peers, false).updates
}

/// [`derive_updates`] plus the baseline origin sets, from one derivation.
pub fn observe(scenario: &Scenario, peers: &[Asn]) -> Observation {
    derive(scenario, peers, true)
}

/// Every event start and end inside the horizon, ascending and distinct.
fn boundaries(scenario: &Scenario) -> Vec<SimTime> {
    let mut boundaries: Vec<SimTime> = scenario
        .events
        .iter()
        .flat_map(|e| [Some(e.at), e.until])
        .flatten()
        .filter(|t| scenario.horizon.contains(*t))
        .collect();
    boundaries.sort();
    boundaries.dedup();
    boundaries
}

fn derive(scenario: &Scenario, peers: &[Asn], baseline: bool) -> Observation {
    let boundaries = boundaries(scenario);
    if boundaries.is_empty() && !baseline {
        return Observation::default();
    }
    // A duplicated peer would emit its updates twice.
    let mut peers: Vec<Asn> = peers.to_vec();
    peers.sort();
    peers.dedup();

    let world = &scenario.world;
    let prefixes = PrefixOrigins::new(world);
    let mut tables = Vec::new();
    let start = scenario.horizon.start;
    let mut prev = State::new(
        &mut tables,
        world,
        AsGraph::at_time(scenario, start),
        scenario.control_plane_at(start),
    );
    let baseline_origins =
        if baseline { origins_at(&prev, &peers, &prefixes) } else { Vec::new() };

    // Each update with its prefix's slot.
    let mut updates = Vec::new();
    let mut changed = Vec::new();
    for at in boundaries {
        let after_t = SimTime(at.0 + 1);
        let graph = AsGraph::at_time(scenario, after_t);
        let control = scenario.control_plane_at(after_t);
        if graph.same_topology(&prev.table.graph) && control == prev.control {
            continue;
        }
        let next = State::new(&mut tables, world, graph, control);
        let diff = Diff {
            seed: world.seed,
            event_time: at,
            before: &prev,
            after: &next,
            prefixes: &prefixes,
        };
        for &peer in &peers {
            diff.peer_into(peer, &mut changed, &mut updates);
        }
        prev = next;
    }

    updates.sort_by_key(|(a, _): &(BgpUpdate, u32)| (a.time, a.peer, a.prefix));
    let (mut updates, slots): (Vec<BgpUpdate>, Vec<u32>) = updates.into_iter().unzip();
    updates.shrink_to_fit();
    Observation { updates, slots, slot_count: prefixes.slot_count(), baseline_origins }
}

/// The world's prefixes in ascending prefix order, each with the slot of
/// its origin in the distinct-origin list. A prefix's index in the list
/// is its slot in the [`Observation`]; the world's prefixes are distinct.
struct PrefixOrigins {
    /// `(prefix, origin, origin slot)`.
    prefixes: Vec<(Ipv4Net, Asn, usize)>,
    /// Distinct origins, ascending.
    origins: Vec<Asn>,
}

impl PrefixOrigins {
    fn new(world: &World) -> PrefixOrigins {
        let origins: Vec<Asn> = world
            .prefixes
            .iter()
            .map(|p| p.origin)
            .collect::<BTreeSet<Asn>>()
            .into_iter()
            .collect();
        let mut prefixes: Vec<(Ipv4Net, Asn, usize)> = world
            .prefixes
            .iter()
            .map(|p| (p.net, p.origin, origins.binary_search(&p.origin).unwrap_or(0)))
            .collect();
        prefixes.sort_by_key(|&(net, _, _)| net);
        PrefixOrigins { prefixes, origins }
    }

    /// How many prefix slots there are (the world generator allocates
    /// fewer than 4096 prefixes).
    fn slot_count(&self) -> u32 {
        self.prefixes.len() as u32
    }
}

/// The routing table of one distinct `(topology, policy overrides)` pair.
struct Table {
    graph: AsGraph,
    overrides: PolicyOverrides,
    routing: RoutingTable,
}

/// One state of the timeline: the routing table that applies, plus the
/// control-plane state it came from and its hijacks by victim prefix.
struct State {
    table: Rc<Table>,
    control: ControlPlaneState,
    hijacked: BTreeMap<Ipv4Net, Vec<Asn>>,
}

impl State {
    /// The state for `(graph, control)`, computing its routing table only
    /// when none of the `known` tables has the same topology and overrides.
    fn new(
        known: &mut Vec<Rc<Table>>,
        world: &World,
        graph: AsGraph,
        control: ControlPlaneState,
    ) -> State {
        let overrides = PolicyOverrides::from(&control);
        let found =
            known.iter().find(|t| t.overrides == overrides && t.graph.same_topology(&graph));
        let table = match found {
            Some(table) => Rc::clone(table),
            None => {
                let threads = crate::routing::default_threads();
                let routing = RoutingTable::compute_with(&graph, world, threads, &overrides);
                let table = Rc::new(Table { graph, overrides, routing });
                known.push(Rc::clone(&table));
                table
            }
        };
        let hijacked = hijack_index(&control);
        State { table, control, hijacked }
    }

    fn routing(&self) -> &RoutingTable {
        &self.table.routing
    }

    /// The path a vantage point's route to a prefix takes in this state:
    /// towards the prefix's own origin, or towards the MOAS arbitration's
    /// pick when the prefix is hijacked.
    fn path(&self, peer: Asn, prefix: &Ipv4Net, origin: Asn) -> Option<Path<'_>> {
        let origin = match self.hijacked.get(prefix) {
            None => origin,
            Some(bogus) => arbitrate(self.routing(), peer, origin, bogus)?,
        };
        self.routing().path(peer, origin)
    }
}

/// The per-prefix origin sets of the RIB the state's collector peers hold.
fn origins_at(state: &State, peers: &[Asn], prefixes: &PrefixOrigins) -> OriginIndex {
    let routing = state.routing();
    let routed: Vec<bool> = prefixes
        .origins
        .iter()
        .map(|&o| peers.iter().any(|&p| routing.has_route(p, o)))
        .collect();
    let mut index = OriginIndex::new();
    for &(net, origin, slot) in &prefixes.prefixes {
        let Some(bogus) = state.hijacked.get(&net) else {
            if routed[slot] {
                index.push((net, vec![origin]));
            }
            continue;
        };
        let seen: BTreeSet<Asn> =
            peers.iter().filter_map(|&peer| arbitrate(routing, peer, origin, bogus)).collect();
        if !seen.is_empty() {
            index.push((net, seen.into_iter().collect()));
        }
    }
    index
}

/// The diff between two consecutive routing states at one boundary.
struct Diff<'a> {
    seed: u64,
    event_time: SimTime,
    before: &'a State,
    after: &'a State,
    prefixes: &'a PrefixOrigins,
}

impl Diff<'_> {
    /// Emits one peer's updates, in ascending prefix order. Updates are
    /// pushed per peer in ascending peer order, so the emission order is
    /// the `(peer, prefix)` order of a snapshot diff, and the final stable
    /// sort yields the same stream.
    fn peer_into(&self, peer: Asn, changed: &mut Vec<bool>, out: &mut Vec<(BgpUpdate, u32)>) {
        let (before, after) = (self.before, self.after);
        let same_routing = Rc::ptr_eq(&before.table, &after.table);
        changed.clear();
        if !same_routing {
            changed.extend(self.prefixes.origins.iter().map(|&o| {
                !same_path(before.routing().path(peer, o), after.routing().path(peer, o))
            }));
        }
        for (prefix_slot, &(net, origin, slot)) in self.prefixes.prefixes.iter().enumerate() {
            let hijacked = before.hijacked.contains_key(&net) || after.hijacked.contains_key(&net);
            if !hijacked && (same_routing || !changed[slot]) {
                continue;
            }
            let mut emit = |u: BgpUpdate| out.push((u, prefix_slot as u32));
            let (seed, at) = (self.seed, self.event_time);
            match (before.path(peer, &net, origin), after.path(peer, &net, origin)) {
                (Some(_), None) => {
                    let time = jittered(seed, at, peer, &net, 0);
                    emit(BgpUpdate { time, peer, prefix: net, kind: UpdateKind::Withdraw });
                }
                (None, Some(path)) => announce_into(seed, at, peer, net, path.collect(), &mut emit),
                (Some(b), Some(a)) => {
                    if !b.eq(a.clone()) {
                        announce_into(seed, at, peer, net, a.collect(), &mut emit);
                    }
                }
                (None, None) => {}
            }
        }
    }
}

fn same_path(a: Option<Path<'_>>, b: Option<Path<'_>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => a.eq(b),
        _ => false,
    }
}

/// Emits the announcement of a new/changed route, preceded by its 0–2
/// deterministic path-exploration transients.
fn announce_into(
    seed: u64,
    event_time: SimTime,
    peer: Asn,
    prefix: Ipv4Net,
    as_path: Vec<Asn>,
    emit: &mut impl FnMut(BgpUpdate),
) {
    let n_transients =
        (stable_hash(&[seed, peer.0 as u64, prefix.network().0 as u64, 0xA11]) % 3) as usize;
    for k in 0..n_transients {
        // Transient: the final path with the next hop's provider chain
        // artificially extended (prepend the peer again — synthetic
        // "exploration" path, clearly longer).
        let mut path = as_path.clone();
        if let Some(&first) = path.first() {
            path.insert(0, first);
        }
        let t = jittered(seed, event_time, peer, &prefix, 1 + k as u64);
        emit(BgpUpdate { time: t, peer, prefix, kind: UpdateKind::Announce { as_path: path } });
    }
    let t = jittered(seed, event_time, peer, &prefix, 10);
    emit(BgpUpdate { time: t, peer, prefix, kind: UpdateKind::Announce { as_path } });
}

/// Event time plus 0–89 s of deterministic convergence jitter. The jitter
/// base depends only on `(peer, prefix)` so that later `stage`s land
/// strictly later — transients always precede the settled path.
fn jittered(seed: u64, event: SimTime, peer: Asn, prefix: &Ipv4Net, stage: u64) -> SimTime {
    let h = stable_hash(&[seed, peer.0 as u64, prefix.network().0 as u64]);
    let base = (h % 90) as i64; // 0–89 s
    SimTime(event.0 + base + stage as i64 * 3 + 1)
}

/// The snapshot-diff derivation the origin-space diff replaced, kept as
/// its oracle: one full [`RibSnapshot`] capture per routing-relevant
/// boundary, merge-joined against the previous capture.
///
/// [`RibSnapshot`]: crate::RibSnapshot
#[cfg(test)]
mod reference {
    use super::*;
    use crate::rib::RibSnapshot;

    pub fn derive_updates(scenario: &Scenario, peers: &[Asn]) -> Vec<BgpUpdate> {
        let mut updates = Vec::new();
        let boundaries = boundaries(scenario);
        if boundaries.is_empty() {
            return updates;
        }
        let start = scenario.horizon.start;
        let mut prev_graph = AsGraph::at_time(scenario, start);
        let mut prev_control = scenario.control_plane_at(start);
        let mut prev = RibSnapshot::capture(scenario, peers, start);
        for at in boundaries {
            let after_t = SimTime(at.0 + 1);
            let graph = AsGraph::at_time(scenario, after_t);
            let control = scenario.control_plane_at(after_t);
            if graph.same_topology(&prev_graph) && control == prev_control {
                continue;
            }
            let next = RibSnapshot::capture(scenario, peers, after_t);
            diff_into(scenario.world.seed, &prev, &next, at, &mut updates);
            prev = next;
            prev_graph = graph;
            prev_control = control;
        }
        updates.sort_by_key(|a| (a.time, a.peer, a.prefix));
        updates
    }

    /// Merge-joins two canonically sorted snapshots.
    fn diff_into(
        seed: u64,
        before: &RibSnapshot,
        after: &RibSnapshot,
        event_time: SimTime,
        out: &mut Vec<BgpUpdate>,
    ) {
        let (b, a) = (&before.entries, &after.entries);
        let (mut i, mut j) = (0, 0);
        while i < b.len() || j < a.len() {
            let bk = b.get(i).map(|e| (e.peer, e.prefix));
            let ak = a.get(j).map(|e| (e.peer, e.prefix));
            let announce = |e: &crate::RibEntry, out: &mut Vec<BgpUpdate>| {
                let mut emit = |u| out.push(u);
                announce_into(seed, event_time, e.peer, e.prefix, e.as_path.clone(), &mut emit)
            };
            match (bk, ak) {
                (Some(bk), ak) if ak.is_none() || bk < ak.unwrap() => {
                    let t = jittered(seed, event_time, bk.0, &bk.1, 0);
                    out.push(BgpUpdate {
                        time: t,
                        peer: bk.0,
                        prefix: bk.1,
                        kind: UpdateKind::Withdraw,
                    });
                    i += 1;
                }
                (bk, Some(ak)) if bk.is_none() || ak < bk.unwrap() => {
                    announce(&a[j], out);
                    j += 1;
                }
                _ => {
                    if b[i].as_path != a[j].as_path {
                        announce(&a[j], out);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
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

    // -- equivalence with the snapshot-diff oracle ---------------------------

    use std::sync::{Arc, OnceLock};

    use proptest::prelude::*;
    use scenario_forge::{compose, Family, FamilyParams, WorldCache};

    fn collectors(s: &Scenario) -> Vec<Asn> {
        crate::BgpSimulator::new(s).collectors().to_vec()
    }

    fn assert_matches_reference(s: &Scenario, peers: &[Asn], what: &str) {
        let expected = reference::derive_updates(s, peers);
        assert_eq!(derive_updates(s, peers), expected, "{what}");
        let observed = observe(s, peers);
        assert_eq!(observed.updates(), expected, "{what} (observe)");
        assert_eq!(observed.updates.capacity(), expected.len(), "{what}: held at exact size");
        let prefix_slots = PrefixOrigins::new(&s.world).prefixes;
        for (u, &slot) in observed.updates.iter().zip(&observed.slots) {
            assert_eq!(u.prefix, prefix_slots[slot as usize].0, "{what}: slot of {}", u.prefix);
        }
        assert_eq!(observed.slots.len(), expected.len(), "{what}: one slot per update");
    }

    #[test]
    fn origin_diff_matches_reference_on_every_family_blueprint() {
        let cache = WorldCache::new();
        // The member pairs of campaign's `ComposedFamily::ALL`.
        let composed = [
            [Family::CableCutCascade, Family::TargetedPrefixHijack],
            [Family::NationalCensorship, Family::AccidentalTransitLeak],
        ];
        for draw in 0..2 {
            let params = FamilyParams { variants: 2, ..FamilyParams::default() }.reseed(draw);
            let mut blueprints = Vec::new();
            for family in Family::ALL {
                blueprints.extend(family.expand(&params));
            }
            for members in composed {
                let fleets: Vec<_> = members.iter().map(|f| f.expand(&params)).collect();
                for i in 0..params.variants {
                    let parts: Vec<_> = fleets.iter().map(|fleet| &fleet[i]).collect();
                    blueprints.push(compose(format!("v{i}-composed"), &parts).expect("one world"));
                }
            }
            for bp in &blueprints {
                let s = bp.forge(&cache);
                assert_matches_reference(&s, &collectors(&s), &bp.name);
            }
        }
    }

    /// The default world's multi-homed ASes, ascending.
    fn multi_homed(s: &Scenario) -> Vec<Asn> {
        let graph = AsGraph::at_time(s, SimTime::EPOCH);
        s.world.ases.iter().map(|a| a.asn).filter(|&a| graph.providers(a).len() >= 2).collect()
    }

    #[test]
    fn origin_diff_matches_reference_on_composed_and_staggered_timelines() {
        let world = generate(&WorldConfig::default());
        let day = |d: i64| SimTime::EPOCH + SimDuration::days(d);
        let quiet = Scenario::quiet(world, 10);
        let homed = multi_homed(&quiet);

        // dense_equivalence's composed timeline: a cut, a bounded leak, and
        // a hijack that goes live inside the leak window.
        let cable = quiet.world.cable_by_name("SeaMeWe-5").unwrap().id;
        let victim = quiet.world.prefixes[0];
        let hijacker =
            quiet.world.ases.iter().map(|a| a.asn).find(|&a| a != victim.origin).unwrap();
        let mut composed = quiet.clone().with_event(EventKind::CableCut { cable }, day(2));
        composed.push_event(EventKind::RouteLeak { leaker: homed[0] }, day(4), Some(day(7)));
        composed.push_event(
            EventKind::PrefixHijack { origin: hijacker, victim_prefix: victim.net },
            day(5),
            None,
        );

        // Its staggered timeline: two leaks whose windows overlap.
        let mut staggered = quiet.clone();
        staggered.push_event(EventKind::RouteLeak { leaker: homed[0] }, day(2), Some(day(6)));
        staggered.push_event(EventKind::RouteLeak { leaker: homed[1] }, day(4), Some(day(8)));

        for (s, what) in [(&composed, "composed"), (&staggered, "staggered leaks")] {
            let eight: Vec<Asn> = s.world.ases.iter().take(8).map(|a| a.asn).collect();
            assert_matches_reference(s, &eight, what);
            assert_matches_reference(s, &collectors(s), what);
        }
    }

    #[test]
    fn baseline_origins_match_the_start_capture() {
        let world = generate(&WorldConfig::default());
        let victim = world.prefixes[3];
        let hijacker = world.ases.iter().map(|a| a.asn).find(|&a| a != victim.origin).unwrap();
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let day = |d: i64| SimTime::EPOCH + SimDuration::days(d);
        let quiet = Scenario::quiet(world, 10);
        let mut hijacked_at_start = quiet.clone();
        hijacked_at_start.push_event(
            EventKind::PrefixHijack { origin: hijacker, victim_prefix: victim.net },
            SimTime::EPOCH - SimDuration::days(1),
            None,
        );
        let cut = quiet.clone().with_event(EventKind::CableCut { cable }, day(3));
        let cases = [(&quiet, "no events"), (&hijacked_at_start, "live hijack"), (&cut, "cut")];
        for (s, what) in cases {
            let peers = collectors(s);
            let observed = observe(s, &peers);
            let start = crate::RibSnapshot::capture(s, &peers, s.horizon.start);
            assert_eq!(observed.baseline_origins, start.origins(), "{what}");
            assert!(!observed.baseline_origins.is_empty(), "{what}");
        }
        let moas = observe(&hijacked_at_start, &collectors(&hijacked_at_start));
        assert!(moas.updates().is_empty(), "the hijack predates the horizon");
        assert!(
            moas.baseline_origins.iter().any(|(p, o)| *p == victim.net && o.len() > 1),
            "a live partial hijack is a MOAS prefix in the baseline"
        );
    }

    /// One random incident on the default world: `(kind, target, onset
    /// day, duration in days — 0 for an unbounded incident)`.
    fn incident() -> impl Strategy<Value = (u8, u16, i64, i64)> {
        (any::<u8>(), any::<u16>(), 0i64..11, 0i64..5)
    }

    fn timeline(world: &Arc<World>, incidents: &[(u8, u16, i64, i64)]) -> Scenario {
        let mut s = Scenario::quiet(Arc::clone(world), 10);
        let homed = multi_homed(&s);
        for &(kind, target, onset, duration) in incidents {
            let t = target as usize;
            let at = SimTime::EPOCH + SimDuration::days(onset) + SimDuration::hours(t as i64 % 24);
            let until = (duration > 0).then(|| at + SimDuration::days(duration));
            let kind = match kind % 3 {
                0 => EventKind::CableCut { cable: world.cables[t % world.cables.len()].id },
                1 => {
                    let victim = world.prefixes[t % world.prefixes.len()];
                    let origin = world.ases[(t / 7) % world.ases.len()].asn;
                    EventKind::PrefixHijack { origin, victim_prefix: victim.net }
                }
                _ => EventKind::RouteLeak { leaker: homed[t % homed.len()] },
            };
            s.push_event(kind, at, until);
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random cut, hijack and bounded-leak timelines: the origin-space
        /// diff and the snapshot diff emit the same stream.
        #[test]
        fn origin_diff_matches_reference_on_random_timelines(
            incidents in proptest::collection::vec(incident(), 1..5),
            take in 4usize..40,
        ) {
            static WORLD: OnceLock<Arc<World>> = OnceLock::new();
            let world = WORLD.get_or_init(|| Arc::new(generate(&WorldConfig::default())));
            let s = timeline(world, &incidents);
            let mut peers: Vec<Asn> = s.world.ases.iter().rev().take(take).map(|a| a.asn).collect();
            peers.extend(collectors(&s).into_iter().step_by(3));
            prop_assert_eq!(derive_updates(&s, &peers), reference::derive_updates(&s, &peers));
        }
    }
}
