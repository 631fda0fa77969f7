//! Valley-free (Gao–Rexford) route computation.
//!
//! Export rules: routes learned from a customer are exported to everyone;
//! routes learned from a peer or provider are exported only to customers.
//! Selection: prefer customer routes over peer routes over provider routes
//! (local preference), then shortest AS path, then lowest next-hop ASN.
//!
//! The computation runs per destination AS in three phases, the standard
//! formulation used by AS-level simulators:
//!
//! 1. **Up phase** — BFS from the destination along customer→provider
//!    edges; reached nodes hold *customer routes*.
//! 2. **Peer phase** — any node adjacent (as peer) to a customer-routed
//!    node gains a *peer route*.
//! 3. **Down phase** — BFS along provider→customer edges from every routed
//!    node; reached nodes gain *provider routes*.
//!
//! ## Dense-index engine
//!
//! The engine works entirely in the dense index space of [`AsGraph`]: one
//! flat slot per `(destination, holder)` pair holding a compact
//! `(kind, hops, record)` triple, where `record` points into a frozen
//! parent-pointer arena. Relaxations append one arena record instead of
//! cloning a `Vec<Asn>` path, and full paths are walked lazily by
//! [`RoutingTable::path`] (collected by [`RoutingTable::route`]) —
//! eliminating the seed algorithm's O(V·E·path-len) allocation storm
//! while producing **byte-identical** routes (the arena freezes exactly
//! the path snapshots the seed's clones froze; see [`reference`](mod@reference) and the
//! `dense_equivalence` suite).
//!
//! Every entry point ([`RoutingTable::compute`], its policy-override form
//! [`RoutingTable::compute_with`], and the world-free
//! [`RoutingTable::compute_for_graph`]) runs the per-destination sweep on
//! the caller's thread. Parallelism belongs to the layer that owns the
//! cores (campaign workers, concurrent sessions), not to the substrate: a
//! routing table that sharded its own sweep would stack a second layer of
//! threads under every one of those callers. [`SelectionSweep`] runs the
//! same sweep for one destination at a time and hands back the selection
//! keys without building a table.
//!
//! ## Control-plane policy overrides
//!
//! Scenario timelines can now carry control-plane incidents. Route leaks
//! change the *export policy* of one AS, so they plumb into the sweep as
//! [`PolicyOverrides`]: after the normal three phases, each leaker
//! re-announces its pre-leak best route to every neighbour the
//! valley-free export rule forbids (its providers and peers), and the
//! improvements propagate through one more deterministic phase sweep.
//! The semantics are **one leak round over the pre-leak snapshot** —
//! well-defined, deterministic, and implemented identically by the dense
//! engine and [`reference`](mod@reference) (pinned byte-identical by the
//! `dense_equivalence` suite). Prefix hijacks do not touch AS-level
//! routing at all — they change prefix *origination* and are arbitrated
//! per vantage point in [`crate::rib`] via [`RoutingTable::selection`].

use std::collections::{BTreeMap, VecDeque};

use net_model::Asn;
use serde::{Deserialize, Serialize};
use world::{ControlPlaneState, World};

use crate::graph::{AsGraph, NeighborKind};

/// Per-computation routing-policy overrides derived from a scenario's
/// control-plane events. Currently: the set of ASes leaking routes
/// (re-exporting peer/provider-learned routes to everyone).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyOverrides {
    /// Leaking ASes, ascending and deduplicated.
    leakers: Vec<Asn>,
}

impl PolicyOverrides {
    /// No overrides: plain Gao–Rexford export policy.
    pub fn none() -> PolicyOverrides {
        PolicyOverrides::default()
    }

    /// Overrides with the given leaking ASes.
    pub fn leaking(leakers: impl IntoIterator<Item = Asn>) -> PolicyOverrides {
        let mut leakers: Vec<Asn> = leakers.into_iter().collect();
        leakers.sort();
        leakers.dedup();
        PolicyOverrides { leakers }
    }

    /// The leaking ASes, ascending.
    pub fn leakers(&self) -> &[Asn] {
        &self.leakers
    }

    /// Whether the overrides change anything at all.
    pub fn is_empty(&self) -> bool {
        self.leakers.is_empty()
    }
}

impl From<&ControlPlaneState> for PolicyOverrides {
    fn from(state: &ControlPlaneState) -> PolicyOverrides {
        PolicyOverrides::leaking(state.leakers.iter().copied())
    }
}

/// The class of a selected route, in preference order (`Ord`: earlier
/// variants are strictly preferred — the algorithm relies on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RouteKind {
    /// The node *is* the destination (unbeatable).
    Origin,
    /// Learned from a customer (most preferred real route — it earns money).
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider (least preferred — it costs money).
    Provider,
}

/// A selected best route from one AS towards a destination AS.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// AS path, starting at the route holder, ending at the destination.
    pub as_path: Vec<Asn>,
    pub kind: RouteKind,
}

impl Route {
    /// Path length in AS hops (path of `[u, d]` is one hop).
    pub fn hop_count(&self) -> usize {
        self.as_path.len().saturating_sub(1)
    }
}

/// Sentinel for "no record / no route" in the dense tables.
const NONE: u32 = u32::MAX;

/// Compact per-(destination, holder) route state: selection key plus a
/// pointer into the frozen-path arena. 12 bytes instead of a cloned path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// Frozen-path record index, [`NONE`] when unrouted.
    rec: u32,
    /// ASN of the next hop (`as_path[1]`), for the deterministic
    /// tie-break; 0 for origin slots (never compared — origin kind wins).
    next_asn: u32,
    /// AS-hop count of the selected path.
    hops: u16,
    kind: RouteKind,
}

const EMPTY: Slot = Slot { rec: NONE, next_asn: 0, hops: 0, kind: RouteKind::Origin };

impl Slot {
    /// The `(kind, hops, next-hop ASN)` selection key, `None` when unrouted.
    fn key(self) -> Option<(RouteKind, usize, Asn)> {
        (self.rec != NONE).then_some((self.kind, self.hops as usize, Asn(self.next_asn)))
    }
}

/// One frozen-path record: `(node, parent record)`; the parent chain walks
/// towards the destination, whose record has parent [`NONE`].
type PathRec = (u32, u32);

/// Best routes towards one destination, in dense holder-index space.
#[derive(Debug, Clone, Default)]
struct DestRoutes {
    /// One slot per holder index.
    slots: Vec<Slot>,
    /// Compacted frozen-path arena the slots point into.
    records: Vec<PathRec>,
}

/// All best routes towards every destination AS.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    /// Dense index → ASN (the [`AsGraph`] index space).
    asns: Vec<Asn>,
    /// ASN → dense index.
    index: BTreeMap<Asn, u32>,
    /// Per-destination routes, indexed by the destination's dense index.
    dests: Vec<DestRoutes>,
}

impl RoutingTable {
    /// Computes best routes for every destination AS in the world on the
    /// caller's thread.
    pub fn compute(graph: &AsGraph, world: &World) -> RoutingTable {
        Self::compute_with(graph, world, &PolicyOverrides::none())
    }

    /// [`RoutingTable::compute`] plus control-plane policy overrides — the
    /// scenario-aware entry the RIB capture uses.
    pub fn compute_with(
        graph: &AsGraph,
        world: &World,
        overrides: &PolicyOverrides,
    ) -> RoutingTable {
        debug_assert_eq!(graph.node_count(), world.ases.len());
        Self::compute_for_graph(graph, overrides)
    }

    /// Computes routes under policy overrides for every node of an
    /// arbitrary graph (the world-free entry point the equivalence and
    /// property tests use).
    pub fn compute_for_graph(graph: &AsGraph, overrides: &PolicyOverrides) -> RoutingTable {
        let n = graph.node_count();
        assert!(n < u16::MAX as usize, "hop counter is u16");

        // Leakers as dense indices, ascending (ASes absent from this
        // graph cannot leak anything into it). Both engines destructure
        // the overrides, so a new field fails to compile until each one
        // handles it.
        let PolicyOverrides { leakers } = overrides;
        let leakers: Vec<u32> =
            leakers.iter().filter_map(|&a| graph.index_of(a).map(|i| i as u32)).collect();

        let mut scratch = Scratch::new(n);
        let dests: Vec<DestRoutes> = (0..n)
            .map(|d| compute_destination(graph, d as u32, &mut scratch, &leakers))
            .collect();

        RoutingTable {
            asns: graph.asn_table().to_vec(),
            index: graph.nodes().enumerate().map(|(i, a)| (a, i as u32)).collect(),
            dests,
        }
    }

    /// The best route from `src` towards `dst`, if any, with the AS path
    /// materialized from the frozen parent-pointer chain.
    pub fn route(&self, src: Asn, dst: Asn) -> Option<Route> {
        let (s, d) = (self.idx(src)?, self.idx(dst)?);
        let dest = &self.dests[d];
        let slot = dest.slots[s];
        (slot.rec != NONE).then(|| self.materialize(dest, slot))
    }

    /// The AS path of the best `src → dst` route, if any, walked lazily
    /// along the frozen parent-pointer chain (holder first, destination
    /// last) without allocating. [`RoutingTable::route`] collects it;
    /// comparing two tables' paths for one pair needs no allocation at all.
    pub fn path(&self, src: Asn, dst: Asn) -> Option<Path<'_>> {
        self.path_at(self.idx(src)?, self.idx(dst)?)
    }

    /// The selection class of the `src → dst` route without materializing
    /// the path.
    pub fn kind(&self, src: Asn, dst: Asn) -> Option<RouteKind> {
        let slot = self.slot(src, dst)?;
        (slot.rec != NONE).then_some(slot.kind)
    }

    /// AS-hop count of the `src → dst` route without materializing the
    /// path.
    pub fn hop_count(&self, src: Asn, dst: Asn) -> Option<usize> {
        let slot = self.slot(src, dst)?;
        (slot.rec != NONE).then_some(slot.hops as usize)
    }

    /// The full selection key of the `src → dst` route —
    /// `(kind, hops, next-hop ASN)` — without materializing the path.
    /// Lexicographically smaller keys are preferred; the RIB capture uses
    /// this to arbitrate MOAS conflicts (hijacked prefix: legitimate vs
    /// bogus origin) exactly as the route selection itself would. The
    /// next-hop ASN of an origin route is `Asn(0)` (never compared: the
    /// `Origin` kind already wins).
    pub fn selection(&self, src: Asn, dst: Asn) -> Option<(RouteKind, usize, Asn)> {
        self.slot(src, dst)?.key()
    }

    /// Whether `src` holds a route towards `dst` — an O(log n) + O(1)
    /// lookup.
    pub fn has_route(&self, src: Asn, dst: Asn) -> bool {
        self.slot(src, dst).is_some_and(|s| s.rec != NONE)
    }

    /// All holders with a route towards `dst`.
    pub fn reachable_from(&self, dst: Asn) -> usize {
        match self.idx(dst) {
            Some(d) => self.dests[d].slots.iter().filter(|s| s.rec != NONE).count(),
            None => 0,
        }
    }

    /// Iterates `(dst, holder, route)` in canonical (ascending ASN) order,
    /// materializing each path.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, Asn, Route)> + '_ {
        self.dests.iter().enumerate().flat_map(move |(d, dest)| {
            let dst = self.asns[d];
            dest.slots.iter().enumerate().filter(|(_, s)| s.rec != NONE).map(
                move |(h, &slot)| (dst, self.asns[h], self.materialize(dest, slot)),
            )
        })
    }

    /// Dense index → ASN: the index space of the graph the table was
    /// computed on.
    pub(crate) fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// [`RoutingTable::path`] by dense index: holder `s` towards
    /// destination `d`, with no map lookup.
    pub(crate) fn path_at(&self, s: usize, d: usize) -> Option<Path<'_>> {
        let dest = &self.dests[d];
        let slot = dest.slots[s];
        (slot.rec != NONE).then(|| self.walk(dest, slot))
    }

    /// The dense index of `asn`, if the table's graph has it.
    pub(crate) fn idx(&self, asn: Asn) -> Option<usize> {
        self.index.get(&asn).map(|&i| i as usize)
    }

    fn slot(&self, src: Asn, dst: Asn) -> Option<Slot> {
        let (s, d) = (self.idx(src)?, self.idx(dst)?);
        Some(self.dests[d].slots[s])
    }

    fn walk<'a>(&'a self, dest: &'a DestRoutes, slot: Slot) -> Path<'a> {
        Path { asns: &self.asns, records: &dest.records, rec: slot.rec }
    }

    fn materialize(&self, dest: &DestRoutes, slot: Slot) -> Route {
        let mut as_path = Vec::with_capacity(slot.hops as usize + 1);
        as_path.extend(self.walk(dest, slot));
        Route { as_path, kind: slot.kind }
    }
}

/// A route's AS path, walked along the frozen parent-pointer chain of one
/// destination — see [`RoutingTable::path`].
#[derive(Debug, Clone)]
pub struct Path<'a> {
    asns: &'a [Asn],
    records: &'a [PathRec],
    rec: u32,
}

impl Iterator for Path<'_> {
    type Item = Asn;

    fn next(&mut self) -> Option<Asn> {
        if self.rec == NONE {
            return None;
        }
        let (node, parent) = self.records[self.rec as usize];
        self.rec = parent;
        Some(self.asns[node as usize])
    }
}

/// Every holder's selection towards one destination at a time, without a
/// [`RoutingTable`]: the per-destination computation the table runs, on
/// the caller's thread, over buffers reused from call to call. A caller
/// that needs a few destinations (a hijack's capture cone compares two)
/// skips the other destinations, the arena compaction and the workers.
#[derive(Default)]
pub struct SelectionSweep {
    scratch: Scratch,
    /// The overrides' leakers as dense indices, ascending.
    leakers: Vec<u32>,
    /// The slots as phase 3 left them, before the leak stage.
    pre_leak: Vec<Slot>,
}

/// A holder's `(kind, hops, next-hop ASN)` selection key towards one
/// destination, `None` when unrouted: what [`RoutingTable::selection`]
/// returns.
pub type SelectionKey = Option<(RouteKind, usize, Asn)>;

impl SelectionSweep {
    /// Each holder's `(kind, hops, next-hop ASN)` key towards `dst` under
    /// `overrides`, in `graph`'s dense index order (ascending ASN), `None`
    /// for an unrouted holder. The keys are bit for bit what
    /// [`RoutingTable::selection`] reads from
    /// [`RoutingTable::compute_for_graph`] with the same overrides.
    /// Nobody routes towards a `dst` absent from the graph.
    pub fn selections(
        &mut self,
        graph: &AsGraph,
        dst: Asn,
        overrides: &PolicyOverrides,
    ) -> impl ExactSizeIterator<Item = SelectionKey> + '_ {
        match self.prepare(graph, dst, overrides) {
            Some(d) => sweep(graph, d, &mut self.scratch, &self.leakers),
            None => self.scratch.slots.fill(EMPTY),
        }
        self.scratch.slots.iter().map(|s| s.key())
    }

    /// Each holder's `(pre-leak key, final key)` pair towards `dst` under
    /// `overrides`, from one sweep, in the order of
    /// [`SelectionSweep::selections`]. The leak stage starts from the
    /// state phase 3 leaves, and that state is the sweep without
    /// overrides, so the first key of each pair is what `selections` with
    /// [`PolicyOverrides::none`] returns and the second what it returns
    /// with `overrides`.
    pub fn leak_selections(
        &mut self,
        graph: &AsGraph,
        dst: Asn,
        overrides: &PolicyOverrides,
    ) -> impl ExactSizeIterator<Item = (SelectionKey, SelectionKey)> + '_ {
        let dst = self.prepare(graph, dst, overrides);
        let scratch = &mut self.scratch;
        match dst {
            Some(d) => clean_phases(graph, d, scratch),
            None => scratch.slots.fill(EMPTY),
        }
        self.pre_leak.clear();
        self.pre_leak.extend_from_slice(&scratch.slots);
        if dst.is_some() && !self.leakers.is_empty() {
            leak_stage(graph, scratch, &self.leakers);
        }
        self.pre_leak.iter().zip(&scratch.slots).map(|(b, a)| (b.key(), a.key()))
    }

    /// Sizes the slots for `graph` and maps the leakers into its index
    /// space; the dense index of `dst`, if the graph has it.
    fn prepare(&mut self, graph: &AsGraph, dst: Asn, overrides: &PolicyOverrides) -> Option<u32> {
        self.scratch.slots.resize(graph.node_count(), EMPTY);
        let PolicyOverrides { leakers } = overrides;
        self.leakers.clear();
        self.leakers
            .extend(leakers.iter().filter_map(|&a| graph.index_of(a).map(|i| i as u32)));
        graph.index_of(dst).map(|d| d as u32)
    }
}

/// Reusable per-worker buffers: route slots, the (uncompacted) frozen-path
/// arena and the BFS queue — zero allocation per destination after warmup.
#[derive(Default)]
struct Scratch {
    slots: Vec<Slot>,
    records: Vec<PathRec>,
    remap: Vec<u32>,
    stack: Vec<u32>,
    queue: VecDeque<u32>,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            slots: vec![EMPTY; n],
            records: Vec::new(),
            remap: Vec::new(),
            stack: Vec::new(),
            queue: VecDeque::new(),
        }
    }
}

/// Whether `node` lies on the frozen path snapshot rooted at `rec` — the
/// dense equivalent of the seed's `as_path.contains(&u)` loop check.
fn chain_contains(records: &[PathRec], mut rec: u32, node: u32) -> bool {
    while rec != NONE {
        let (n, parent) = records[rec as usize];
        if n == node {
            return true;
        }
        rec = parent;
    }
    false
}

/// Computes best routes towards the destination with dense index `d`.
///
/// Mirrors the seed algorithm exactly (see [`reference`]): same three
/// phases, same relaxation rule, same deterministic tie-breaks — only the
/// data layout differs, so the selected routes (including frozen path
/// snapshots) are byte-identical. When `leakers` is non-empty a fourth
/// stage runs: the leak seeding plus one more phase sweep, again in the
/// exact order of [`reference::compute_for_destination_with`].
fn compute_destination(
    graph: &AsGraph,
    d: u32,
    scratch: &mut Scratch,
    leakers: &[u32],
) -> DestRoutes {
    sweep(graph, d, scratch, leakers);
    freeze(scratch)
}

/// The route computation of [`compute_destination`]: leaves every
/// holder's final slot in `scratch.slots`, pointing into the uncompacted
/// arena in `scratch.records`.
fn sweep(graph: &AsGraph, d: u32, scratch: &mut Scratch, leakers: &[u32]) {
    clean_phases(graph, d, scratch);
    if !leakers.is_empty() {
        leak_stage(graph, scratch, leakers);
    }
}

/// Accepts `u ← v` with route class `kind` if `(kind, hops, next-hop ASN)`
/// strictly improves on `u`'s slot and the frozen path of `v` does not
/// already contain `u`. Returns whether it accepted.
#[inline(always)]
fn relax(
    graph: &AsGraph,
    slots: &mut [Slot],
    records: &mut Vec<PathRec>,
    (u, v, vs): (u32, u32, Slot),
    kind: RouteKind,
) -> bool {
    let cand_hops = vs.hops + 1;
    let next_asn = graph.asn_of(v as usize).0;
    let inc = slots[u as usize];
    let accept =
        inc.rec == NONE || (kind, cand_hops, next_asn) < (inc.kind, inc.hops, inc.next_asn);
    if accept && !chain_contains(records, vs.rec, u) {
        records.push((u, vs.rec));
        slots[u as usize] =
            Slot { rec: (records.len() - 1) as u32, next_asn, hops: cand_hops, kind };
        true
    } else {
        false
    }
}

/// Phase 1 from the queued nodes: each routed node offers its route to
/// its providers as a customer route, and every node that improves is
/// queued in turn.
fn up_phase(
    graph: &AsGraph,
    slots: &mut [Slot],
    records: &mut Vec<PathRec>,
    queue: &mut VecDeque<u32>,
) {
    while let Some(v) = queue.pop_front() {
        let vs = slots[v as usize];
        let (nbrs, kinds) = graph.neighbor_slices(v as usize);
        for (&u, &kind) in nbrs.iter().zip(kinds) {
            // We want u = provider of v, i.e. v sees u as Provider.
            if kind == NeighborKind::Provider
                && relax(graph, slots, records, (u, v, vs), RouteKind::Customer)
            {
                queue.push_back(u);
            }
        }
    }
}

/// Phase 2: one peer hop off any customer-routed node. Peer routes never
/// beat customer routes, so nodes routed in this phase can never become
/// sources of it; iterating live state in index order is equivalent to
/// the seed's snapshot.
fn peer_phase(graph: &AsGraph, slots: &mut [Slot], records: &mut Vec<PathRec>) {
    for v in 0..slots.len() as u32 {
        let vs = slots[v as usize];
        if vs.rec == NONE || !matches!(vs.kind, RouteKind::Customer | RouteKind::Origin) {
            continue;
        }
        let (nbrs, kinds) = graph.neighbor_slices(v as usize);
        for (&u, &kind) in nbrs.iter().zip(kinds) {
            if kind == NeighborKind::Peer {
                relax(graph, slots, records, (u, v, vs), RouteKind::Peer);
            }
        }
    }
}

/// Phase 3: BFS "down" through customers from every routed node, in
/// index order. Any routed node exports to its customers.
fn down_phase(
    graph: &AsGraph,
    slots: &mut [Slot],
    records: &mut Vec<PathRec>,
    queue: &mut VecDeque<u32>,
) {
    queue.extend((0..slots.len() as u32).filter(|&v| slots[v as usize].rec != NONE));
    while let Some(v) = queue.pop_front() {
        let vs = slots[v as usize];
        let (nbrs, kinds) = graph.neighbor_slices(v as usize);
        for (&u, &kind) in nbrs.iter().zip(kinds) {
            if kind == NeighborKind::Customer
                && relax(graph, slots, records, (u, v, vs), RouteKind::Provider)
            {
                queue.push_back(u);
            }
        }
    }
}

/// Phases 1–3 of [`sweep`] towards destination `d`: the selection with
/// no policy overrides.
fn clean_phases(graph: &AsGraph, d: u32, scratch: &mut Scratch) {
    let Scratch { slots, records, queue, .. } = scratch;
    slots.fill(EMPTY);
    records.clear();
    queue.clear();

    records.push((d, NONE));
    slots[d as usize] = Slot { rec: 0, next_asn: 0, hops: 0, kind: RouteKind::Origin };

    // Phase 1: customer routes — BFS "up" through providers of routed
    // nodes, from the destination. Label-correcting relaxation with
    // deterministic next-hop tie-break via the ASN-ordered adjacency
    // slices.
    queue.push_back(d);
    up_phase(graph, slots, records, queue);
    // Phase 2: peer routes.
    peer_phase(graph, slots, records);
    // Phase 3: provider routes.
    down_phase(graph, slots, records, queue);
}

/// The leak stage of [`sweep`], over the state [`clean_phases`] left.
///
/// Each leaker re-announces its *pre-leak* best route to the neighbours
/// the valley-free export rule forbids (providers and peers — customers
/// already received it in phase 3). A provider of the leaker imports the
/// leak as a *customer* route — more preferred than what it holds, which
/// is exactly why leaks spread — and the improvements propagate through
/// one more up/peer/down sweep. Semantics: one leak round over the
/// pre-leak snapshot, leakers in ascending index order (see the module
/// docs; [`reference`] runs the identical sequence).
fn leak_stage(graph: &AsGraph, scratch: &mut Scratch, leakers: &[u32]) {
    let Scratch { slots, records, queue, .. } = scratch;
    let leaked: Vec<(u32, Slot)> = leakers
        .iter()
        .map(|&l| (l, slots[l as usize]))
        .filter(|(_, s)| s.rec != NONE && matches!(s.kind, RouteKind::Peer | RouteKind::Provider))
        .collect();
    queue.clear();
    for (l, ls) in leaked {
        let (nbrs, kinds) = graph.neighbor_slices(l as usize);
        for (&u, &kind) in nbrs.iter().zip(kinds) {
            // `kind` is the leaker's view of `u`; `u` classifies the
            // leaked route by its own view of the leaker.
            let accept = match kind {
                NeighborKind::Provider => RouteKind::Customer,
                NeighborKind::Peer => RouteKind::Peer,
                NeighborKind::Customer => continue, // legitimate export
            };
            if relax(graph, slots, records, (u, l, ls), accept) && accept == RouteKind::Customer {
                queue.push_back(u);
            }
        }
    }
    // Re-run phase 1: leak-gained customer routes propagate up.
    up_phase(graph, slots, records, queue);
    // Re-run phase 2: peer spread off the (now final) customer set.
    peer_phase(graph, slots, records);
    // Re-run phase 3: everything exports down to customers again.
    down_phase(graph, slots, records, queue);
}

/// Compacts a finished [`sweep`]'s arena down to the records reachable
/// from a final slot, in deterministic holder order.
fn freeze(scratch: &mut Scratch) -> DestRoutes {
    let Scratch { slots, records, remap, stack, .. } = scratch;
    let n = slots.len();
    remap.clear();
    remap.resize(records.len(), NONE);
    let mut out = DestRoutes { slots: Vec::with_capacity(n), records: Vec::new() };
    for slot in slots.iter() {
        let mut s = *slot;
        if s.rec != NONE {
            let mut r = s.rec;
            while r != NONE && remap[r as usize] == NONE {
                stack.push(r);
                r = records[r as usize].1;
            }
            while let Some(r2) = stack.pop() {
                let (node, parent) = records[r2 as usize];
                let new_parent = if parent == NONE { NONE } else { remap[parent as usize] };
                remap[r2 as usize] = out.records.len() as u32;
                out.records.push((node, new_parent));
            }
            s.rec = remap[s.rec as usize];
        }
        out.slots.push(s);
    }
    out
}

/// Route preference: lower `RouteKind` wins, then fewer hops, then lowest
/// next-hop ASN for determinism.
fn better(candidate: &Route, incumbent: Option<&Route>) -> bool {
    match incumbent {
        None => true,
        Some(inc) => {
            let ck = (candidate.kind, candidate.hop_count(), candidate.as_path.get(1).copied());
            let ik = (inc.kind, inc.hop_count(), inc.as_path.get(1).copied());
            ck < ik
        }
    }
}

/// The seed (pre-dense) algorithm, retained verbatim as the ground truth
/// for the equivalence suite and as the "before" engine in the bench
/// trajectory. It clones a `Vec<Asn>` path on every accepted relaxation —
/// exactly the allocation storm the dense engine eliminates.
pub mod reference {
    use super::*;

    /// Computes best routes for every destination AS in the world.
    pub fn compute(graph: &AsGraph, world: &World) -> BTreeMap<Asn, BTreeMap<Asn, Route>> {
        compute_with(graph, world, &PolicyOverrides::none())
    }

    /// [`compute`] with control-plane policy overrides (the ground truth
    /// for the dense engine's leak stage).
    pub fn compute_with(
        graph: &AsGraph,
        world: &World,
        overrides: &PolicyOverrides,
    ) -> BTreeMap<Asn, BTreeMap<Asn, Route>> {
        world
            .ases
            .iter()
            .map(|a| (a.asn, compute_for_destination_with(graph, a.asn, overrides)))
            .collect()
    }

    /// Computes best routes towards a single destination.
    pub fn compute_for_destination(graph: &AsGraph, dst: Asn) -> BTreeMap<Asn, Route> {
        compute_for_destination_with(graph, dst, &PolicyOverrides::none())
    }

    /// [`compute_for_destination`] plus the leak stage: each leaker
    /// re-announces its pre-leak best route to its providers and peers
    /// (one leak round over the pre-leak snapshot, leakers in ascending
    /// ASN order), then customer-route propagation, peer spread and the
    /// downward export re-run — the exact sequence the dense engine's
    /// leak stage performs.
    pub fn compute_for_destination_with(
        graph: &AsGraph,
        dst: Asn,
        overrides: &PolicyOverrides,
    ) -> BTreeMap<Asn, Route> {
        let mut best: BTreeMap<Asn, Route> = BTreeMap::new();
        best.insert(dst, Route { as_path: vec![dst], kind: RouteKind::Origin });

        // Phase 1: customer routes.
        let mut queue: VecDeque<Asn> = VecDeque::new();
        queue.push_back(dst);
        while let Some(v) = queue.pop_front() {
            #[expect(
                clippy::expect_used,
                reason = "a node is queued only after its route is stored"
            )]
            let v_route = best.get(&v).expect("queued nodes are routed").clone();
            for (u, kind) in graph.neighbors(v) {
                if kind != NeighborKind::Provider {
                    continue;
                }
                if v_route.as_path.contains(&u) {
                    continue; // never extend a path through itself
                }
                let candidate = Route {
                    as_path: std::iter::once(u).chain(v_route.as_path.iter().copied()).collect(),
                    kind: RouteKind::Customer,
                };
                if better(&candidate, best.get(&u)) {
                    best.insert(u, candidate);
                    queue.push_back(u);
                }
            }
        }

        // Phase 2: peer routes.
        let customer_routed: Vec<(Asn, Route)> = best
            .iter()
            .filter(|(_, r)| matches!(r.kind, RouteKind::Customer | RouteKind::Origin))
            .map(|(a, r)| (*a, r.clone()))
            .collect();
        for (v, v_route) in customer_routed {
            for (u, kind) in graph.neighbors(v) {
                if kind != NeighborKind::Peer {
                    continue;
                }
                if v_route.as_path.contains(&u) {
                    continue;
                }
                let candidate = Route {
                    as_path: std::iter::once(u).chain(v_route.as_path.iter().copied()).collect(),
                    kind: RouteKind::Peer,
                };
                if better(&candidate, best.get(&u)) {
                    best.insert(u, candidate);
                }
            }
        }

        // Phase 3: provider routes.
        let mut queue: VecDeque<Asn> = best.keys().copied().collect();
        while let Some(v) = queue.pop_front() {
            #[expect(
                clippy::expect_used,
                reason = "a node is queued only after its route is stored"
            )]
            let v_route = best.get(&v).expect("queued nodes are routed").clone();
            for (u, kind) in graph.neighbors(v) {
                if kind != NeighborKind::Customer {
                    continue;
                }
                if v_route.as_path.contains(&u) {
                    continue;
                }
                let candidate = Route {
                    as_path: std::iter::once(u).chain(v_route.as_path.iter().copied()).collect(),
                    kind: RouteKind::Provider,
                };
                if better(&candidate, best.get(&u)) {
                    best.insert(u, candidate);
                    queue.push_back(u);
                }
            }
        }

        let PolicyOverrides { leakers } = overrides;
        if leakers.is_empty() {
            return best;
        }

        // Leak seeding: pre-leak snapshots, leakers ascending.
        let leaked: Vec<(Asn, Route)> = leakers
            .iter()
            .filter_map(|&l| best.get(&l).map(|r| (l, r.clone())))
            .filter(|(_, r)| matches!(r.kind, RouteKind::Peer | RouteKind::Provider))
            .collect();
        let mut queue: VecDeque<Asn> = VecDeque::new();
        for (l, r) in leaked {
            for (u, kind) in graph.neighbors(l) {
                let accept = match kind {
                    NeighborKind::Provider => RouteKind::Customer,
                    NeighborKind::Peer => RouteKind::Peer,
                    NeighborKind::Customer => continue, // legitimate export
                };
                if r.as_path.contains(&u) {
                    continue;
                }
                let candidate = Route {
                    as_path: std::iter::once(u).chain(r.as_path.iter().copied()).collect(),
                    kind: accept,
                };
                if better(&candidate, best.get(&u)) {
                    best.insert(u, candidate);
                    if accept == RouteKind::Customer {
                        queue.push_back(u);
                    }
                }
            }
        }

        // Re-run phase 1: leak-gained customer routes propagate up.
        while let Some(v) = queue.pop_front() {
            #[expect(
                clippy::expect_used,
                reason = "a node is queued only after its route is stored"
            )]
            let v_route = best.get(&v).expect("queued nodes are routed").clone();
            for (u, kind) in graph.neighbors(v) {
                if kind != NeighborKind::Provider {
                    continue;
                }
                if v_route.as_path.contains(&u) {
                    continue;
                }
                let candidate = Route {
                    as_path: std::iter::once(u).chain(v_route.as_path.iter().copied()).collect(),
                    kind: RouteKind::Customer,
                };
                if better(&candidate, best.get(&u)) {
                    best.insert(u, candidate);
                    queue.push_back(u);
                }
            }
        }

        // Re-run phase 2: peer spread off the final customer set.
        let customer_routed: Vec<(Asn, Route)> = best
            .iter()
            .filter(|(_, r)| matches!(r.kind, RouteKind::Customer | RouteKind::Origin))
            .map(|(a, r)| (*a, r.clone()))
            .collect();
        for (v, v_route) in customer_routed {
            for (u, kind) in graph.neighbors(v) {
                if kind != NeighborKind::Peer {
                    continue;
                }
                if v_route.as_path.contains(&u) {
                    continue;
                }
                let candidate = Route {
                    as_path: std::iter::once(u).chain(v_route.as_path.iter().copied()).collect(),
                    kind: RouteKind::Peer,
                };
                if better(&candidate, best.get(&u)) {
                    best.insert(u, candidate);
                }
            }
        }

        // Re-run phase 3: downward export of everything that improved.
        let mut queue: VecDeque<Asn> = best.keys().copied().collect();
        while let Some(v) = queue.pop_front() {
            #[expect(
                clippy::expect_used,
                reason = "a node is queued only after its route is stored"
            )]
            let v_route = best.get(&v).expect("queued nodes are routed").clone();
            for (u, kind) in graph.neighbors(v) {
                if kind != NeighborKind::Customer {
                    continue;
                }
                if v_route.as_path.contains(&u) {
                    continue;
                }
                let candidate = Route {
                    as_path: std::iter::once(u).chain(v_route.as_path.iter().copied()).collect(),
                    kind: RouteKind::Provider,
                };
                if better(&candidate, best.get(&u)) {
                    best.insert(u, candidate);
                    queue.push_back(u);
                }
            }
        }

        best
    }
}

/// Checks that an AS path is valley-free given the graph: once the path
/// goes down (provider→customer) or sideways (peer), it must never go up
/// or sideways again. Each window is an O(log deg) adjacency lookup.
pub fn is_valley_free(graph: &AsGraph, path: &[Asn]) -> bool {
    #[derive(PartialEq, PartialOrd)]
    enum Phase {
        Up,
        Side,
        Down,
    }
    let mut phase = Phase::Up;
    for w in path.windows(2) {
        let (u, v) = (w[0], w[1]);
        // Edge direction from u's perspective.
        let kind = match graph.kind_between(u, v) {
            Some(k) => k,
            None => return false, // not even an adjacency
        };
        match kind {
            NeighborKind::Provider => {
                // going up
                if phase != Phase::Up {
                    return false;
                }
            }
            NeighborKind::Peer => {
                if phase != Phase::Up {
                    return false;
                }
                phase = Phase::Side;
            }
            NeighborKind::Customer => {
                if phase == Phase::Side || phase == Phase::Up {
                    phase = Phase::Down;
                } // staying Down is fine
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::SimTime;
    use world::{generate, Scenario, WorldConfig};

    fn routing() -> (Scenario, AsGraph, RoutingTable) {
        let world = generate(&WorldConfig::default());
        let scenario = Scenario::quiet(world, 10);
        let g = AsGraph::at_time(&scenario, SimTime::EPOCH);
        let rt = RoutingTable::compute(&g, &scenario.world);
        (scenario, g, rt)
    }

    #[test]
    fn origin_routes_itself() {
        let (scenario, _, rt) = routing();
        let asn = scenario.world.ases[0].asn;
        let r = rt.route(asn, asn).unwrap();
        assert_eq!(r.kind, RouteKind::Origin);
        assert_eq!(r.as_path, vec![asn]);
    }

    #[test]
    fn network_is_mostly_reachable() {
        let (scenario, _, rt) = routing();
        let n = scenario.world.ases.len();
        for a in &scenario.world.ases {
            let reach = rt.reachable_from(a.asn);
            assert!(
                reach as f64 > 0.9 * n as f64,
                "{} reachable from only {reach}/{n}",
                a.name
            );
        }
    }

    #[test]
    fn all_selected_paths_are_valley_free() {
        let (_, g, rt) = routing();
        for (_, _, route) in rt.iter() {
            assert!(
                is_valley_free(&g, &route.as_path),
                "path {:?} has a valley",
                route.as_path
            );
        }
    }

    #[test]
    fn paths_start_at_holder_and_end_at_destination() {
        let (_, _, rt) = routing();
        for (dst, src, route) in rt.iter() {
            assert_eq!(route.as_path.first(), Some(&src));
            assert_eq!(route.as_path.last(), Some(&dst));
        }
    }

    #[test]
    fn customer_routes_preferred_over_provider_routes() {
        // Structural check: where both a customer and provider path could
        // exist, the selected kind must be the most preferred class. We
        // verify no selected route violates preference against an obvious
        // alternative: a provider route whose next hop also holds a
        // customer route of equal length to the same destination.
        let (_, g, rt) = routing();
        for (dst, src, route) in rt.iter() {
            if route.kind == RouteKind::Provider {
                // src must have no customer or peer route available:
                // no customer c of src with a route to dst shorter or equal.
                for c in g.customers(src) {
                    if let Some(ck) = rt.kind(c, dst) {
                        if matches!(ck, RouteKind::Customer | RouteKind::Origin) {
                            // src could import this as a customer route.
                            panic!(
                                "{src} selected provider route to {dst} while customer {c} offers one"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn paths_are_simple() {
        let (_, _, rt) = routing();
        for (_, _, route) in rt.iter() {
            let mut p = route.as_path.clone();
            p.sort();
            p.dedup();
            assert_eq!(p.len(), route.as_path.len(), "loop in {:?}", route.as_path);
        }
    }

    #[test]
    fn compact_accessors_agree_with_materialized_routes() {
        let (_, _, rt) = routing();
        for (dst, src, route) in rt.iter() {
            assert_eq!(rt.kind(src, dst), Some(route.kind));
            assert_eq!(rt.hop_count(src, dst), Some(route.hop_count()));
            assert!(rt.has_route(src, dst));
            let walked: Vec<Asn> = rt.path(src, dst).expect("routed").collect();
            assert_eq!(walked, route.as_path);
            assert_eq!(rt.route(src, dst), Some(route));
        }
    }

    #[test]
    fn unknown_asns_are_unrouted() {
        let (scenario, _, rt) = routing();
        let known = scenario.world.ases[0].asn;
        assert_eq!(rt.route(Asn(1), known), None);
        assert_eq!(rt.route(known, Asn(1)), None);
        assert!(rt.path(Asn(1), known).is_none());
        assert!(!rt.has_route(Asn(1), known));
        assert_eq!(rt.reachable_from(Asn(1)), 0);
    }
}
