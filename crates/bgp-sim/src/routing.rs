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
//! Destinations are independent, so [`RoutingTable::compute`] shards the
//! per-destination sweep across cores with `std::thread::scope`; each
//! destination is computed single-threaded, so the output is bit-identical
//! regardless of worker count.
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
    /// Computes best routes for every destination AS in the world,
    /// sharding destinations across all available cores.
    pub fn compute(graph: &AsGraph, world: &World) -> RoutingTable {
        Self::compute_with_threads(graph, world, default_threads())
    }

    /// [`RoutingTable::compute`] with an explicit worker count. The output
    /// is bit-identical for every `threads` value: workers partition the
    /// (independent) destinations and each destination is computed
    /// single-threaded by the same deterministic sweep.
    pub fn compute_with_threads(
        graph: &AsGraph,
        world: &World,
        threads: usize,
    ) -> RoutingTable {
        Self::compute_with(graph, world, threads, &PolicyOverrides::none())
    }

    /// [`RoutingTable::compute_with_threads`] plus control-plane policy
    /// overrides — the scenario-aware entry the RIB capture uses. The
    /// leak pass is part of the same per-destination sweep, so the
    /// output stays bit-identical for every worker count.
    pub fn compute_with(
        graph: &AsGraph,
        world: &World,
        threads: usize,
        overrides: &PolicyOverrides,
    ) -> RoutingTable {
        debug_assert_eq!(graph.node_count(), world.ases.len());
        Self::compute_for_graph_with(graph, threads, overrides)
    }

    /// Computes routes for every node of an arbitrary graph (the
    /// world-free entry point the equivalence and property tests use).
    pub fn compute_for_graph(graph: &AsGraph, threads: usize) -> RoutingTable {
        Self::compute_for_graph_with(graph, threads, &PolicyOverrides::none())
    }

    /// [`RoutingTable::compute_for_graph`] with policy overrides.
    pub fn compute_for_graph_with(
        graph: &AsGraph,
        threads: usize,
        overrides: &PolicyOverrides,
    ) -> RoutingTable {
        let n = graph.node_count();
        assert!(n < u16::MAX as usize, "hop counter is u16");
        let threads = threads.clamp(1, n.max(1));

        // Leakers as dense indices, ascending (ASes absent from this
        // graph cannot leak anything into it).
        let leakers: Vec<u32> = overrides
            .leakers()
            .iter()
            .filter_map(|&a| graph.index_of(a).map(|i| i as u32))
            .collect();
        let leakers = &leakers[..];

        let dests: Vec<DestRoutes> = if threads == 1 || n < 2 {
            let mut scratch = Scratch::new(n);
            (0..n)
                .map(|d| compute_destination(graph, d as u32, &mut scratch, leakers))
                .collect()
        } else {
            let chunk = n.div_ceil(threads);
            let mut out: Vec<DestRoutes> = Vec::with_capacity(n);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let lo = t * chunk;
                        let hi = ((t + 1) * chunk).min(n);
                        s.spawn(move || {
                            let mut scratch = Scratch::new(n);
                            (lo..hi)
                                .map(|d| {
                                    compute_destination(graph, d as u32, &mut scratch, leakers)
                                })
                                .collect::<Vec<DestRoutes>>()
                        })
                    })
                    .collect();
                for h in handles {
                    out.extend(h.join().expect("routing worker panicked"));
                }
            });
            out
        };

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
        let (s, d) = (self.idx(src)?, self.idx(dst)?);
        let dest = &self.dests[d];
        let slot = dest.slots[s];
        (slot.rec != NONE).then(|| self.walk(dest, slot))
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
        let slot = self.slot(src, dst)?;
        (slot.rec != NONE).then_some((slot.kind, slot.hops as usize, Asn(slot.next_asn)))
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

    fn idx(&self, asn: Asn) -> Option<usize> {
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

/// Reusable per-worker buffers: route slots, the (uncompacted) frozen-path
/// arena and the BFS queue — zero allocation per destination after warmup.
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
    let n = graph.node_count();
    let Scratch { slots, records, remap, stack, queue } = scratch;
    slots.fill(EMPTY);
    records.clear();
    queue.clear();

    records.push((d, NONE));
    slots[d as usize] = Slot { rec: 0, next_asn: 0, hops: 0, kind: RouteKind::Origin };

    // Accepts `u ← v` if `(kind, hops, next-hop ASN)` strictly improves and
    // the frozen path of `v` does not already contain `u`.
    macro_rules! relax {
        ($u:expr, $v:expr, $vs:expr, $kind:expr) => {{
            let u = $u as usize;
            let cand_hops = $vs.hops + 1;
            let next_asn = graph.asn_of($v as usize).0;
            let inc = slots[u];
            let accept = inc.rec == NONE
                || ($kind, cand_hops, next_asn) < (inc.kind, inc.hops, inc.next_asn);
            if accept && !chain_contains(records, $vs.rec, $u) {
                records.push(($u, $vs.rec));
                slots[u] = Slot {
                    rec: (records.len() - 1) as u32,
                    next_asn,
                    hops: cand_hops,
                    kind: $kind,
                };
                true
            } else {
                false
            }
        }};
    }

    // Phase 1: customer routes — BFS "up" through providers of routed
    // nodes. If v holds a route and u is a provider of v, u learns a
    // customer route via v. Label-correcting relaxation with deterministic
    // next-hop tie-break via the ASN-ordered adjacency slices.
    queue.push_back(d);
    while let Some(v) = queue.pop_front() {
        let vs = slots[v as usize];
        let (nbrs, kinds) = graph.neighbor_slices(v as usize);
        for (&u, &kind) in nbrs.iter().zip(kinds) {
            if kind != NeighborKind::Provider {
                continue; // we want u = provider of v, i.e. v sees u as Provider
            }
            if relax!(u, v, vs, RouteKind::Customer) {
                queue.push_back(u);
            }
        }
    }

    // Phase 2: peer routes — one peer hop off any customer-routed node.
    // Peer routes never beat customer routes, so nodes routed in this
    // phase can never become sources of it; iterating live state in index
    // order is equivalent to the seed's snapshot.
    for v in 0..n as u32 {
        let vs = slots[v as usize];
        if vs.rec == NONE || !matches!(vs.kind, RouteKind::Customer | RouteKind::Origin) {
            continue;
        }
        let (nbrs, kinds) = graph.neighbor_slices(v as usize);
        for (&u, &kind) in nbrs.iter().zip(kinds) {
            if kind != NeighborKind::Peer {
                continue;
            }
            relax!(u, v, vs, RouteKind::Peer);
        }
    }

    // Phase 3: provider routes — BFS "down" through customers. Any routed
    // node exports to its customers.
    queue.extend((0..n as u32).filter(|&v| slots[v as usize].rec != NONE));
    while let Some(v) = queue.pop_front() {
        let vs = slots[v as usize];
        let (nbrs, kinds) = graph.neighbor_slices(v as usize);
        for (&u, &kind) in nbrs.iter().zip(kinds) {
            if kind != NeighborKind::Customer {
                continue;
            }
            if relax!(u, v, vs, RouteKind::Provider) {
                queue.push_back(u);
            }
        }
    }

    // Leak stage: each leaker re-announces its *pre-leak* best route to
    // the neighbours the valley-free export rule forbids (providers and
    // peers — customers already received it in phase 3). A provider of
    // the leaker imports the leak as a *customer* route — more preferred
    // than what it holds, which is exactly why leaks spread — and the
    // improvements propagate through one more up/peer/down sweep.
    // Semantics: one leak round over the pre-leak snapshot, leakers in
    // ascending index order (see the module docs; [`reference`] runs the
    // identical sequence).
    if !leakers.is_empty() {
        let leaked: Vec<(u32, Slot)> = leakers
            .iter()
            .map(|&l| (l, slots[l as usize]))
            .filter(|(_, s)| {
                s.rec != NONE && matches!(s.kind, RouteKind::Peer | RouteKind::Provider)
            })
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
                if relax!(u, l, ls, accept) && accept == RouteKind::Customer {
                    queue.push_back(u);
                }
            }
        }
        // Re-run phase 1: leak-gained customer routes propagate up.
        while let Some(v) = queue.pop_front() {
            let vs = slots[v as usize];
            let (nbrs, kinds) = graph.neighbor_slices(v as usize);
            for (&u, &kind) in nbrs.iter().zip(kinds) {
                if kind != NeighborKind::Provider {
                    continue;
                }
                if relax!(u, v, vs, RouteKind::Customer) {
                    queue.push_back(u);
                }
            }
        }
        // Re-run phase 2: peer spread off the (now final) customer set.
        for v in 0..n as u32 {
            let vs = slots[v as usize];
            if vs.rec == NONE
                || !matches!(vs.kind, RouteKind::Customer | RouteKind::Origin)
            {
                continue;
            }
            let (nbrs, kinds) = graph.neighbor_slices(v as usize);
            for (&u, &kind) in nbrs.iter().zip(kinds) {
                if kind != NeighborKind::Peer {
                    continue;
                }
                relax!(u, v, vs, RouteKind::Peer);
            }
        }
        // Re-run phase 3: everything exports down to customers again.
        queue.extend((0..n as u32).filter(|&v| slots[v as usize].rec != NONE));
        while let Some(v) = queue.pop_front() {
            let vs = slots[v as usize];
            let (nbrs, kinds) = graph.neighbor_slices(v as usize);
            for (&u, &kind) in nbrs.iter().zip(kinds) {
                if kind != NeighborKind::Customer {
                    continue;
                }
                if relax!(u, v, vs, RouteKind::Provider) {
                    queue.push_back(u);
                }
            }
        }
    }

    // Compact the arena down to records reachable from a final slot, in
    // deterministic holder order.
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

/// The default routing worker count ([`RoutingTable::compute`]'s choice):
/// one worker per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
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

        if overrides.is_empty() {
            return best;
        }

        // Leak seeding: pre-leak snapshots, leakers ascending.
        let leaked: Vec<(Asn, Route)> = overrides
            .leakers()
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
