//! The AS-level graph as seen by BGP at one instant.
//!
//! Business relationships come from the world; an adjacency is *usable*
//! only while at least one of its IP links is up. When a cable cut downs
//! every link between two ASes, the adjacency vanishes and routing must
//! find valley-free alternatives — that is the mechanism by which physical
//! failures become routing events.
//!
//! The graph is stored in **dense-index CSR form**: ASNs map once to
//! contiguous `usize` indices (the same ascending-ASN order as
//! `World::ases`), and adjacency lives in two flat arrays sliced by a
//! per-node offset table. The routing engine works entirely in index
//! space — no per-node map lookups, no allocation — and neighbour slices
//! are sorted by ASN so `kind_between` is an O(log deg) binary search.

use std::collections::BTreeMap;

use net_model::{Asn, SimTime};
use world::{RelKind, Scenario};

/// Relationship of a neighbour from the perspective of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NeighborKind {
    /// The neighbour pays us (we are their provider).
    Customer,
    /// Settlement-free peer.
    Peer,
    /// We pay the neighbour (they are our provider).
    Provider,
}

/// Immutable dense-index adjacency view of the AS graph at an instant.
#[derive(Debug, Clone)]
pub struct AsGraph {
    /// Dense index → ASN, ascending (index space shared with
    /// `World::asn_position`).
    asns: Vec<Asn>,
    /// ASN → dense index.
    index: BTreeMap<Asn, u32>,
    /// CSR offsets: node `i`'s neighbours live at `offsets[i]..offsets[i+1]`.
    offsets: Vec<u32>,
    /// Neighbour dense indices, ascending within each node's slice.
    nbr_index: Vec<u32>,
    /// Kind of each neighbour, from the node's perspective (parallel to
    /// `nbr_index`).
    nbr_kind: Vec<NeighborKind>,
}

impl AsGraph {
    /// Builds the graph for the scenario at time `t`.
    pub fn at_time(scenario: &Scenario, t: SimTime) -> AsGraph {
        let world = &scenario.world;
        let down = scenario.links_down_at(t);
        let asns: Vec<Asn> = world.ases.iter().map(|a| a.asn).collect();
        // An adjacency is live while at least one of its links is up.
        let edges = world.relationships.iter().filter_map(|rel| {
            let live = world.links_between(rel.a, rel.b).iter().any(|l| !down.contains(l));
            live.then_some((rel.a, rel.b, rel.kind))
        });
        Self::build(asns, edges)
    }

    /// Builds a graph from an explicit node set and relationship edges —
    /// the constructor the equivalence/property tests use to exercise
    /// arbitrary topologies without generating a world. For
    /// `RelKind::ProviderCustomer`, `a` is the provider of `b`.
    pub fn from_relationships(
        mut asns: Vec<Asn>,
        edges: impl IntoIterator<Item = (Asn, Asn, RelKind)>,
    ) -> AsGraph {
        asns.sort();
        asns.dedup();
        Self::build(asns, edges)
    }

    fn build(asns: Vec<Asn>, edges: impl IntoIterator<Item = (Asn, Asn, RelKind)>) -> AsGraph {
        let index: BTreeMap<Asn, u32> =
            asns.iter().enumerate().map(|(i, &a)| (a, i as u32)).collect();
        // Both half-edges of every row, in row order.
        let mut half: Vec<(u32, u32, NeighborKind)> = Vec::new();
        for (a, b, kind) in edges {
            let (ia, ib) = match (index.get(&a), index.get(&b)) {
                (Some(&ia), Some(&ib)) => (ia, ib),
                _ => continue,
            };
            let (toward_b, toward_a) = match kind {
                // `a` is provider of `b`.
                RelKind::ProviderCustomer => (NeighborKind::Customer, NeighborKind::Provider),
                RelKind::Peer => (NeighborKind::Peer, NeighborKind::Peer),
            };
            half.push((ia, ib, toward_b));
            half.push((ib, ia, toward_a));
        }
        // A stable sort keeps each `(node, neighbour)` run in row order, so
        // the last row for a pair wins (a self-loop's second half-edge
        // included), as the seed's per-node map inserts did.
        half.sort_by_key(|&(node, nbr, _)| (node, nbr));
        let mut offsets = vec![0u32; asns.len() + 1];
        let mut nbr_index = Vec::with_capacity(half.len());
        let mut nbr_kind = Vec::with_capacity(half.len());
        for (k, &(node, nbr, kind)) in half.iter().enumerate() {
            if half.get(k + 1).is_some_and(|&(n, m, _)| (n, m) == (node, nbr)) {
                continue;
            }
            nbr_index.push(nbr);
            nbr_kind.push(kind);
            offsets[node as usize + 1] += 1;
        }
        for i in 0..asns.len() {
            offsets[i + 1] += offsets[i];
        }
        AsGraph { asns, index, offsets, nbr_index, nbr_kind }
    }

    /// Whether two graphs describe the identical topology (same nodes,
    /// same CSR adjacency, same relationship kinds). Routing — and
    /// therefore any RIB snapshot — is a pure function of the topology,
    /// so equal graphs let callers memoize routing state across scenario
    /// events that did not change connectivity.
    pub fn same_topology(&self, other: &AsGraph) -> bool {
        self.asns == other.asns
            && self.offsets == other.offsets
            && self.nbr_index == other.nbr_index
            && self.nbr_kind == other.nbr_kind
    }

    /// All nodes, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = Asn> + '_ {
        self.asns.iter().copied()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.asns.len()
    }

    /// Number of (undirected) adjacencies.
    pub fn edge_count(&self) -> usize {
        self.nbr_index.len() / 2
    }

    /// The ASN at a dense index.
    pub fn asn_of(&self, idx: usize) -> Asn {
        self.asns[idx]
    }

    /// The dense index of an ASN.
    pub fn index_of(&self, asn: Asn) -> Option<usize> {
        self.index.get(&asn).map(|&i| i as usize)
    }

    /// Dense index → ASN table (index space of the routing engine).
    pub fn asn_table(&self) -> &[Asn] {
        &self.asns
    }

    /// Neighbour slice of a dense index: `(neighbour index, kind)` pairs,
    /// ascending by neighbour index (equivalently, by neighbour ASN).
    pub fn neighbor_slices(&self, idx: usize) -> (&[u32], &[NeighborKind]) {
        let (lo, hi) = (self.offsets[idx] as usize, self.offsets[idx + 1] as usize);
        (&self.nbr_index[lo..hi], &self.nbr_kind[lo..hi])
    }

    /// Neighbours of `asn` with their kinds (from `asn`'s perspective),
    /// ascending by neighbour ASN.
    pub fn neighbors(&self, asn: Asn) -> impl Iterator<Item = (Asn, NeighborKind)> + '_ {
        let (idx, kinds) = match self.index_of(asn) {
            Some(i) => self.neighbor_slices(i),
            None => (&[] as &[u32], &[] as &[NeighborKind]),
        };
        idx.iter().zip(kinds).map(|(&n, &k)| (self.asns[n as usize], k))
    }

    /// The customers of `asn`.
    pub fn customers(&self, asn: Asn) -> Vec<Asn> {
        self.neighbors(asn).filter(|(_, k)| *k == NeighborKind::Customer).map(|(n, _)| n).collect()
    }

    /// The providers of `asn`.
    pub fn providers(&self, asn: Asn) -> Vec<Asn> {
        self.neighbors(asn).filter(|(_, k)| *k == NeighborKind::Provider).map(|(n, _)| n).collect()
    }

    /// The peers of `asn`.
    pub fn peers(&self, asn: Asn) -> Vec<Asn> {
        self.neighbors(asn).filter(|(_, k)| *k == NeighborKind::Peer).map(|(n, _)| n).collect()
    }

    /// Whether an adjacency exists.
    pub fn adjacent(&self, a: Asn, b: Asn) -> bool {
        self.kind_between(a, b).is_some()
    }

    /// The kind of `b` from `a`'s perspective, if adjacent — an O(log deg)
    /// binary search over `a`'s sorted neighbour slice.
    pub fn kind_between(&self, a: Asn, b: Asn) -> Option<NeighborKind> {
        let ia = self.index_of(a)?;
        let ib = *self.index.get(&b)?;
        let (idx, kinds) = self.neighbor_slices(ia);
        idx.binary_search(&ib).ok().map(|pos| kinds[pos])
    }
}

/// The graph construction the half-edge build and the `links_between`
/// liveness test replaced, kept verbatim as the oracle the equivalence
/// tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::BTreeMap;

    use net_model::{Asn, SimTime};
    use world::{RelKind, Scenario};

    use super::{AsGraph, NeighborKind};

    /// The seed `AsGraph::at_time`: liveness from a set of every up
    /// link's AS pair.
    pub(crate) fn at_time(scenario: &Scenario, t: SimTime) -> AsGraph {
        let world = &scenario.world;
        let down = scenario.links_down_at(t);
        // An adjacency is live while at least one of its links is up.
        let mut live: std::collections::BTreeSet<(Asn, Asn)> = std::collections::BTreeSet::new();
        for link in &world.links {
            if !down.contains(&link.id) {
                live.insert(link.as_pair());
            }
        }
        let asns: Vec<Asn> = world.ases.iter().map(|a| a.asn).collect();
        let edges = world.relationships.iter().filter_map(|rel| {
            let pair = if rel.a <= rel.b { (rel.a, rel.b) } else { (rel.b, rel.a) };
            live.contains(&pair).then_some((rel.a, rel.b, rel.kind))
        });
        build(asns, edges)
    }

    /// The seed `AsGraph::from_relationships`.
    pub(crate) fn from_relationships(
        mut asns: Vec<Asn>,
        edges: impl IntoIterator<Item = (Asn, Asn, RelKind)>,
    ) -> AsGraph {
        asns.sort();
        asns.dedup();
        build(asns, edges)
    }

    fn build(asns: Vec<Asn>, edges: impl IntoIterator<Item = (Asn, Asn, RelKind)>) -> AsGraph {
        let index: BTreeMap<Asn, u32> =
            asns.iter().enumerate().map(|(i, &a)| (a, i as u32)).collect();
        // Per-node sorted maps first (later relationship rows overwrite
        // earlier ones for the same pair, matching the seed semantics),
        // then flatten to CSR.
        let mut adj: Vec<BTreeMap<u32, NeighborKind>> = vec![BTreeMap::new(); asns.len()];
        for (a, b, kind) in edges {
            let (ia, ib) = match (index.get(&a), index.get(&b)) {
                (Some(&ia), Some(&ib)) => (ia, ib),
                _ => continue,
            };
            match kind {
                RelKind::ProviderCustomer => {
                    // `a` is provider of `b`.
                    adj[ia as usize].insert(ib, NeighborKind::Customer);
                    adj[ib as usize].insert(ia, NeighborKind::Provider);
                }
                RelKind::Peer => {
                    adj[ia as usize].insert(ib, NeighborKind::Peer);
                    adj[ib as usize].insert(ia, NeighborKind::Peer);
                }
            }
        }
        let mut offsets = Vec::with_capacity(asns.len() + 1);
        let mut nbr_index = Vec::new();
        let mut nbr_kind = Vec::new();
        offsets.push(0u32);
        for m in &adj {
            for (&n, &k) in m {
                nbr_index.push(n);
                nbr_kind.push(k);
            }
            offsets.push(nbr_index.len() as u32);
        }
        AsGraph { asns, index, offsets, nbr_index, nbr_kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::geo::{GeoCircle, GeoPoint};
    use net_model::SimDuration;
    use proptest::prelude::*;
    use std::sync::Arc;
    use world::{generate, EventKind, WorldConfig};

    /// Both builds agree on the topology and on every field `Debug` shows.
    fn assert_matches_reference(asns: Vec<Asn>, rows: Vec<(Asn, Asn, RelKind)>) {
        let dense = AsGraph::from_relationships(asns.clone(), rows.clone());
        let seed = reference::from_relationships(asns, rows.clone());
        assert!(dense.same_topology(&seed), "topology differs for {rows:?}");
        assert_eq!(format!("{dense:?}"), format!("{seed:?}"), "rows {rows:?}");
    }

    #[test]
    fn half_edge_build_matches_the_reference_on_overwritten_rows() {
        use RelKind::{Peer, ProviderCustomer as P2c};
        let asns = vec![Asn(30), Asn(10), Asn(20), Asn(40), Asn(10)];
        let shapes: [&[(u32, u32, RelKind)]; 7] = [
            // A repeated pair.
            &[(10, 20, P2c), (20, 30, Peer), (10, 20, P2c), (20, 30, Peer)],
            // A P2C row later overwritten by a Peer row.
            &[(10, 20, P2c), (20, 40, P2c), (10, 20, Peer)],
            // A P2C row reversed.
            &[(10, 20, P2c), (30, 40, Peer), (20, 10, P2c)],
            // Self-loops: the second half-edge of the row wins.
            &[(20, 20, P2c), (10, 30, P2c)],
            &[(20, 20, Peer), (20, 20, P2c), (40, 40, P2c), (40, 40, Peer)],
            // Rows naming an ASN outside the node set are dropped.
            &[(10, 99, P2c), (99, 20, Peer), (10, 20, Peer), (99, 99, P2c)],
            &[],
        ];
        for rows in shapes {
            let rows = rows.iter().map(|&(a, b, k)| (Asn(a), Asn(b), k)).collect();
            assert_matches_reference(asns.clone(), rows);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Small ASN ranges make repeated, overwritten, reversed and
        /// self-loop rows common, and rows past the node range name
        /// unknown ASNs.
        #[test]
        fn half_edge_build_matches_the_reference(
            asns in proptest::collection::vec(0u32..12, 0..12),
            rows in proptest::collection::vec((0u32..14, 0u32..14, any::<bool>()), 0..48),
        ) {
            let asns: Vec<Asn> = asns.into_iter().map(Asn).collect();
            let rows: Vec<(Asn, Asn, RelKind)> = rows
                .into_iter()
                .map(|(a, b, peer)| {
                    (Asn(a), Asn(b), if peer { RelKind::Peer } else { RelKind::ProviderCustomer })
                })
                .collect();
            let dense = AsGraph::from_relationships(asns.clone(), rows.clone());
            let seed = reference::from_relationships(asns, rows);
            prop_assert!(dense.same_topology(&seed));
            prop_assert_eq!(format!("{dense:?}"), format!("{seed:?}"));
        }
    }

    #[test]
    fn at_time_matches_the_reference_across_cuts_and_disasters() {
        let config = WorldConfig { festoon_cables: 10, ..WorldConfig::default() };
        let world = Arc::new(generate(&config));
        let day = |d: i64| net_model::SimTime::EPOCH + SimDuration::days(d);
        // Global ASes interconnect at their first two shared hubs, London
        // and Marseille, so a London quake downs one of two links of many
        // pairs: the pair stays adjacent through Marseille.
        let quake = GeoCircle::new(GeoPoint::of(51.5, -0.1), 200.0);
        let mut scenario = Scenario::quiet(Arc::clone(&world), 10)
            .with_event(EventKind::Earthquake { footprint: quake, failure_prob: 0.8 }, day(2));
        for (k, cable) in world.cables.iter().step_by(4).enumerate() {
            let cut = EventKind::CableCut { cable: cable.id };
            scenario = scenario.with_event(cut, day(3 + k as i64 / 4));
        }
        let mut distinct = std::collections::BTreeSet::new();
        for hour in (0..10 * 24).step_by(6) {
            let t = net_model::SimTime::EPOCH + SimDuration::hours(hour);
            let dense = AsGraph::at_time(&scenario, t);
            let seed = reference::at_time(&scenario, t);
            assert!(dense.same_topology(&seed), "topology differs at hour {hour}");
            assert_eq!(format!("{dense:?}"), format!("{seed:?}"), "hour {hour}");
            distinct.insert(dense.edge_count());
        }
        assert!(distinct.len() > 3, "the timeline removes adjacencies step by step: {distinct:?}");
    }

    #[test]
    fn graph_reflects_world_relationships() {
        let world = generate(&WorldConfig::default());
        let scenario = Scenario::quiet(world, 10);
        let g = AsGraph::at_time(&scenario, scenario.now);
        assert_eq!(g.node_count(), scenario.world.ases.len());
        assert!(g.edge_count() > 100);
    }

    #[test]
    fn provider_and_customer_views_are_mirrored() {
        let world = generate(&WorldConfig::default());
        let scenario = Scenario::quiet(world, 10);
        let g = AsGraph::at_time(&scenario, scenario.now);
        for asn in g.nodes().collect::<Vec<_>>() {
            for cust in g.customers(asn) {
                assert!(g.providers(cust).contains(&asn));
            }
            for peer in g.peers(asn) {
                assert!(g.peers(peer).contains(&asn));
            }
        }
    }

    #[test]
    fn cable_cut_can_remove_adjacencies() {
        let world = generate(&WorldConfig::default());
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let cut_at = net_model::SimTime::EPOCH + SimDuration::days(5);
        let scenario =
            Scenario::quiet(world, 10).with_event(EventKind::CableCut { cable }, cut_at);
        let before = AsGraph::at_time(&scenario, cut_at - SimDuration::hours(1));
        let after = AsGraph::at_time(&scenario, cut_at + SimDuration::hours(1));
        assert!(after.edge_count() <= before.edge_count());
    }

    #[test]
    fn dense_index_round_trips_and_orders_neighbors() {
        let world = generate(&WorldConfig::default());
        let scenario = Scenario::quiet(world, 10);
        let g = AsGraph::at_time(&scenario, scenario.now);
        for (i, asn) in g.nodes().enumerate() {
            assert_eq!(g.asn_of(i), asn);
            assert_eq!(g.index_of(asn), Some(i));
            assert_eq!(scenario.world.asn_position(asn), Some(i), "index space matches World");
            let nbrs: Vec<Asn> = g.neighbors(asn).map(|(n, _)| n).collect();
            let mut sorted = nbrs.clone();
            sorted.sort();
            assert_eq!(nbrs, sorted, "neighbour slice of {asn} is ASN-ascending");
        }
    }

    #[test]
    fn kind_between_agrees_with_neighbor_scan() {
        let world = generate(&WorldConfig::default());
        let scenario = Scenario::quiet(world, 10);
        let g = AsGraph::at_time(&scenario, scenario.now);
        let nodes: Vec<Asn> = g.nodes().collect();
        for &a in nodes.iter().take(40) {
            for &b in nodes.iter().take(40) {
                let scan = g.neighbors(a).find(|(n, _)| *n == b).map(|(_, k)| k);
                assert_eq!(g.kind_between(a, b), scan);
                assert_eq!(g.adjacent(a, b), scan.is_some());
            }
        }
    }

    #[test]
    fn from_relationships_builds_expected_topology() {
        let g = AsGraph::from_relationships(
            vec![Asn(30), Asn(10), Asn(20)],
            vec![
                (Asn(10), Asn(20), RelKind::ProviderCustomer),
                (Asn(20), Asn(30), RelKind::Peer),
            ],
        );
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.kind_between(Asn(10), Asn(20)), Some(NeighborKind::Customer));
        assert_eq!(g.kind_between(Asn(20), Asn(10)), Some(NeighborKind::Provider));
        assert_eq!(g.kind_between(Asn(20), Asn(30)), Some(NeighborKind::Peer));
        assert_eq!(g.kind_between(Asn(10), Asn(30)), None);
    }
}
