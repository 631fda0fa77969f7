//! The physical conduit graph and shortest-path machinery.
//!
//! Nodes are cities. Edges are either submarine cable segments (tagged with
//! the owning [`CableId`]) or terrestrial conduits. IP links ride the
//! shortest physical path between their endpoint cities, which is what ties
//! the network layer to the physical layer: an IP link "depends on" every
//! cable its path traverses.
//!
//! Dijkstra runs with deterministic tie-breaking (cost, then node id) so
//! that identical worlds always produce identical paths.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use net_model::{CableId, CityId};
use net_model::hash::stable_hash;
use serde::{Deserialize, Serialize};

use crate::cables::Cable;
use crate::cities::City;

/// A terrestrial conduit between two cities (undirected).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TerrestrialEdge {
    pub a: CityId,
    pub b: CityId,
    /// Land route length (great circle × detour factor), km.
    pub length_km: f64,
}

/// One hop of a physical path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PathHop {
    /// Riding segment `segment` of cable `cable`.
    Cable { cable: CableId, segment: usize, length_km: f64 },
    /// Riding a terrestrial conduit.
    Terrestrial { length_km: f64 },
}

impl PathHop {
    pub fn length_km(&self) -> f64 {
        match self {
            PathHop::Cable { length_km, .. } => *length_km,
            PathHop::Terrestrial { length_km } => *length_km,
        }
    }
}

/// A concrete physical route between two cities.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PhysicalPath {
    /// Visited cities, endpoints included.
    pub cities: Vec<CityId>,
    /// Conduit hops, one fewer than `cities`.
    pub hops: Vec<PathHop>,
}

impl PhysicalPath {
    /// Total route length in km.
    pub fn length_km(&self) -> f64 {
        self.hops.iter().map(|h| h.length_km()).sum()
    }

    /// One-way propagation latency over this path, in ms.
    pub fn propagation_ms(&self) -> f64 {
        self.length_km() / net_model::geo::FIBER_SPEED_KM_PER_MS
    }

    /// The distinct cables this path rides, in first-traversal order.
    pub fn cables(&self) -> Vec<CableId> {
        let mut seen = Vec::new();
        for hop in &self.hops {
            if let PathHop::Cable { cable, .. } = hop {
                if !seen.contains(cable) {
                    seen.push(*cable);
                }
            }
        }
        seen
    }
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    to: CityId,
    length_km: f64,
    hop: PathHop,
    /// The undirected edge's identity for the weight bias, shared by both
    /// directions: cable segments by `(cable, segment)`, terrestrial
    /// conduits by their endpoint pair, lower id first.
    ident: u64,
}

impl Edge {
    fn new(from: CityId, to: CityId, length_km: f64, hop: PathHop) -> Edge {
        let ident = match hop {
            PathHop::Cable { cable, segment, .. } => {
                0x1_0000_0000u64 | ((cable.0 as u64) << 16) | segment as u64
            }
            PathHop::Terrestrial { .. } => {
                let (lo, hi) = if to.0 < from.0 { (to.0, from.0) } else { (from.0, to.0) };
                0x2_0000_0000u64 | ((lo as u64) << 16) | hi as u64
            }
        };
        Edge { to, length_km, hop, ident }
    }
}

#[derive(PartialEq)]
struct State {
    cost_mm: u64, // millimetres, for exact integer ordering
    node: CityId,
}
impl Eq for State {}
impl Ord for State {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap with deterministic tie-break on node id.
        other.cost_mm.cmp(&self.cost_mm).then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra's labels and heap, reset by every search.
#[derive(Default)]
pub(crate) struct PathScratch {
    dist: Vec<u64>,
    prev: Vec<Option<(CityId, PathHop)>>,
    heap: BinaryHeap<State>,
}

/// Adjacency-list view of the conduit graph, with Dijkstra.
///
/// Cities are dense (`City::id` is the city's position), so adjacency and
/// Dijkstra's labels are `Vec`s indexed by [`CityId::index`].
#[derive(Debug, Clone)]
pub struct PhysicalGraph {
    adj: Vec<Vec<Edge>>,
}

impl PhysicalGraph {
    /// Builds the graph from cables and terrestrial edges.
    pub fn build(
        cities: &[City],
        cables: &[Cable],
        terrestrial: &[TerrestrialEdge],
    ) -> PhysicalGraph {
        let mut adj: Vec<Vec<Edge>> = vec![Vec::new(); cities.len()];
        let mut link = |a: CityId, b: CityId, length_km: f64, hop: PathHop| {
            adj[a.index()].push(Edge::new(a, b, length_km, hop));
            adj[b.index()].push(Edge::new(b, a, length_km, hop));
        };
        for cable in cables {
            for (si, seg) in cable.segments.iter().enumerate() {
                let hop = PathHop::Cable { cable: cable.id, segment: si, length_km: seg.length_km };
                link(seg.a, seg.b, seg.length_km, hop);
            }
        }
        for t in terrestrial {
            link(t.a, t.b, t.length_km, PathHop::Terrestrial { length_km: t.length_km });
        }
        // Deterministic neighbour order.
        for edges in &mut adj {
            edges.sort_by(|x, y| {
                x.length_km.total_cmp(&y.length_km).then(x.to.cmp(&y.to))
            });
        }
        PhysicalGraph { adj }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Shortest path by length between two cities, or `None` if the graph
    /// is disconnected between them.
    pub fn shortest_path(&self, from: CityId, to: CityId) -> Option<PhysicalPath> {
        self.shortest_path_biased(from, to, None)
    }

    /// Shortest path under a deterministic per-edge weight bias.
    ///
    /// With `bias = Some(seed)`, every edge's weight is multiplied by a
    /// factor in `[0.75, 1.25)` derived from `(seed, edge identity)`. The
    /// world generator gives every IP link its own seed so that parallel
    /// cable systems on the same corridor each end up carrying links —
    /// matching the route diversity of the real Internet instead of
    /// funnelling everything onto the single geometrically-shortest system.
    pub fn shortest_path_biased(
        &self,
        from: CityId,
        to: CityId,
        bias: Option<u64>,
    ) -> Option<PhysicalPath> {
        self.shortest_path_in(from, to, bias, &mut PathScratch::default())
    }

    /// [`PhysicalGraph::shortest_path_biased`] over caller-owned labels,
    /// so a caller running many searches allocates them once.
    pub(crate) fn shortest_path_in(
        &self,
        from: CityId,
        to: CityId,
        bias: Option<u64>,
        scratch: &mut PathScratch,
    ) -> Option<PhysicalPath> {
        if from == to {
            return Some(PhysicalPath { cities: vec![from], hops: vec![] });
        }
        let n = self.adj.len();
        if from.index() >= n || to.index() >= n {
            return None;
        }

        let to_mm = |km: f64| (km * 1e6).round() as u64;
        let weight = |e: &Edge| -> u64 {
            match bias {
                None => to_mm(e.length_km),
                Some(seed) => {
                    let h = stable_hash(&[seed, e.ident]);
                    let factor = 0.75 + (h % 1000) as f64 / 2000.0; // [0.75, 1.25)
                    to_mm(e.length_km * factor)
                }
            }
        };

        // `u64::MAX` marks an unreached city, as a missing map entry did.
        let PathScratch { dist, prev, heap } = scratch;
        dist.clear();
        dist.resize(n, u64::MAX);
        prev.clear();
        prev.resize(n, None);
        heap.clear();
        dist[from.index()] = 0;
        heap.push(State { cost_mm: 0, node: from });

        while let Some(State { cost_mm, node }) = heap.pop() {
            if node == to {
                break;
            }
            if cost_mm > dist[node.index()] {
                continue;
            }
            for e in &self.adj[node.index()] {
                let next = cost_mm + weight(e);
                if next < dist[e.to.index()] {
                    dist[e.to.index()] = next;
                    prev[e.to.index()] = Some((node, e.hop));
                    heap.push(State { cost_mm: next, node: e.to });
                }
            }
        }

        if dist[to.index()] == u64::MAX {
            return None;
        }
        // Reconstruct.
        let mut cities = vec![to];
        let mut hops = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, hop) = prev[cur.index()]?;
            hops.push(hop);
            cities.push(p);
            cur = p;
        }
        cities.reverse();
        hops.reverse();
        Some(PhysicalPath { cities, hops })
    }
}

/// The `BTreeMap`-keyed Dijkstra the dense one replaced, kept verbatim as
/// the oracle the equivalence tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use std::cmp::Ordering;
    use std::collections::{BTreeMap, BinaryHeap};

    use net_model::hash::stable_hash;
    use net_model::CityId;

    use super::{PathHop, PhysicalPath, TerrestrialEdge};
    use crate::cables::Cable;
    use crate::cities::City;

    #[derive(Debug, Clone, Copy)]
    struct Edge {
        /// Source node (kept so an undirected edge has a stable identity).
        from_hint: CityId,
        to: CityId,
        length_km: f64,
        hop: PathHop,
    }

    /// Adjacency-list view of the conduit graph, with Dijkstra.
    #[derive(Debug, Clone)]
    pub struct PhysicalGraph {
        adj: BTreeMap<CityId, Vec<Edge>>,
    }

    impl PhysicalGraph {
        /// Builds the graph from cables and terrestrial edges.
        pub fn build(
            cities: &[City],
            cables: &[Cable],
            terrestrial: &[TerrestrialEdge],
        ) -> PhysicalGraph {
            let mut adj: BTreeMap<CityId, Vec<Edge>> = BTreeMap::new();
            for c in cities {
                adj.insert(c.id, Vec::new());
            }
            for cable in cables {
                for (si, seg) in cable.segments.iter().enumerate() {
                    let hop = PathHop::Cable { cable: cable.id, segment: si, length_km: seg.length_km };
                    adj.get_mut(&seg.a).expect("known city").push(Edge {
                        from_hint: seg.a,
                        to: seg.b,
                        length_km: seg.length_km,
                        hop,
                    });
                    adj.get_mut(&seg.b).expect("known city").push(Edge {
                        from_hint: seg.b,
                        to: seg.a,
                        length_km: seg.length_km,
                        hop,
                    });
                }
            }
            for t in terrestrial {
                let hop = PathHop::Terrestrial { length_km: t.length_km };
                adj.get_mut(&t.a).expect("known city").push(Edge {
                    from_hint: t.a,
                    to: t.b,
                    length_km: t.length_km,
                    hop,
                });
                adj.get_mut(&t.b).expect("known city").push(Edge {
                    from_hint: t.b,
                    to: t.a,
                    length_km: t.length_km,
                    hop,
                });
            }
            // Deterministic neighbour order.
            for edges in adj.values_mut() {
                edges.sort_by(|x, y| {
                    x.length_km.total_cmp(&y.length_km).then(x.to.cmp(&y.to))
                });
            }
            PhysicalGraph { adj }
        }

        /// Shortest path under a deterministic per-edge weight bias.
        ///
        /// With `bias = Some(seed)`, every edge's weight is multiplied by a
        /// factor in `[0.75, 1.25)` derived from `(seed, edge identity)`. The
        /// world generator gives every IP link its own seed so that parallel
        /// cable systems on the same corridor each end up carrying links —
        /// matching the route diversity of the real Internet instead of
        /// funnelling everything onto the single geometrically-shortest system.
        pub fn shortest_path_biased(
            &self,
            from: CityId,
            to: CityId,
            bias: Option<u64>,
        ) -> Option<PhysicalPath> {
            if from == to {
                return Some(PhysicalPath { cities: vec![from], hops: vec![] });
            }

            #[derive(PartialEq)]
            struct State {
                cost_mm: u64, // millimetres, for exact integer ordering
                node: CityId,
            }
            impl Eq for State {}
            impl Ord for State {
                fn cmp(&self, other: &Self) -> Ordering {
                    // Min-heap with deterministic tie-break on node id.
                    other
                        .cost_mm
                        .cmp(&self.cost_mm)
                        .then_with(|| other.node.cmp(&self.node))
                }
            }
            impl PartialOrd for State {
                fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                    Some(self.cmp(other))
                }
            }

            let to_mm = |km: f64| (km * 1e6).round() as u64;
            let weight = |e: &Edge| -> u64 {
                match bias {
                    None => to_mm(e.length_km),
                    Some(seed) => {
                        let ident = match e.hop {
                            PathHop::Cable { cable, segment, .. } => {
                                0x1_0000_0000u64 | ((cable.0 as u64) << 16) | segment as u64
                            }
                            PathHop::Terrestrial { .. } => {
                                let (lo, hi) = if e.to.0 < e.from_hint.0 {
                                    (e.to.0, e.from_hint.0)
                                } else {
                                    (e.from_hint.0, e.to.0)
                                };
                                0x2_0000_0000u64 | ((lo as u64) << 16) | hi as u64
                            }
                        };
                        let h = stable_hash(&[seed, ident]);
                        let factor = 0.75 + (h % 1000) as f64 / 2000.0; // [0.75, 1.25)
                        to_mm(e.length_km * factor)
                    }
                }
            };

            let mut dist: BTreeMap<CityId, u64> = BTreeMap::new();
            let mut prev: BTreeMap<CityId, (CityId, PathHop)> = BTreeMap::new();
            let mut heap = BinaryHeap::new();
            dist.insert(from, 0);
            heap.push(State { cost_mm: 0, node: from });

            while let Some(State { cost_mm, node }) = heap.pop() {
                if node == to {
                    break;
                }
                if cost_mm > *dist.get(&node).unwrap_or(&u64::MAX) {
                    continue;
                }
                for e in self.adj.get(&node).into_iter().flatten() {
                    let next = cost_mm + weight(e);
                    if next < *dist.get(&e.to).unwrap_or(&u64::MAX) {
                        dist.insert(e.to, next);
                        prev.insert(e.to, (node, e.hop));
                        heap.push(State { cost_mm: next, node: e.to });
                    }
                }
            }

            if !dist.contains_key(&to) {
                return None;
            }
            // Reconstruct.
            let mut cities = vec![to];
            let mut hops = Vec::new();
            let mut cur = to;
            while cur != from {
                let (p, hop) = prev.get(&cur).copied()?;
                hops.push(hop);
                cities.push(p);
                cur = p;
            }
            cities.reverse();
            hops.reverse();
            Some(PhysicalPath { cities, hops })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cables::build_curated_cables;
    use crate::cities::{build_cities, city_index};

    fn graph() -> (Vec<City>, PhysicalGraph) {
        let cities = build_cities();
        let cables = build_curated_cables(&cities);
        // A couple of terrestrial edges for the test.
        let terrestrial = vec![
            TerrestrialEdge {
                a: city_index(&cities, "FR", "Marseille"),
                b: city_index(&cities, "FR", "Paris"),
                length_km: 800.0,
            },
            TerrestrialEdge {
                a: city_index(&cities, "FR", "Paris"),
                b: city_index(&cities, "GB", "London"),
                length_km: 450.0,
            },
        ];
        let g = PhysicalGraph::build(&cities, &cables, &terrestrial);
        (cities, g)
    }

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The conduit layer of a generated world, optionally thinned to the
    /// cables and conduits `keep` selects so some city pairs disconnect.
    fn conduits(
        config: &crate::WorldConfig,
        keep: Option<u64>,
    ) -> (Vec<City>, Vec<Cable>, Vec<TerrestrialEdge>) {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (cities, mut cables, mut terrestrial) =
            crate::generator::physical_layer(config, &mut rng);
        if let Some(seed) = keep {
            let kept = |i: usize| stable_hash(&[seed, i as u64]).is_multiple_of(4);
            let mut i = 0;
            cables.retain(|_| {
                i += 1;
                kept(i)
            });
            terrestrial.retain(|_| {
                i += 1;
                kept(i)
            });
        }
        (cities, cables, terrestrial)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// On the conduit graphs of the 80 festoon configs, whole or thinned
        /// until pairs disconnect, the dense Dijkstra returns the reference's
        /// path (or `None`) for any endpoints, ids past the last city
        /// included, with and without a bias.
        #[test]
        fn dense_dijkstra_matches_the_reference(
            config in 0usize..80,
            keep in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
            queries in proptest::collection::vec(
                (0u32..56, 0u32..56, prop_oneof![Just(None), any::<u64>().prop_map(Some)]),
                24,
            ),
        ) {
            let config = crate::generator::festoon_configs().nth(config).unwrap();
            let (cities, cables, terrestrial) = conduits(&config, keep);
            let dense = PhysicalGraph::build(&cities, &cables, &terrestrial);
            let seed = reference::PhysicalGraph::build(&cities, &cables, &terrestrial);
            for (a, b, bias) in queries {
                let (a, b) = (CityId(a), CityId(b));
                prop_assert_eq!(
                    dense.shortest_path_biased(a, b, bias),
                    seed.shortest_path_biased(a, b, bias)
                );
            }
        }
    }

    #[test]
    fn self_path_is_empty() {
        let (cities, g) = graph();
        let sg = city_index(&cities, "SG", "Singapore");
        let p = g.shortest_path(sg, sg).unwrap();
        assert_eq!(p.hops.len(), 0);
        assert_eq!(p.length_km(), 0.0);
    }

    #[test]
    fn marseille_to_singapore_rides_a_europe_asia_system() {
        let (cities, g) = graph();
        let mrs = city_index(&cities, "FR", "Marseille");
        let sg = city_index(&cities, "SG", "Singapore");
        let p = g.shortest_path(mrs, sg).expect("connected");
        assert!(!p.cables().is_empty(), "sea route must use cables");
        assert!(p.length_km() > 9_000.0, "got {}", p.length_km());
        // Propagation should be tens of milliseconds.
        assert!(p.propagation_ms() > 40.0);
    }

    #[test]
    fn paths_are_deterministic() {
        let (cities, g) = graph();
        let lon = city_index(&cities, "GB", "London");
        let hk = city_index(&cities, "HK", "Hong Kong");
        let p1 = g.shortest_path(lon, hk).unwrap();
        let p2 = g.shortest_path(lon, hk).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn terrestrial_edge_used_for_inland_city() {
        let (cities, g) = graph();
        let paris = city_index(&cities, "FR", "Paris");
        let mrs = city_index(&cities, "FR", "Marseille");
        let p = g.shortest_path(paris, mrs).unwrap();
        assert_eq!(p.hops.len(), 1);
        assert!(matches!(p.hops[0], PathHop::Terrestrial { .. }));
    }

    #[test]
    fn disconnected_when_no_conduits_reach() {
        let cities = build_cities();
        let g = PhysicalGraph::build(&cities, &[], &[]);
        let a = city_index(&cities, "FR", "Paris");
        let b = city_index(&cities, "SG", "Singapore");
        assert!(g.shortest_path(a, b).is_none());
    }

    #[test]
    fn path_endpoints_and_hop_counts_align() {
        let (cities, g) = graph();
        let ny = city_index(&cities, "US", "New York");
        let tokyo = city_index(&cities, "JP", "Tokyo");
        let p = g.shortest_path(ny, tokyo).unwrap();
        assert_eq!(p.cities.first(), Some(&ny));
        assert_eq!(p.cities.last(), Some(&tokyo));
        assert_eq!(p.cities.len(), p.hops.len() + 1);
    }
}
