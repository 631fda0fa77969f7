//! Control-plane incident impact: who is misdirected by a prefix hijack,
//! whose best paths a route leak drags through the leaker.
//!
//! Physical failure events break links and the [`crate::event`] path
//! counts what fell over. Control-plane incidents break *routing policy*
//! while every link stays up, so their impact is computed on the BGP
//! substrate instead: valley-free route selections (with the incident's
//! [`bgp_sim::PolicyOverrides`] applied where relevant) over the world's
//! quiet topology, compared with the clean baseline. Only the
//! destinations an incident reads are swept, one at a time on the
//! caller's thread ([`bgp_sim::routing::SelectionSweep`]): a hijack's two
//! origins, or every destination once for a leak (one leaked sweep yields
//! the clean selection it starts from as well).

use std::collections::BTreeMap;

use net_model::{Asn, Country, Ipv4Net};
use serde::{Deserialize, Serialize};
use world::World;

use bgp_sim::routing::{SelectionKey, SelectionSweep};
use bgp_sim::{AsGraph, PolicyOverrides};

/// A control-plane incident to assess (hypothetical or observed).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlPlaneIncident {
    /// `origin` announces `victim_prefix` it does not own.
    PrefixHijack { origin: Asn, victim_prefix: Ipv4Net },
    /// `leaker` re-exports its best routes to every neighbour.
    RouteLeak { leaker: Asn },
}

impl ControlPlaneIncident {
    /// Short classifier used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ControlPlaneIncident::PrefixHijack { .. } => "prefix-hijack",
            ControlPlaneIncident::RouteLeak { .. } => "route-leak",
        }
    }

    /// The AS responsible for the incident.
    pub fn offender(&self) -> Asn {
        match self {
            ControlPlaneIncident::PrefixHijack { origin, .. } => *origin,
            ControlPlaneIncident::RouteLeak { leaker } => *leaker,
        }
    }
}

/// The assessed impact of one control-plane incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlPlaneImpact {
    /// `"prefix-hijack"` / `"route-leak"`.
    pub kind: String,
    pub offender: Asn,
    /// Hijack: ASes whose best route for the victim prefix lands at the
    /// bogus origin (the hijack's capture cone). Leak: ASes whose best
    /// route to at least one destination changed. Ascending.
    pub affected_ases: Vec<Asn>,
    /// Registration countries of the affected ASes, ascending.
    pub affected_countries: Vec<Country>,
    /// `affected_ases` over the world's AS count, `[0, 1]`.
    pub affected_fraction: f64,
}

/// The quiet-topology AS graph (every IP link up) — the reference
/// topology control-plane incidents are assessed against.
pub fn quiet_graph(world: &World) -> AsGraph {
    AsGraph::from_relationships(
        world.ases.iter().map(|a| a.asn).collect(),
        world.relationships.iter().map(|r| (r.a, r.b, r.kind)),
    )
}

/// Assesses one incident against the world's quiet topology.
pub fn assess(world: &World, incident: &ControlPlaneIncident) -> ControlPlaneImpact {
    assess_with(world, &mut Assessor::new(world), incident)
}

/// Assesses several incidents over one quiet graph and one sweep buffer.
/// A destination several hijacks read (a hijack report can name several
/// victim prefixes of one offender) is swept once; no routing table is
/// built and no thread is spawned.
pub fn assess_many(world: &World, incidents: &[ControlPlaneIncident]) -> Vec<ControlPlaneImpact> {
    let mut assessor = Assessor::new(world);
    incidents.iter().map(|i| assess_with(world, &mut assessor, i)).collect()
}

/// One incident against a shared [`Assessor`].
fn assess_with(
    world: &World,
    assessor: &mut Assessor,
    incident: &ControlPlaneIncident,
) -> ControlPlaneImpact {
    let affected_ases = match incident {
        ControlPlaneIncident::PrefixHijack { origin, victim_prefix } => {
            match legit_origin(world, victim_prefix) {
                None => Vec::new(), // unknown prefix: nothing to capture
                Some(legit) if legit == *origin => Vec::new(),
                Some(legit) => assessor.capture_cone(*origin, legit),
            }
        }
        ControlPlaneIncident::RouteLeak { leaker } => assessor.leak_shift(*leaker),
    };
    impact(world, incident, affected_ases)
}

/// The registered origin of `prefix`, if the world announces it.
fn legit_origin(world: &World, prefix: &Ipv4Net) -> Option<Asn> {
    world.prefixes.iter().find(|p| p.net == *prefix).map(|p| p.origin)
}

/// The report of one incident, given the ASes it affects.
fn impact(
    world: &World,
    incident: &ControlPlaneIncident,
    affected_ases: Vec<Asn>,
) -> ControlPlaneImpact {
    let mut affected_countries: Vec<Country> = affected_ases
        .iter()
        .filter_map(|&a| world.as_info(a).map(|i| i.country))
        .collect();
    affected_countries.sort();
    affected_countries.dedup();

    let affected_fraction = if world.ases.is_empty() {
        0.0
    } else {
        affected_ases.len() as f64 / world.ases.len() as f64
    };

    ControlPlaneImpact {
        kind: incident.label().to_string(),
        offender: incident.offender(),
        affected_ases,
        affected_countries,
        affected_fraction,
    }
}

/// The quiet graph, the ASes assessed (holders, also the leak's
/// destinations) and the baseline selections swept so far.
struct Assessor {
    graph: AsGraph,
    /// In report order.
    holders: Vec<Asn>,
    sweep: SelectionSweep,
    /// Destination → its baseline keys in `keys`, by dense holder index.
    swept: BTreeMap<Asn, usize>,
    keys: Vec<Vec<SelectionKey>>,
}

impl Assessor {
    fn new(world: &World) -> Assessor {
        Assessor::for_graph(quiet_graph(world), world.ases.iter().map(|a| a.asn).collect())
    }

    fn for_graph(graph: AsGraph, holders: Vec<Asn>) -> Assessor {
        Assessor {
            graph,
            holders,
            sweep: SelectionSweep::default(),
            swept: BTreeMap::new(),
            keys: Vec::new(),
        }
    }

    /// Where the baseline keys towards `dst` sit in `keys`; the first
    /// call for a destination sweeps it.
    fn baseline(&mut self, dst: Asn) -> usize {
        let Assessor { graph, sweep, keys, .. } = self;
        *self.swept.entry(dst).or_insert_with(|| {
            keys.push(sweep.selections(graph, dst, &PolicyOverrides::none()).collect());
            keys.len() - 1
        })
    }

    /// The holders whose route selection prefers the bogus `origin` over
    /// the prefix's `legit` origin — the hijack's capture cone,
    /// arbitrated exactly as the RIB capture arbitrates MOAS candidates.
    fn capture_cone(&mut self, origin: Asn, legit: Asn) -> Vec<Asn> {
        let (b, r) = (self.baseline(origin), self.baseline(legit));
        let captured: Vec<bool> = self.keys[b]
            .iter()
            .zip(&self.keys[r])
            .map(|(bogus, real)| match (bogus.map(|k| (k, origin)), real.map(|k| (k, legit))) {
                (Some(b), Some(r)) => b < r,
                (Some(_), None) => true,
                _ => false,
            })
            .collect();
        self.pick(&captured)
    }

    /// The holders whose best route to at least one destination changes
    /// when `leaker` leaks: per destination, one leaked sweep's pre-leak
    /// and final selections, compared holder by holder.
    fn leak_shift(&mut self, leaker: Asn) -> Vec<Asn> {
        let leaking = PolicyOverrides::leaking([leaker]);
        let mut moved = vec![false; self.graph.node_count()];
        for &dst in &self.holders {
            let pairs = self.sweep.leak_selections(&self.graph, dst, &leaking);
            for (m, (clean, leaked)) in moved.iter_mut().zip(pairs) {
                *m |= clean != leaked;
            }
        }
        self.pick(&moved)
    }

    /// The holders whose dense index is flagged, in report order.
    fn pick(&self, flagged: &[bool]) -> Vec<Asn> {
        self.holders
            .iter()
            .copied()
            .filter(|&u| self.graph.index_of(u).is_some_and(|i| flagged[i]))
            .collect()
    }
}

/// The full-table assessment the sweeps replaced — an all-destination
/// baseline table, plus a leaked one per leak, the leaked one sharded
/// over two workers — kept as the oracle the tests compare against.
#[cfg(test)]
mod reference {
    use bgp_sim::RoutingTable;

    use super::*;

    pub fn assess_many(
        world: &World,
        incidents: &[ControlPlaneIncident],
    ) -> Vec<ControlPlaneImpact> {
        let graph = quiet_graph(world);
        let base = RoutingTable::compute(&graph, world);
        let holders: Vec<Asn> = world.ases.iter().map(|a| a.asn).collect();
        incidents
            .iter()
            .map(|incident| {
                let affected_ases = match incident {
                    ControlPlaneIncident::PrefixHijack { origin, victim_prefix } => {
                        match legit_origin(world, victim_prefix) {
                            None => Vec::new(),
                            Some(legit) if legit == *origin => Vec::new(),
                            Some(legit) => capture_cone(&base, &holders, *origin, legit),
                        }
                    }
                    ControlPlaneIncident::RouteLeak { leaker } => {
                        leak_shift(&graph, &base, &holders, *leaker)
                    }
                };
                impact(world, incident, affected_ases)
            })
            .collect()
    }

    pub fn capture_cone(base: &RoutingTable, holders: &[Asn], origin: Asn, legit: Asn) -> Vec<Asn> {
        holders
            .iter()
            .copied()
            .filter(|&u| {
                let bogus = base.selection(u, origin).map(|k| (k, origin));
                let real = base.selection(u, legit).map(|k| (k, legit));
                match (bogus, real) {
                    (Some(b), Some(r)) => b < r,
                    (Some(_), None) => true,
                    _ => false,
                }
            })
            .collect()
    }

    pub fn leak_shift(
        graph: &AsGraph,
        base: &RoutingTable,
        holders: &[Asn],
        leaker: Asn,
    ) -> Vec<Asn> {
        let leaked = RoutingTable::compute_for_graph(graph, &PolicyOverrides::leaking([leaker]));
        holders
            .iter()
            .copied()
            .filter(|&src| {
                holders.iter().any(|&d| base.selection(src, d) != leaked.selection(src, d))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use bgp_sim::RoutingTable;
    use proptest::prelude::*;
    use scenario_forge::{Family, FamilyParams, WorldCache};
    use world::{generate, EventKind, RelKind, WorldConfig};

    use super::*;

    fn fixture() -> World {
        generate(&WorldConfig::default())
    }

    #[test]
    fn hijack_capture_cone_is_nonempty_and_excludes_victimless_cases() {
        let world = fixture();
        let victim = world.prefixes[0];
        let hijacker =
            world.ases.iter().map(|a| a.asn).find(|&a| a != victim.origin).unwrap();
        let impact = assess(
            &world,
            &ControlPlaneIncident::PrefixHijack {
                origin: hijacker,
                victim_prefix: victim.net,
            },
        );
        assert_eq!(impact.kind, "prefix-hijack");
        assert_eq!(impact.offender, hijacker);
        assert!(!impact.affected_ases.is_empty(), "the hijacker captures at least itself");
        assert!(impact.affected_ases.contains(&hijacker));
        assert!(!impact.affected_ases.contains(&victim.origin));
        assert!((0.0..=1.0).contains(&impact.affected_fraction));
        assert!(!impact.affected_countries.is_empty());

        // Hijacking an unknown prefix captures nothing.
        let nothing = assess(
            &world,
            &ControlPlaneIncident::PrefixHijack {
                origin: hijacker,
                victim_prefix: net_model::Ipv4Net::parse("203.0.113.0/24").unwrap(),
            },
        );
        assert!(nothing.affected_ases.is_empty());
    }

    #[test]
    fn leak_impact_matches_routing_diff() {
        let world = fixture();
        let graph = quiet_graph(&world);
        let leaker = world
            .ases
            .iter()
            .map(|a| a.asn)
            .find(|&a| graph.providers(a).len() >= 2)
            .expect("multi-homed AS");
        let impact = assess(&world, &ControlPlaneIncident::RouteLeak { leaker });
        assert_eq!(impact.kind, "route-leak");
        assert!(!impact.affected_ases.is_empty(), "a multi-homed leak moves paths");
        assert!(impact.affected_fraction > 0.0);
    }

    type ImpactBits<'a> = (&'a str, Asn, &'a [Asn], &'a [Country], u64);

    /// Every field of each impact, the fraction by bit pattern.
    fn impact_bits(impacts: &[ControlPlaneImpact]) -> Vec<ImpactBits<'_>> {
        impacts
            .iter()
            .map(|i| {
                let (ases, countries) = (&i.affected_ases[..], &i.affected_countries[..]);
                (i.kind.as_str(), i.offender, ases, countries, i.affected_fraction.to_bits())
            })
            .collect()
    }

    #[test]
    fn sweeps_match_the_full_table_on_every_hijack_and_leak_family_world() {
        let cache = WorldCache::new();
        let params = FamilyParams::default();
        for family in [Family::TargetedPrefixHijack, Family::AccidentalTransitLeak] {
            for bp in family.expand(&params) {
                let scenario = bp.forge(&cache);
                let world = &*scenario.world;
                let graph = quiet_graph(world);
                // The blueprint's own incidents, then a spread of others:
                // hijacks of several prefixes by one offender (one call,
                // so swept destinations are shared), an unknown prefix, a
                // self-hijack, and multi-homed and single-homed leakers.
                let mut incidents: Vec<ControlPlaneIncident> = scenario
                    .events
                    .iter()
                    .filter_map(|e| match e.kind {
                        EventKind::PrefixHijack { origin, victim_prefix } => {
                            Some(ControlPlaneIncident::PrefixHijack { origin, victim_prefix })
                        }
                        EventKind::RouteLeak { leaker } => {
                            Some(ControlPlaneIncident::RouteLeak { leaker })
                        }
                        _ => None,
                    })
                    .collect();
                assert!(!incidents.is_empty(), "{} carries a control-plane incident", bp.name);
                let offender = incidents[0].offender();
                incidents.extend(world.prefixes.iter().step_by(37).map(|p| {
                    ControlPlaneIncident::PrefixHijack { origin: offender, victim_prefix: p.net }
                }));
                let own = world.prefixes[5];
                incidents.push(ControlPlaneIncident::PrefixHijack {
                    origin: own.origin,
                    victim_prefix: own.net,
                });
                incidents.push(ControlPlaneIncident::PrefixHijack {
                    origin: offender,
                    victim_prefix: net_model::Ipv4Net::parse("203.0.113.0/24").unwrap(),
                });
                let multi = world.ases.iter().find(|a| graph.providers(a.asn).len() >= 2);
                let single = world.ases.iter().find(|a| graph.providers(a.asn).len() == 1);
                incidents.extend(
                    multi
                        .into_iter()
                        .chain(single)
                        .map(|a| ControlPlaneIncident::RouteLeak { leaker: a.asn }),
                );
                assert_eq!(
                    impact_bits(&assess_many(world, &incidents)),
                    impact_bits(&reference::assess_many(world, &incidents)),
                    "{}",
                    bp.name
                );
            }
        }
    }

    /// A random small relationship graph (the shape `dense_equivalence`
    /// draws): every non-top node buys transit from a lower-indexed one,
    /// plus random provider and peer edges.
    fn arbitrary_graph() -> impl Strategy<Value = (Vec<Asn>, Vec<(Asn, Asn, RelKind)>)> {
        (4usize..24, proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 0..64))
            .prop_map(|(n, raw_edges)| {
                let asns: Vec<Asn> = (0..n).map(|i| Asn(100 + i as u32 * 7)).collect();
                let mut edges: Vec<(Asn, Asn, RelKind)> = Vec::new();
                for i in 1..n {
                    edges.push((asns[(i * 13 + 5) % i], asns[i], RelKind::ProviderCustomer));
                }
                for (a, b, k) in raw_edges {
                    let (a, b) = (a as usize % n, b as usize % n);
                    if a != b {
                        let kind =
                            if k % 3 == 0 { RelKind::Peer } else { RelKind::ProviderCustomer };
                        edges.push((asns[a], asns[b], kind));
                    }
                }
                (asns, edges)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On random graphs, with an AS outside the graph among the
        /// holders, capture cones and leak shifts equal the full-table
        /// oracle's for random origins and leakers.
        #[test]
        fn sweeps_match_the_full_table_on_arbitrary_graphs(
            spec in arbitrary_graph(),
            picks in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..4),
        ) {
            let (asns, edges) = spec;
            let pick = |p: u16| asns[p as usize % asns.len()];
            let graph = AsGraph::from_relationships(asns.clone(), edges);
            let base = RoutingTable::compute_for_graph(&graph, &PolicyOverrides::none());
            let mut holders = asns.clone();
            holders.push(Asn(1));
            let mut assessor = Assessor::for_graph(graph.clone(), holders.clone());
            for &(a, b) in &picks {
                let (origin, legit) = (pick(a), pick(b));
                prop_assert_eq!(
                    assessor.capture_cone(origin, legit),
                    reference::capture_cone(&base, &holders, origin, legit)
                );
                prop_assert_eq!(
                    assessor.leak_shift(origin),
                    reference::leak_shift(&graph, &base, &holders, origin)
                );
            }
        }
    }
}
