//! # world — a deterministic synthetic Internet
//!
//! The ArachNet paper evaluates on real measurement data (submarine-cable
//! maps, BGP dumps, RIPE-Atlas traceroutes). None of that is available
//! offline, so this crate builds the closest synthetic equivalent: a seeded,
//! fully deterministic model of the global Internet with
//!
//! * a **physical layer** — cities, cable landing stations, ~25 curated
//!   submarine cable systems with real-world names and geography (SeaMeWe-5,
//!   AAE-1, FALCON, …, exactly the systems the paper's queries mention),
//!   plus generated regional festoon cables and terrestrial conduits;
//! * a **network layer** — a tiered AS topology (tier-1 backbones, national
//!   transit, access networks, content providers) with customer/provider and
//!   peering relationships, announced prefixes, and IP-layer links whose
//!   *physical path* is computed over the conduit graph (so each IP link
//!   transparently depends on the cables it rides — the cross-layer ground
//!   truth that Nautilus infers and Xaminer analyses);
//! * a **measurement layer** — RIPE-Atlas-style probes with a Europe-heavy
//!   deployment bias;
//! * **scenarios** — timed event injections (cable cuts, earthquakes,
//!   hurricanes, congestion shifts) from which the BGP and traceroute
//!   simulators derive dumps and campaigns.
//!
//! Everything is reproducible from `WorldConfig::seed`; all containers
//! iterate in a canonical order.

pub mod ases;
pub mod cables;
pub mod cities;
pub mod events;
pub mod generator;
pub mod links;
pub mod physical;
pub mod probes;
pub mod scenario;

pub use ases::{AsInfo, AsRelationship, AsTier, RelKind};
pub use cables::{Cable, CableSegment};
pub use cities::City;
pub use events::{Event, EventId, EventKind};
pub use generator::{generate, WorldConfig};
pub use links::{Conduit, IpLink, LinkEnd, PrefixInfo};
pub use physical::{PhysicalGraph, PhysicalPath};
pub use probes::Probe;
pub use scenario::{ControlPlaneState, Scenario};

use std::collections::BTreeMap;

use net_model::{Asn, CableId, CityId, Country, LinkId, PrefixId, ProbeId};

/// The complete synthetic Internet. Indexed by the dense id types from
/// `net-model`; every `Vec` position matches the id's `index()`.
#[derive(Debug, Clone)]
pub struct World {
    /// Seed the world was generated from (`config.seed`, kept as a
    /// direct field because the deterministic failure draws key on it).
    pub seed: u64,
    /// The full configuration the world was generated from — its
    /// content address. Cache keys, scenario specs and blueprint
    /// validation compare this, not just the seed: two configs sharing
    /// a seed still generate structurally different worlds.
    pub config: WorldConfig,
    /// All cities, indexed by [`CityId`].
    pub cities: Vec<City>,
    /// All submarine cables, indexed by [`CableId`].
    pub cables: Vec<Cable>,
    /// Terrestrial conduits between city pairs (undirected).
    pub terrestrial: Vec<physical::TerrestrialEdge>,
    /// All autonomous systems, in ascending ASN order.
    pub ases: Vec<AsInfo>,
    /// AS-level business relationships (undirected records, kind is directed).
    pub relationships: Vec<AsRelationship>,
    /// Announced prefixes, indexed by [`PrefixId`].
    pub prefixes: Vec<PrefixInfo>,
    /// IP-layer links, indexed by [`LinkId`].
    pub links: Vec<IpLink>,
    /// Measurement probes, indexed by [`ProbeId`].
    pub probes: Vec<Probe>,

    /// Lookup tables derived from the layers above at generation time.
    index: WorldIndex,
}

/// Cross-layer index tables. These sit inside the Xaminer impact and
/// toolkit/traceroute hot loops, so they are built once at generation
/// instead of being recomputed by full scans on every lookup.
#[derive(Debug, Clone)]
struct WorldIndex {
    asn_index: BTreeMap<Asn, usize>,
    /// Cable → IP links riding it, ascending [`LinkId`].
    cable_links: Vec<Vec<LinkId>>,
    /// Lowercased cable name → cable (first cable wins on duplicate names).
    cable_name_index: BTreeMap<String, CableId>,
    /// Country → ASNs registered there, ascending.
    country_asns: BTreeMap<Country, Vec<Asn>>,
    /// Unordered AS pair (lower ASN first) → IP links between the pair,
    /// ascending [`LinkId`].
    pair_links: BTreeMap<(Asn, Asn), Vec<LinkId>>,
}

impl WorldIndex {
    /// Derives every index from the layers it covers.
    fn build(cables: &[Cable], ases: &[AsInfo], links: &[IpLink]) -> WorldIndex {
        let asn_index: BTreeMap<Asn, usize> =
            ases.iter().enumerate().map(|(i, a)| (a.asn, i)).collect();
        let mut cable_links: Vec<Vec<LinkId>> = vec![Vec::new(); cables.len()];
        let mut pair_links: BTreeMap<(Asn, Asn), Vec<LinkId>> = BTreeMap::new();
        for link in links {
            for cable in link.path.cables() {
                cable_links[cable.index()].push(link.id);
            }
            pair_links.entry(link.as_pair()).or_default().push(link.id);
        }
        let mut cable_name_index: BTreeMap<String, CableId> = BTreeMap::new();
        for c in cables {
            cable_name_index.entry(c.name.to_ascii_lowercase()).or_insert(c.id);
        }
        let mut country_asns: BTreeMap<Country, Vec<Asn>> = BTreeMap::new();
        for a in ases {
            country_asns.entry(a.country).or_default().push(a.asn);
        }
        WorldIndex { asn_index, cable_links, cable_name_index, country_asns, pair_links }
    }
}

impl World {

    /// Looks up a city.
    pub fn city(&self, id: CityId) -> &City {
        &self.cities[id.index()]
    }

    /// Looks up a cable.
    pub fn cable(&self, id: CableId) -> &Cable {
        &self.cables[id.index()]
    }

    /// Looks up an IP link.
    pub fn link(&self, id: LinkId) -> &IpLink {
        &self.links[id.index()]
    }

    /// Looks up a prefix.
    pub fn prefix(&self, id: PrefixId) -> &PrefixInfo {
        &self.prefixes[id.index()]
    }

    /// Looks up a probe.
    pub fn probe(&self, id: ProbeId) -> &Probe {
        &self.probes[id.index()]
    }

    /// Looks up AS metadata by ASN.
    pub fn as_info(&self, asn: Asn) -> Option<&AsInfo> {
        self.index.asn_index.get(&asn).map(|&i| &self.ases[i])
    }

    /// The dense position of an ASN in [`World::ases`] (ASNs ascending).
    ///
    /// This is the index space the dense routing engine and other
    /// `Vec`-backed per-AS tables share.
    pub fn asn_position(&self, asn: Asn) -> Option<usize> {
        self.index.asn_index.get(&asn).copied()
    }

    /// Finds a cable by (case-insensitive) name. O(log cables) via the
    /// precomputed name index.
    pub fn cable_by_name(&self, name: &str) -> Option<&Cable> {
        let lower = name.to_ascii_lowercase();
        self.index.cable_name_index.get(&lower).map(|&id| self.cable(id))
    }

    /// All IP links whose physical path rides the given cable, ascending.
    ///
    /// This is the cross-layer **ground truth** that the Nautilus substrate
    /// tries to *infer* from geometry and latency. O(k) map hit on the
    /// index precomputed at generation time.
    pub fn links_on_cable(&self, cable: CableId) -> Vec<LinkId> {
        self.index.cable_links[cable.index()].clone()
    }

    /// Borrowed variant of [`World::links_on_cable`] for hot loops that
    /// only iterate.
    pub fn links_on_cable_ref(&self, cable: CableId) -> &[LinkId] {
        &self.index.cable_links[cable.index()]
    }

    /// ASNs registered in a country, ascending. O(k) map hit.
    pub fn asns_in_country(&self, country: Country) -> Vec<Asn> {
        self.index.country_asns.get(&country).cloned().unwrap_or_default()
    }

    /// How many ASes are registered in a country, without materializing
    /// the list — the Xaminer impact denominators use this per row.
    pub fn as_count_in_country(&self, country: Country) -> usize {
        self.index.country_asns.get(&country).map_or(0, |v| v.len())
    }

    /// IP links between an AS pair (order-insensitive), ascending
    /// [`LinkId`]. O(log pairs) — traceroute path resolution uses this
    /// instead of scanning every link per AS hop.
    pub fn links_between(&self, a: Asn, b: Asn) -> &[LinkId] {
        let pair = if a <= b { (a, b) } else { (b, a) };
        self.index.pair_links.get(&pair).map_or(&[], |v| v.as_slice())
    }

    /// The country a prefix geolocates to (origin-AS home country).
    pub fn prefix_country(&self, id: PrefixId) -> Country {
        let p = self.prefix(id);
        self.as_info(p.origin).expect("prefix origin AS exists").country
    }

    /// All cities in a country, in id order.
    pub fn cities_in_country(&self, country: Country) -> Vec<&City> {
        self.cities.iter().filter(|c| c.country == country).collect()
    }

    /// Quick structural sanity check; used by tests and the generator.
    pub fn validate(&self) -> Result<(), String> {
        for (i, c) in self.cities.iter().enumerate() {
            if c.id.index() != i {
                return Err(format!("city {} stored at index {i}", c.id));
            }
        }
        for (i, c) in self.cables.iter().enumerate() {
            if c.id.index() != i {
                return Err(format!("cable {} stored at index {i}", c.id));
            }
            if c.landings.len() < 2 {
                return Err(format!("cable {} has fewer than two landings", c.name));
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.id.index() != i {
                return Err(format!("link {} stored at index {i}", l.id));
            }
            if self.as_info(l.a.asn).is_none() || self.as_info(l.b.asn).is_none() {
                return Err(format!("link {} references unknown AS", l.id));
            }
        }
        for r in &self.relationships {
            if self.as_info(r.a).is_none() || self.as_info(r.b).is_none() {
                return Err("relationship references unknown AS".to_string());
            }
        }
        for p in &self.prefixes {
            if self.as_info(p.origin).is_none() {
                return Err(format!("prefix {} originated by unknown AS", p.net));
            }
        }
        // The precomputed cross-layer indices must agree with full scans.
        let indexed: usize = self.index.cable_links.iter().map(|v| v.len()).sum();
        let scanned: usize = self.links.iter().map(|l| l.path.cables().len()).sum();
        if indexed != scanned {
            return Err(format!("cable-link index covers {indexed} pairs, scan finds {scanned}"));
        }
        let paired: usize = self.index.pair_links.values().map(|v| v.len()).sum();
        if paired != self.links.len() {
            return Err(format!("pair-link index covers {paired}/{} links", self.links.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, WorldConfig};

    #[test]
    fn index_tables_match_full_scans() {
        let w = generate(&WorldConfig::default());
        for cable in &w.cables {
            let scan: Vec<LinkId> = w
                .links
                .iter()
                .filter(|l| l.path.cables().contains(&cable.id))
                .map(|l| l.id)
                .collect();
            assert_eq!(w.links_on_cable(cable.id), scan, "cable {}", cable.name);
            assert_eq!(w.links_on_cable_ref(cable.id), scan.as_slice());
            assert_eq!(w.cable_by_name(&cable.name).map(|c| c.id), Some(cable.id));
            assert_eq!(
                w.cable_by_name(&cable.name.to_ascii_uppercase()).map(|c| c.id),
                Some(cable.id)
            );
        }
        let countries: std::collections::BTreeSet<Country> =
            w.ases.iter().map(|a| a.country).collect();
        for &c in &countries {
            let scan: Vec<Asn> =
                w.ases.iter().filter(|a| a.country == c).map(|a| a.asn).collect();
            assert_eq!(w.asns_in_country(c), scan);
            assert_eq!(w.as_count_in_country(c), scan.len());
        }
        assert!(w.asns_in_country(Country(*b"ZZ")).is_empty());
        assert_eq!(w.as_count_in_country(Country(*b"ZZ")), 0);
    }

    #[test]
    fn pair_link_index_matches_connects_scan() {
        let w = generate(&WorldConfig::default());
        let probe_pairs: Vec<(Asn, Asn)> =
            w.links.iter().take(50).map(|l| l.as_pair()).collect();
        for (a, b) in probe_pairs {
            let scan: Vec<LinkId> =
                w.links.iter().filter(|l| l.connects(a, b)).map(|l| l.id).collect();
            assert_eq!(w.links_between(a, b), scan.as_slice());
            assert_eq!(w.links_between(b, a), scan.as_slice(), "order-insensitive");
        }
        assert!(w.links_between(Asn(1), Asn(2)).is_empty());
    }

    #[test]
    fn asn_position_matches_vec_order() {
        let w = generate(&WorldConfig::default());
        for (i, a) in w.ases.iter().enumerate() {
            assert_eq!(w.asn_position(a.asn), Some(i));
        }
        assert_eq!(w.asn_position(Asn(0)), None);
    }
}
