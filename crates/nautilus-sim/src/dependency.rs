//! Cross-layer dependency tables: which links, ASes and countries depend
//! on each cable system — the data product the Xaminer substrate and the
//! case-study workflows consume.

use std::collections::BTreeMap;

use net_model::{Asn, CableId, Country, LinkId};
use serde::{Deserialize, Serialize};
use world::World;

use crate::mapping::MappingTable;

/// Everything that depends on one cable.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CableDependencies {
    pub cable: CableId,
    /// Dependent IP links, ascending.
    pub links: Vec<LinkId>,
    /// ASes with at least one dependent link, ascending.
    pub ases: Vec<Asn>,
    /// Countries hosting an endpoint of a dependent link, ascending.
    pub countries: Vec<Country>,
}

/// Dependency view over all cables.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DependencyTable {
    entries: BTreeMap<CableId, CableDependencies>,
}

impl DependencyTable {
    /// Builds the table from an *inferred* mapping (confidence-weighted:
    /// a link counts as dependent on every candidate cable whose
    /// confidence is at least `min_confidence`).
    pub fn from_mapping(world: &World, table: &MappingTable, min_confidence: f64) -> Self {
        let mut entries: BTreeMap<CableId, CableDependencies> = BTreeMap::new();
        for m in &table.mappings {
            for (cable, conf) in &m.candidates {
                if *conf < min_confidence {
                    continue;
                }
                let link = world.link(m.link);
                let e = entries.entry(*cable).or_insert_with(|| CableDependencies {
                    cable: *cable,
                    ..Default::default()
                });
                push_link(world, e, link);
            }
        }
        finish(&mut entries);
        DependencyTable { entries }
    }

    /// Builds the table from the generator's ground truth (oracle mode —
    /// used by expert baselines and accuracy evaluation).
    pub fn from_ground_truth(world: &World) -> Self {
        let mut entries: BTreeMap<CableId, CableDependencies> = BTreeMap::new();
        for link in &world.links {
            for cable in link.path.cables() {
                let e = entries.entry(cable).or_insert_with(|| CableDependencies {
                    cable,
                    ..Default::default()
                });
                push_link(world, e, link);
            }
        }
        finish(&mut entries);
        DependencyTable { entries }
    }

    /// Dependencies of one cable (empty if nothing depends on it).
    pub fn for_cable(&self, cable: CableId) -> CableDependencies {
        self.entries.get(&cable).cloned().unwrap_or(CableDependencies {
            cable,
            ..Default::default()
        })
    }

    /// All cables with any dependency, ascending.
    pub fn cables(&self) -> Vec<CableId> {
        self.entries.keys().copied().collect()
    }
}

fn push_link(world: &World, e: &mut CableDependencies, link: &world::IpLink) {
    e.links.push(link.id);
    e.ases.push(link.a.asn);
    e.ases.push(link.b.asn);
    e.countries.push(world.city(link.a.city).country);
    e.countries.push(world.city(link.b.city).country);
}

fn finish(entries: &mut BTreeMap<CableId, CableDependencies>) {
    for e in entries.values_mut() {
        dedup_sorted(&mut e.links);
        dedup_sorted(&mut e.ases);
        dedup_sorted(&mut e.countries);
    }
}

fn dedup_sorted<T: Ord>(v: &mut Vec<T>) {
    v.sort();
    v.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use crate::mapping::{MappingConfig, NautilusMapper};
    use world::{generate, WorldConfig};

    #[test]
    fn ground_truth_table_matches_world() {
        let world = generate(&WorldConfig::default());
        let table = DependencyTable::from_ground_truth(&world);
        let smw5 = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let deps = table.for_cable(smw5);
        let expected = world.links_on_cable(smw5);
        assert_eq!(deps.links, expected);
        assert!(!deps.countries.is_empty());
        assert!(!deps.ases.is_empty());
    }

    #[test]
    fn inferred_table_overlaps_ground_truth() {
        let world = generate(&WorldConfig::default());
        let mapping = NautilusMapper::new(MappingConfig::default()).map_world(&world);
        let inferred = DependencyTable::from_mapping(&world, &mapping, 0.2);
        let truth = DependencyTable::from_ground_truth(&world);
        let smw5 = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let a: BTreeSet<_> = inferred.for_cable(smw5).links.into_iter().collect();
        let b: BTreeSet<_> = truth.for_cable(smw5).links.into_iter().collect();
        assert!(!a.is_empty());
        let inter = a.intersection(&b).count();
        assert!(inter > 0, "inferred and true dependency sets must overlap");
    }

    #[test]
    fn entries_are_sorted_and_deduped() {
        let world = generate(&WorldConfig::default());
        let table = DependencyTable::from_ground_truth(&world);
        for cable in table.cables() {
            let e = table.for_cable(cable);
            for w in e.links.windows(2) {
                assert!(w[0] < w[1]);
            }
            for w in e.countries.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn unknown_cable_has_empty_dependencies() {
        let world = generate(&WorldConfig::default());
        let table = DependencyTable::from_ground_truth(&world);
        let deps = table.for_cable(CableId(9_999));
        assert!(deps.links.is_empty() && deps.ases.is_empty() && deps.countries.is_empty());
    }
}
