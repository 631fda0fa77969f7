//! Failure-event processing: from an event description to the concrete set
//! of failed assets and affected entities.
//!
//! The same function handles every event family — full cable failures,
//! single-segment cuts, and probabilistic geo-footprint disasters. Case
//! study 2's point is exactly that this versatility makes cross-framework
//! orchestration unnecessary for multi-disaster analysis.

use std::collections::BTreeSet;

use net_model::{Asn, CableId, Country, LinkId};
use net_model::geo::GeoCircle;
use net_model::hash::{stable_hash, stable_str_hash};
use serde::{Deserialize, Serialize};
use world::events::{fails, DisasterSpec};
use world::World;

use nautilus_sim::DependencyTable;

/// A failure event to analyse (hypothetical or observed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FailureEvent {
    /// Entire cable system fails.
    CableFailure { cable: CableId },
    /// One span fails.
    SegmentFailure { cable: CableId, segment: usize },
    /// A disaster footprint with per-asset failure probability.
    Disaster(DisasterSpec),
    /// Several events at once (evaluated independently, impacts unioned).
    Compound(Vec<FailureEvent>),
}

impl FailureEvent {
    /// Convenience: an earthquake spec.
    pub fn earthquake(name: &str, center: net_model::GeoPoint, radius_km: f64, p: f64) -> Self {
        FailureEvent::Disaster(DisasterSpec::earthquake(name, center, radius_km, p))
    }

    /// Convenience: a hurricane spec.
    pub fn hurricane(name: &str, center: net_model::GeoPoint, radius_km: f64, p: f64) -> Self {
        FailureEvent::Disaster(DisasterSpec::hurricane(name, center, radius_km, p))
    }
}

/// The concrete impact of a processed event.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FailureImpact {
    /// Failed cable segments, `(cable, segment)` ascending.
    pub failed_segments: Vec<(CableId, usize)>,
    /// Failed IP links, ascending.
    pub failed_links: Vec<LinkId>,
    /// ASes with at least one failed link, ascending.
    pub affected_ases: Vec<Asn>,
    /// Countries hosting at least one failed link endpoint, ascending.
    pub affected_countries: Vec<Country>,
}

impl FailureImpact {
    /// Unions another impact into this one.
    pub fn merge(&mut self, other: FailureImpact) {
        merge_sorted(&mut self.failed_segments, other.failed_segments);
        merge_sorted(&mut self.failed_links, other.failed_links);
        merge_sorted(&mut self.affected_ases, other.affected_ases);
        merge_sorted(&mut self.affected_countries, other.affected_countries);
    }

    /// Whether nothing failed.
    pub fn is_empty(&self) -> bool {
        self.failed_links.is_empty() && self.failed_segments.is_empty()
    }
}

fn merge_sorted<T: Ord>(dst: &mut Vec<T>, src: Vec<T>) {
    dst.extend(src);
    dst.sort();
    dst.dedup();
}

/// Processes one event against a dependency table.
///
/// The dependency table decides which links a failed segment takes down:
/// with an oracle table this is exact; with an inferred (Nautilus) table
/// the analysis inherits the mapper's uncertainty, exactly as in the real
/// tool stack.
pub fn process_event(
    world: &World,
    deps: &DependencyTable,
    event: &FailureEvent,
) -> FailureImpact {
    match event {
        FailureEvent::CableFailure { cable } => {
            let n = world.cable(*cable).segments.len();
            let segments: Vec<(CableId, usize)> = (0..n).map(|s| (*cable, s)).collect();
            impact_of_segments(world, deps, &segments)
        }
        FailureEvent::SegmentFailure { cable, segment } => {
            impact_of_segments(world, deps, &[(*cable, *segment)])
        }
        FailureEvent::Disaster(spec) => {
            let segments = disaster_segments(world, spec);
            impact_of_segments(world, deps, &segments)
        }
        FailureEvent::Compound(events) => {
            let mut total = FailureImpact::default();
            for e in events {
                total.merge(process_event(world, deps, e));
            }
            total
        }
    }
}

/// Which segments a disaster footprint fails, via the same deterministic
/// Bernoulli draws the scenario machinery uses (event identity is derived
/// from the spec's name so distinct disasters draw independently).
pub fn disaster_segments(world: &World, spec: &DisasterSpec) -> Vec<(CableId, usize)> {
    let event_id = stable_hash(&[stable_str_hash(&spec.name), stable_str_hash(&spec.kind)]);
    let mut out = Vec::new();
    for cable in &world.cables {
        for (si, seg) in cable.segments.iter().enumerate() {
            if segment_exposed(world, &spec.footprint, seg) {
                let asset = ((cable.id.0 as u64) << 16) | si as u64;
                if fails(world.seed, event_id, asset, spec.failure_prob) {
                    out.push((cable.id, si));
                }
            }
        }
    }
    out
}

fn segment_exposed(world: &World, footprint: &GeoCircle, seg: &world::CableSegment) -> bool {
    let pa = world.city(seg.a).location;
    let pb = world.city(seg.b).location;
    footprint.contains(&pa) || footprint.contains(&pb)
}

/// Computes the downstream impact of a set of failed segments using the
/// dependency table's cable→link view filtered to links that actually ride
/// one of the failed segments (per the table's granularity).
fn impact_of_segments(
    world: &World,
    deps: &DependencyTable,
    segments: &[(CableId, usize)],
) -> FailureImpact {
    let seg_set: BTreeSet<(CableId, usize)> = segments.iter().copied().collect();
    let cables: BTreeSet<CableId> = segments.iter().map(|(c, _)| *c).collect();

    let mut failed_links: BTreeSet<LinkId> = BTreeSet::new();
    for cable in &cables {
        // Full-cable failure: every dependent link. Partial: only the links
        // the dependency table attributes to this cable AND whose ground
        // path (if the table is oracle) or whose candidacy (if inferred)
        // crosses a failed segment. The table abstracts that detail away;
        // we filter with the world's segment endpoints as the best
        // available evidence: a dependent link fails if any failed segment
        // belongs to the cable and the cable's failed span count is
        // non-zero. For single-segment events we additionally require the
        // link's endpoints to straddle the failed span side.
        let all_failed = (0..world.cable(*cable).segments.len())
            .all(|s| seg_set.contains(&(*cable, s)));
        for l in deps.for_cable(*cable).links {
            if all_failed {
                failed_links.insert(l);
                continue;
            }
            // Partial failure: consult the link's physical path when
            // available (oracle-grade data); otherwise fail it with the
            // cable (conservative).
            let link = world.link(l);
            let rides_failed = link
                .path
                .hops
                .iter()
                .any(|h| match h {
                    world::physical::PathHop::Cable { cable: c, segment, .. } => {
                        seg_set.contains(&(*c, *segment))
                    }
                    _ => false,
                });
            let path_known = !link.path.cables().is_empty();
            if rides_failed || !path_known {
                failed_links.insert(l);
            }
        }
    }

    let mut ases: BTreeSet<Asn> = BTreeSet::new();
    let mut countries: BTreeSet<Country> = BTreeSet::new();
    for &l in &failed_links {
        let link = world.link(l);
        ases.insert(link.a.asn);
        ases.insert(link.b.asn);
        countries.insert(world.city(link.a.city).country);
        countries.insert(world.city(link.b.city).country);
    }

    FailureImpact {
        failed_segments: seg_set.into_iter().collect(),
        failed_links: failed_links.into_iter().collect(),
        affected_ases: ases.into_iter().collect(),
        affected_countries: countries.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::GeoPoint;
    use world::{generate, WorldConfig};

    fn fixture() -> World {
        generate(&WorldConfig::default())
    }

    #[test]
    fn cable_failure_matches_ground_truth_links() {
        let world = fixture();
        let deps = DependencyTable::from_ground_truth(&world);
        let cable = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let impact = process_event(&world, &deps, &FailureEvent::CableFailure { cable });
        assert_eq!(impact.failed_links, world.links_on_cable(cable));
        assert!(!impact.affected_countries.is_empty());
    }

    #[test]
    fn segment_failure_is_subset_of_cable_failure() {
        let world = fixture();
        let deps = DependencyTable::from_ground_truth(&world);
        let cable = world.cable_by_name("AAE-1").unwrap().id;
        let full = process_event(&world, &deps, &FailureEvent::CableFailure { cable });
        let seg = process_event(&world, &deps, &FailureEvent::SegmentFailure { cable, segment: 2 });
        for l in &seg.failed_links {
            assert!(full.failed_links.contains(l));
        }
    }

    #[test]
    fn disaster_probability_zero_fails_nothing() {
        let world = fixture();
        let deps = DependencyTable::from_ground_truth(&world);
        let ev = FailureEvent::earthquake("Test", GeoPoint::of(31.2, 29.9), 500.0, 0.0);
        assert!(process_event(&world, &deps, &ev).is_empty());
    }

    #[test]
    fn disaster_probability_one_fails_every_exposed_segment() {
        let world = fixture();
        let deps = DependencyTable::from_ground_truth(&world);
        let ev = FailureEvent::earthquake("Big", GeoPoint::of(31.2, 29.9), 500.0, 1.0);
        let impact = process_event(&world, &deps, &ev);
        assert!(!impact.is_empty(), "Alexandria quake at p=1 must fail something");
        // Every Europe–Asia trunk lands at Alexandria, so several cables
        // must be hit.
        let cables: BTreeSet<CableId> =
            impact.failed_segments.iter().map(|(c, _)| *c).collect();
        assert!(cables.len() >= 3, "cables hit: {}", cables.len());
    }

    #[test]
    fn compound_event_unions_impacts() {
        let world = fixture();
        let deps = DependencyTable::from_ground_truth(&world);
        let a = world.cable_by_name("SeaMeWe-5").unwrap().id;
        let b = world.cable_by_name("AAE-1").unwrap().id;
        let ia = process_event(&world, &deps, &FailureEvent::CableFailure { cable: a });
        let ib = process_event(&world, &deps, &FailureEvent::CableFailure { cable: b });
        let both = process_event(
            &world,
            &deps,
            &FailureEvent::Compound(vec![
                FailureEvent::CableFailure { cable: a },
                FailureEvent::CableFailure { cable: b },
            ]),
        );
        for l in ia.failed_links.iter().chain(&ib.failed_links) {
            assert!(both.failed_links.contains(l));
        }
        assert!(both.failed_links.len() <= ia.failed_links.len() + ib.failed_links.len());
    }

    #[test]
    fn disaster_draws_are_deterministic_and_name_dependent() {
        let world = fixture();
        let spec1 = DisasterSpec::earthquake("Q1", GeoPoint::of(31.2, 29.9), 500.0, 0.5);
        let spec2 = DisasterSpec::earthquake("Q2", GeoPoint::of(31.2, 29.9), 500.0, 0.5);
        let s1a = disaster_segments(&world, &spec1);
        let s1b = disaster_segments(&world, &spec1);
        let s2 = disaster_segments(&world, &spec2);
        assert_eq!(s1a, s1b);
        assert_ne!(s1a, s2, "different disasters should draw independently");
    }
}
