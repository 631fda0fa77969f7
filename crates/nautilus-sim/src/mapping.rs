//! The link→cable inference algorithm.

use net_model::{CableId, LinkId};
use serde::{Deserialize, Serialize};
use world::World;

/// Tunables for the mapper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MappingConfig {
    /// Candidates kept per link (the real tool reports a ranked short list).
    pub max_candidates: usize,
    /// Reject candidates whose total route exceeds this multiple of the
    /// endpoint great-circle distance.
    pub max_detour_ratio: f64,
    /// Slack multiplier applied to the latency-implied distance bound
    /// before declaring a cable infeasible (accounts for queueing in the
    /// measured latency).
    pub sol_slack: f64,
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig { max_candidates: 4, max_detour_ratio: 2.6, sol_slack: 1.25 }
    }
}

/// Ranked candidate cables for one IP link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CableMapping {
    pub link: LinkId,
    /// `(cable, confidence)` sorted by descending confidence; confidences
    /// over a link sum to 1 when any candidate survives.
    pub candidates: Vec<(CableId, f64)>,
}

impl CableMapping {
    /// The most likely cable, if any candidate survived validation.
    pub fn best(&self) -> Option<CableId> {
        self.candidates.first().map(|(c, _)| *c)
    }

    /// Confidence assigned to a specific cable (0 if absent).
    pub fn confidence_for(&self, cable: CableId) -> f64 {
        self.candidates.iter().find(|(c, _)| *c == cable).map(|(_, s)| *s).unwrap_or(0.0)
    }
}

/// The full inferred cross-layer map.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MappingTable {
    /// One entry per submarine-suspected link, in link order.
    pub mappings: Vec<CableMapping>,
}

impl MappingTable {
    /// Number of links with at least one candidate.
    pub fn mapped_count(&self) -> usize {
        self.mappings.iter().filter(|m| !m.candidates.is_empty()).count()
    }
}

/// The mapper.
#[derive(Debug, Clone, Default)]
pub struct NautilusMapper {
    config: MappingConfig,
}

impl NautilusMapper {
    pub fn new(config: MappingConfig) -> Self {
        NautilusMapper { config }
    }

    /// Runs the inference over every submarine-suspected link in the world.
    ///
    /// A link is *suspected submarine* when its endpoints sit in different
    /// cities and no plausible terrestrial route explains its latency —
    /// mirroring how the real tool pre-filters (it cannot see the
    /// generator's `Conduit` tag, and neither does this filter).
    pub fn map_world(&self, world: &World) -> MappingTable {
        let mut mappings = Vec::new();
        for link in &world.links {
            if link.a.city == link.b.city {
                continue; // metro link — out of scope
            }
            if !self.suspect_submarine(world, link) {
                continue;
            }
            mappings.push(self.map_link(world, link));
        }
        MappingTable { mappings }
    }

    /// Heuristic pre-filter: endpoints on different landmasses, or a
    /// latency that terrestrial fiber over the direct land route cannot
    /// explain.
    fn suspect_submarine(&self, world: &World, link: &world::IpLink) -> bool {
        let ca = world.city(link.a.city);
        let cb = world.city(link.b.city);
        let sea_separated = landmass(ca.region) != landmass(cb.region)
            || is_island(ca.country.code())
            || is_island(cb.country.code());
        sea_separated
    }

    /// Scores every cable for one link.
    pub fn map_link(&self, world: &World, link: &world::IpLink) -> CableMapping {
        let pa = world.city(link.a.city).location;
        let pb = world.city(link.b.city).location;
        let direct_km = pa.distance_km(&pb).max(50.0);
        // Latency bound: one-way latency → maximum physical route length.
        let implied_km =
            link.latency_ms * net_model::geo::FIBER_SPEED_KM_PER_MS * self.config.sol_slack;

        // The length the measured latency actually implies (no slack):
        // the strongest discriminator between parallel systems that serve
        // the same corridor with slightly different geometry.
        let measured_km = (link.latency_ms - 0.5).max(0.1) * net_model::geo::FIBER_SPEED_KM_PER_MS;

        let mut scored: Vec<(CableId, f64)> = Vec::new();
        for cable in &world.cables {
            if let Some(route_km) = best_route_via_cable(world, cable, link) {
                if route_km > implied_km {
                    continue; // physically impossible given measured latency
                }
                let detour = route_km / direct_km;
                if detour > self.config.max_detour_ratio {
                    continue;
                }
                // Score: latency fit (how well the cable's route length
                // explains the measured latency) over detour, plus a bonus
                // when the cable lands in both endpoint countries.
                let fit = (route_km - measured_km).abs() / measured_km.max(1.0);
                let mut score = (1.0 / detour) * (1.0 / (0.05 + fit));
                let ca = world.city(link.a.city);
                let cb = world.city(link.b.city);
                let lands_a = cable
                    .landings
                    .iter()
                    .any(|&l| world.city(l).country == ca.country);
                let lands_b = cable
                    .landings
                    .iter()
                    .any(|&l| world.city(l).country == cb.country);
                if lands_a {
                    score *= 1.35;
                }
                if lands_b {
                    score *= 1.35;
                }
                scored.push((cable.id, score));
            }
        }

        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        scored.truncate(self.config.max_candidates);
        let total: f64 = scored.iter().map(|(_, s)| s).sum();
        if total > 0.0 {
            for (_, s) in &mut scored {
                *s /= total;
            }
        }
        CableMapping { link: link.id, candidates: scored }
    }
}

/// Shortest plausible route using `cable` for the sea span: approach to the
/// best entry landing (land-detour inflated, like real backhaul), along the
/// cable to the best exit landing, then on to the destination.
///
/// Candidates where the cable itself carries less than 30% of the total
/// route are rejected — a system the packet barely touches cannot be "the"
/// cable a link rides, however well the geometry happens to add up.
/// Returns `None` when the cable has no usable landing pair.
fn best_route_via_cable(
    world: &World,
    cable: &world::Cable,
    link: &world::IpLink,
) -> Option<f64> {
    /// Backhaul from the endpoint city to the landing station is land
    /// fiber; use the same detour factor the conduit model uses.
    const APPROACH_DETOUR: f64 = 1.25;
    /// Minimum share of the route the cable itself must carry.
    const MIN_ALONG_FRACTION: f64 = 0.3;

    let pa = world.city(link.a.city).location;
    let pb = world.city(link.b.city).location;
    let n = cable.landings.len();
    if n < 2 {
        return None;
    }
    // Prefix sums of segment lengths for O(1) span queries.
    let mut prefix = vec![0.0f64; n];
    for (i, seg) in cable.segments.iter().enumerate() {
        prefix[i + 1] = prefix[i] + seg.length_km;
    }
    let mut best: Option<f64> = None;
    for i in 0..n {
        let li = world.city(cable.landings[i]).location;
        let approach_a = pa.distance_km(&li) * APPROACH_DETOUR;
        for j in 0..n {
            if i == j {
                continue;
            }
            let lj = world.city(cable.landings[j]).location;
            let approach_b = pb.distance_km(&lj) * APPROACH_DETOUR;
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            let along = prefix[hi] - prefix[lo];
            let total = approach_a + along + approach_b;
            if along < MIN_ALONG_FRACTION * total {
                continue;
            }
            if best.is_none_or(|b| total < b) {
                best = Some(total);
            }
        }
    }
    best
}

fn is_island(code: &str) -> bool {
    matches!(code, "GB" | "JP" | "TW" | "LK" | "MV" | "ID" | "AU" | "SG" | "HK")
}

fn landmass(region: net_model::Region) -> u8 {
    use net_model::Region;
    match region {
        Region::Europe | Region::Asia | Region::MiddleEast | Region::Africa => 0,
        Region::NorthAmerica => 1,
        Region::SouthAmerica => 2,
        Region::Oceania => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use world::{generate, WorldConfig};

    fn mapped() -> (World, MappingTable) {
        let world = generate(&WorldConfig::default());
        let table = NautilusMapper::new(MappingConfig::default()).map_world(&world);
        (world, table)
    }

    #[test]
    fn confidences_are_normalized() {
        let (_, table) = mapped();
        assert!(table.mapped_count() > 50, "mapped {}", table.mapped_count());
        for m in &table.mappings {
            if !m.candidates.is_empty() {
                let sum: f64 = m.candidates.iter().map(|(_, c)| c).sum();
                assert!((sum - 1.0).abs() < 1e-9, "link {} sums to {sum}", m.link);
                // Sorted descending.
                for w in m.candidates.windows(2) {
                    assert!(w[0].1 >= w[1].1);
                }
            }
        }
    }

    #[test]
    fn ground_truth_cable_is_usually_a_candidate() {
        let (world, table) = mapped();
        let mut hits = 0usize;
        let mut total = 0usize;
        for m in &table.mappings {
            let truth = world.link(m.link).path.cables();
            if truth.is_empty() {
                continue;
            }
            total += 1;
            let candidate_set: Vec<CableId> = m.candidates.iter().map(|(c, _)| *c).collect();
            if truth.iter().any(|t| candidate_set.contains(t)) {
                hits += 1;
            }
        }
        assert!(total > 50);
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.5, "candidate recall {recall:.2}");
    }

    #[test]
    fn sol_validation_rejects_overlong_cables() {
        let (world, _) = mapped();
        // Construct a fake low-latency link between London and New York and
        // confirm that an Asia-Pacific cable can never be a candidate.
        let mapper = NautilusMapper::new(MappingConfig::default());
        let lon = world.cities.iter().find(|c| c.name == "London").unwrap().id;
        let nyc = world.cities.iter().find(|c| c.name == "New York").unwrap().id;
        let link = world::IpLink {
            id: LinkId(9999),
            a: world::LinkEnd { asn: world.ases[0].asn, city: lon, addr: net_model::Ipv4Addr(1) },
            b: world::LinkEnd { asn: world.ases[1].asn, city: nyc, addr: net_model::Ipv4Addr(2) },
            latency_ms: 30.0, // transatlantic one-way
            capacity_gbps: 100.0,
            path: world::PhysicalPath::default(),
            conduit: world::Conduit::Submarine,
        };
        let m = mapper.map_link(&world, &link);
        let apg = world.cable_by_name("Asia Pacific Gateway").unwrap().id;
        assert_eq!(m.confidence_for(apg), 0.0);
        // And a real transatlantic system should rank.
        let marea = world.cable_by_name("MAREA").unwrap().id;
        let tat14 = world.cable_by_name("TAT-14").unwrap().id;
        let grace = world.cable_by_name("Grace Hopper").unwrap().id;
        let dunant = world.cable_by_name("Dunant").unwrap().id;
        let best = m.best().expect("some candidate");
        assert!(
            [marea, tat14, grace, dunant].contains(&best),
            "best {best:?} should be transatlantic"
        );
    }

    #[test]
    fn metro_links_are_skipped() {
        let (world, table) = mapped();
        for m in &table.mappings {
            let l = world.link(m.link);
            assert_ne!(l.a.city, l.b.city);
        }
    }
}
