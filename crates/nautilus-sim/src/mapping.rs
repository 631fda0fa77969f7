//! The link→cable inference algorithm.

use std::collections::BTreeMap;

use net_model::{CableId, CityId, LinkId};
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
    ///
    /// How well a cable fits a link depends only on the link's endpoint
    /// cities, and hundreds of suspected links share a few dozen city
    /// pairs. So the run builds the world's geometry once and one fit per
    /// ordered city pair; per link only the latency and detour filters and
    /// the score remain.
    pub fn map_world(&self, world: &World) -> MappingTable {
        let geometry = Geometry::new(world);
        let mut fits: BTreeMap<(CityId, CityId), Vec<Option<CableFit>>> = BTreeMap::new();
        let mut mappings = Vec::new();
        for link in &world.links {
            if link.a.city == link.b.city {
                continue; // metro link — out of scope
            }
            if !self.suspect_submarine(world, link) {
                continue;
            }
            let fits = fits
                .entry((link.a.city, link.b.city))
                .or_insert_with(|| geometry.fits(link.a.city, link.b.city));
            mappings.push(self.score(&geometry, link, fits));
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
        let geometry = Geometry::new(world);
        let fits = geometry.fits(link.a.city, link.b.city);
        self.score(&geometry, link, &fits)
    }

    /// Ranks the cables whose fit for the link's city pair (`fits`, one
    /// per cable in world order) survives the link's latency and detour
    /// filters.
    fn score(
        &self,
        geometry: &Geometry<'_>,
        link: &world::IpLink,
        fits: &[Option<CableFit>],
    ) -> CableMapping {
        let direct_km = geometry.distance_km(link.a.city, link.b.city).max(50.0);
        // Latency bound: one-way latency → maximum physical route length.
        let implied_km =
            link.latency_ms * net_model::geo::FIBER_SPEED_KM_PER_MS * self.config.sol_slack;

        // The length the measured latency actually implies (no slack):
        // the strongest discriminator between parallel systems that serve
        // the same corridor with slightly different geometry.
        let measured_km = (link.latency_ms - 0.5).max(0.1) * net_model::geo::FIBER_SPEED_KM_PER_MS;

        let mut scored: Vec<(CableId, f64)> = Vec::new();
        for (cable, fit) in geometry.world.cables.iter().zip(fits) {
            let Some(CableFit { route_km, lands_a, lands_b }) = *fit else { continue };
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
            if lands_a {
                score *= 1.35;
            }
            if lands_b {
                score *= 1.35;
            }
            scored.push((cable.id, score));
        }

        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
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

/// How one cable fits the links between one ordered pair of cities: the
/// shortest plausible route through it, and whether it lands in each
/// endpoint's country.
#[derive(Debug, Clone, Copy)]
struct CableFit {
    route_km: f64,
    lands_a: bool,
    lands_b: bool,
}

/// The world geometry one mapping run shares across links: the
/// great-circle distance between every two cities and the landing prefix
/// sums of every cable.
struct Geometry<'w> {
    world: &'w World,
    /// `distance[from * cities + to]` is `from.distance_km(to)`, called
    /// in that argument order, so each entry is bit-equal to the direct
    /// call the per-link scorer made.
    distance: Vec<f64>,
    /// Per cable, the cable length from its first landing to each landing.
    prefix: Vec<Vec<f64>>,
}

impl<'w> Geometry<'w> {
    fn new(world: &'w World) -> Geometry<'w> {
        let distance = world
            .cities
            .iter()
            .flat_map(|from| {
                world.cities.iter().map(|to| from.location.distance_km(&to.location))
            })
            .collect();
        let prefix = world
            .cables
            .iter()
            .map(|cable| {
                let n = cable.landings.len();
                if n < 2 {
                    return Vec::new();
                }
                let mut prefix = vec![0.0f64; n];
                for (i, seg) in cable.segments.iter().enumerate() {
                    prefix[i + 1] = prefix[i] + seg.length_km;
                }
                prefix
            })
            .collect();
        Geometry { world, distance, prefix }
    }

    fn distance_km(&self, from: CityId, to: CityId) -> f64 {
        self.distance[from.index() * self.world.cities.len() + to.index()]
    }

    /// Every cable's fit for links from city `a` to city `b`, in world
    /// cable order.
    fn fits(&self, a: CityId, b: CityId) -> Vec<Option<CableFit>> {
        let (ca, cb) = (self.world.city(a).country, self.world.city(b).country);
        self.world
            .cables
            .iter()
            .zip(&self.prefix)
            .map(|(cable, prefix)| {
                let route_km = self.best_route_km(cable, prefix, a, b)?;
                let lands = |country| {
                    cable.landings.iter().any(|&l| self.world.city(l).country == country)
                };
                Some(CableFit { route_km, lands_a: lands(ca), lands_b: lands(cb) })
            })
            .collect()
    }

    /// Shortest plausible route from `a` to `b` using `cable` for the sea
    /// span: approach to the best entry landing (land-detour inflated,
    /// like real backhaul), along the cable to the best exit landing, then
    /// on to the destination.
    ///
    /// Candidates where the cable itself carries less than 30% of the
    /// total route are rejected — a system the packet barely touches
    /// cannot be "the" cable a link rides, however well the geometry
    /// happens to add up. Returns `None` when the cable has no usable
    /// landing pair.
    fn best_route_km(
        &self,
        cable: &world::Cable,
        prefix: &[f64],
        a: CityId,
        b: CityId,
    ) -> Option<f64> {
        /// Backhaul from the endpoint city to the landing station is land
        /// fiber; use the same detour factor the conduit model uses.
        const APPROACH_DETOUR: f64 = 1.25;
        /// Minimum share of the route the cable itself must carry.
        const MIN_ALONG_FRACTION: f64 = 0.3;

        let n = cable.landings.len();
        if n < 2 {
            return None;
        }
        let mut best: Option<f64> = None;
        for i in 0..n {
            let approach_a = self.distance_km(a, cable.landings[i]) * APPROACH_DETOUR;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let approach_b = self.distance_km(b, cable.landings[j]) * APPROACH_DETOUR;
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

/// The per-link scorer [`NautilusMapper::map_world`] replaced, kept as its
/// oracle: every link recomputes every cable's route from scratch.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn map_world(mapper: &NautilusMapper, world: &World) -> MappingTable {
        let mut mappings = Vec::new();
        for link in &world.links {
            if link.a.city == link.b.city {
                continue;
            }
            if !mapper.suspect_submarine(world, link) {
                continue;
            }
            mappings.push(map_link(&mapper.config, world, link));
        }
        MappingTable { mappings }
    }

    fn map_link(config: &MappingConfig, world: &World, link: &world::IpLink) -> CableMapping {
        let pa = world.city(link.a.city).location;
        let pb = world.city(link.b.city).location;
        let direct_km = pa.distance_km(&pb).max(50.0);
        let implied_km =
            link.latency_ms * net_model::geo::FIBER_SPEED_KM_PER_MS * config.sol_slack;
        let measured_km = (link.latency_ms - 0.5).max(0.1) * net_model::geo::FIBER_SPEED_KM_PER_MS;

        let mut scored: Vec<(CableId, f64)> = Vec::new();
        for cable in &world.cables {
            if let Some(route_km) = best_route_via_cable(world, cable, link) {
                if route_km > implied_km {
                    continue;
                }
                let detour = route_km / direct_km;
                if detour > config.max_detour_ratio {
                    continue;
                }
                let fit = (route_km - measured_km).abs() / measured_km.max(1.0);
                let mut score = (1.0 / detour) * (1.0 / (0.05 + fit));
                let ca = world.city(link.a.city);
                let cb = world.city(link.b.city);
                let lands_a = cable.landings.iter().any(|&l| world.city(l).country == ca.country);
                let lands_b = cable.landings.iter().any(|&l| world.city(l).country == cb.country);
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
        scored.truncate(config.max_candidates);
        let total: f64 = scored.iter().map(|(_, s)| s).sum();
        if total > 0.0 {
            for (_, s) in &mut scored {
                *s /= total;
            }
        }
        CableMapping { link: link.id, candidates: scored }
    }

    fn best_route_via_cable(
        world: &World,
        cable: &world::Cable,
        link: &world::IpLink,
    ) -> Option<f64> {
        const APPROACH_DETOUR: f64 = 1.25;
        const MIN_ALONG_FRACTION: f64 = 0.3;

        let pa = world.city(link.a.city).location;
        let pb = world.city(link.b.city).location;
        let n = cable.landings.len();
        if n < 2 {
            return None;
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use world::{generate, WorldConfig};

    /// Candidates with each confidence as its f64 bit pattern.
    fn bits(table: &MappingTable) -> Vec<(LinkId, Vec<(CableId, u64)>)> {
        table
            .mappings
            .iter()
            .map(|m| (m.link, m.candidates.iter().map(|&(c, s)| (c, s.to_bits())).collect()))
            .collect()
    }

    #[test]
    fn shared_geometry_is_bit_identical_to_the_per_link_scorer() {
        let mapper = NautilusMapper::new(MappingConfig::default());
        for seed in [1, 7, 11, 42] {
            let world = generate(&WorldConfig { seed, ..WorldConfig::default() });
            let table = mapper.map_world(&world);
            assert!(table.mapped_count() > 50, "seed {seed}: mapped {}", table.mapped_count());
            assert_eq!(bits(&table), bits(&reference::map_world(&mapper, &world)), "seed {seed}");
        }
        // map_link runs the same fit code on a single link.
        let world = generate(&WorldConfig::default());
        let table = mapper.map_world(&world);
        for m in table.mappings.iter().step_by(17) {
            assert_eq!(mapper.map_link(&world, world.link(m.link)), *m);
        }
    }

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
