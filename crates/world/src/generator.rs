//! The world generator: one seeded, deterministic pass that assembles the
//! physical, network and measurement layers described in the crate docs.
//!
//! Generation order (and therefore id assignment) is fixed: cities → cables
//! (curated, then festoons) → terrestrial conduits → ASes (tier-1, transit,
//! access, content) → relationships → prefixes → IP links → probes. All
//! randomness flows from a single `StdRng` seeded by `WorldConfig::seed`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use net_model::{Asn, CableId, CityId, Country, Ipv4Addr, Ipv4Net, LinkId, PrefixId, ProbeId, Region};
use net_model::hash::stable_hash;

use crate::ases::{asn_bands, AsInfo, AsRelationship, AsTier, RelKind};
use crate::cables::{build_curated_cables, sea_path_km, Cable};
use crate::cities::{build_cities, City};
use crate::links::{classify_conduit, IpLink, LinkEnd, PrefixInfo};
use crate::physical::{PathScratch, PhysicalGraph, TerrestrialEdge};
use crate::probes::{probes_per_country, Probe};
use crate::{World, WorldIndex};

/// Knobs for world generation. `Default` produces the standard evaluation
/// world used by every case study; the benches scale some knobs.
///
/// # Equality, hashing and the NaN policy
///
/// `WorldConfig` is the **content address** of a generated world: the
/// scenario-forge world cache keys `Arc<World>` slots by it, so equality
/// and hashing must be *total* and *stable*. Both are defined over the
/// exact IEEE-754 bit patterns of the `f64` fields
/// ([`WorldConfig::canonical_bits`]): `0.5 == 0.5` as usual; `-0.0` and
/// `0.0` have different bits and are therefore distinct addresses
/// (whether or not the generator's output differs between them); a NaN
/// **equals itself** bit-for-bit, keeping the relation reflexive, while
/// NaNs with different payloads are distinct addresses. The generator
/// itself never produces NaN; feeding NaN knobs is allowed but each NaN
/// bit pattern simply names its own cache slot.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; two configs with equal fields generate identical worlds.
    pub seed: u64,
    /// How many regional festoon cables to add on top of the curated table.
    pub festoon_cables: usize,
    /// Access (eyeball) ASes per country.
    pub access_per_country: usize,
    /// Multiplier on the per-region probe density.
    pub probe_scale: f64,
    /// Probability that two same-region transit ASes peer.
    pub transit_peering_prob: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            festoon_cables: 30,
            access_per_country: 2,
            probe_scale: 1.0,
            transit_peering_prob: 0.5,
        }
    }
}

impl WorldConfig {
    /// The canonical integer representation equality, ordering, hashing
    /// and the content hash are all defined over: every field as its raw
    /// bits, `f64`s via [`f64::to_bits`]. One array position per field,
    /// in declaration order — extend (never reorder) when adding knobs;
    /// the exhaustive destructuring below makes a forgotten field a
    /// compile error instead of a silent cache-identity hole.
    pub fn canonical_bits(&self) -> [u64; 5] {
        let WorldConfig {
            seed,
            festoon_cables,
            access_per_country,
            probe_scale,
            transit_peering_prob,
        } = self;
        [
            *seed,
            *festoon_cables as u64,
            *access_per_country as u64,
            probe_scale.to_bits(),
            transit_peering_prob.to_bits(),
        ]
    }

    /// A stable structural hash of the config — the world cache's content
    /// address. Mixed with [`stable_hash`], so it is
    /// identical across platforms, runs and releases (unlike
    /// `std::hash::Hasher` output, which is allowed to vary).
    pub fn content_hash(&self) -> u64 {
        let bits = self.canonical_bits();
        let mut parts = [0u64; 6];
        parts[0] = 0x574F_524C_4443_4647; // "WORLDCFG"
        parts[1..].copy_from_slice(&bits);
        stable_hash(&parts)
    }
}

impl PartialEq for WorldConfig {
    fn eq(&self, other: &Self) -> bool {
        self.canonical_bits() == other.canonical_bits()
    }
}

/// Total: bit-pattern equality is reflexive even for NaN (see the type
/// docs for the NaN policy).
impl Eq for WorldConfig {}

impl std::hash::Hash for WorldConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.canonical_bits().hash(state);
    }
}

impl PartialOrd for WorldConfig {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Ordered by [`WorldConfig::canonical_bits`] so configs can key ordered
/// maps (the world cache's slot table).
impl Ord for WorldConfig {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.canonical_bits().cmp(&other.canonical_bits())
    }
}

/// Generates a world from the given configuration.
pub fn generate(config: &WorldConfig) -> World {
    let mut rng = StdRng::seed_from_u64(config.seed);

    let (cities, cables, terrestrial) = physical_layer(config, &mut rng);
    let graph = PhysicalGraph::build(&cities, &cables, &terrestrial);

    let ases = build_ases(&cities, config);
    let relationships = build_relationships(&ases, config, &mut rng);
    let prefixes = build_prefixes(&ases);
    let links = build_links(&ases, &relationships, &cities, &graph);
    let probes = build_probes(&ases, &prefixes, &cities, config);

    let index = WorldIndex::build(&cables, &ases, &links);
    let world = World {
        seed: config.seed,
        config: config.clone(),
        cities,
        cables,
        terrestrial,
        ases,
        relationships,
        prefixes,
        links,
        probes,
        index,
    };
    debug_assert_eq!(world.validate(), Ok(()));
    world
}

// ---------------------------------------------------------------------------
// Physical layer
// ---------------------------------------------------------------------------

/// Cities, cables (curated, then festoons drawn from `rng`) and
/// terrestrial conduits: the inputs of the conduit graph.
pub(crate) fn physical_layer(
    config: &WorldConfig,
    rng: &mut StdRng,
) -> (Vec<City>, Vec<Cable>, Vec<TerrestrialEdge>) {
    let cities = build_cities();
    let mut cables = build_curated_cables(&cities);
    add_festoon_cables(&mut cables, &cities, config.festoon_cables, rng);
    let terrestrial = build_terrestrial(&cities);
    (cities, cables, terrestrial)
}

/// The 80 configs the dense conduit graph is pinned on: 20 seeds, each
/// with 0, 10, 30 and 60 festoon cables.
#[cfg(test)]
pub(crate) fn festoon_configs() -> impl Iterator<Item = WorldConfig> {
    (0..20u64).flat_map(|seed| {
        [0, 10, 30, 60].map(|festoon_cables| WorldConfig {
            seed,
            festoon_cables,
            ..WorldConfig::default()
        })
    })
}

/// Countries that are islands (no terrestrial conduits except curated
/// exceptions like the Channel Tunnel).
fn is_island(country: Country) -> bool {
    matches!(
        country.code(),
        "GB" | "JP" | "TW" | "LK" | "MV" | "ID" | "AU" | "SG" | "HK"
    )
}

/// Landmass grouping for terrestrial reachability.
fn landmass(region: Region) -> u8 {
    match region {
        Region::Europe | Region::Asia | Region::MiddleEast | Region::Africa => 0, // Afro-Eurasia
        Region::NorthAmerica => 1,
        Region::SouthAmerica => 2,
        Region::Oceania => 3,
    }
}

/// Explicit terrestrial exceptions: tunnels and causeways.
const LAND_EXCEPTIONS: &[(&str, &str)] = &[("GB", "FR"), ("SG", "MY"), ("HK", "CN")];

fn land_exception(a: Country, b: Country) -> bool {
    LAND_EXCEPTIONS
        .iter()
        .any(|(x, y)| (a.code() == *x && b.code() == *y) || (a.code() == *y && b.code() == *x))
}

/// Builds terrestrial conduits: all intra-country city pairs, plus
/// cross-border pairs on the same landmass within 2,200 km, plus curated
/// tunnel/causeway exceptions.
fn build_terrestrial(cities: &[City]) -> Vec<TerrestrialEdge> {
    const LAND_DETOUR: f64 = 1.25;
    let mut edges = Vec::new();
    for (i, a) in cities.iter().enumerate() {
        for b in cities.iter().skip(i + 1) {
            let dist = a.location.distance_km(&b.location);
            let connect = if a.country == b.country {
                true
            } else if land_exception(a.country, b.country) {
                dist < 1_500.0
            } else {
                landmass(a.region) == landmass(b.region)
                    && !is_island(a.country)
                    && !is_island(b.country)
                    && dist < 3_200.0
            };
            if connect {
                edges.push(TerrestrialEdge { a: a.id, b: b.id, length_km: dist * LAND_DETOUR });
            }
        }
    }
    edges
}

/// Adds short regional festoon cables between nearby coastal cities that do
/// not already share a curated cable segment.
fn add_festoon_cables(cables: &mut Vec<Cable>, cities: &[City], target: usize, rng: &mut StdRng) {
    let mut candidates: Vec<(CityId, CityId, f64)> = Vec::new();
    for (i, a) in cities.iter().enumerate() {
        for b in cities.iter().skip(i + 1) {
            if !a.coastal || !b.coastal || a.country == b.country {
                continue;
            }
            let dist = a.location.distance_km(&b.location);
            if !(300.0..=3_500.0).contains(&dist) {
                continue;
            }
            let already = cables.iter().any(|c| {
                c.segments.iter().any(|s| {
                    (s.a == a.id && s.b == b.id) || (s.a == b.id && s.b == a.id)
                })
            });
            if !already {
                candidates.push((a.id, b.id, dist));
            }
        }
    }
    // Deterministic shuffle-by-score: prefer shorter crossings with a seeded
    // jitter so different seeds grow different festoon sets.
    let mut scored: Vec<(f64, CityId, CityId)> = candidates
        .into_iter()
        .map(|(a, b, d)| (d * rng.gen_range(0.6..1.4), a, b))
        .collect();
    scored.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));

    for (_, a, b) in scored.into_iter().take(target) {
        let id = CableId(cables.len() as u32);
        let name = format!(
            "Festoon {}-{}",
            cities[a.index()].name,
            cities[b.index()].name
        );
        let pa = cities[a.index()].location;
        let pb = cities[b.index()].location;
        let rfs = 2004 + (id.0 % 20) as u16;
        let cable = Cable {
            id,
            name,
            landings: vec![a, b],
            segments: vec![crate::cables::CableSegment {
                a,
                b,
                length_km: sea_path_km(&pa, &pb) * crate::cables::system_slack(id),
            }],
            rfs_year: rfs,
            capacity_tbps: 8.0,
        };
        cables.push(cable);
    }
}

// ---------------------------------------------------------------------------
// Network layer
// ---------------------------------------------------------------------------

/// Headquarters countries of the twelve tier-1 backbones.
const TIER1_HOMES: &[&str] = &["US", "US", "GB", "FR", "DE", "JP", "SG", "IN", "HK", "BR", "ZA", "AE"];

/// Headquarters of the six content providers.
const CONTENT_HOMES: &[&str] = &["US", "US", "GB", "JP", "SG", "DE"];

fn build_ases(cities: &[City], config: &WorldConfig) -> Vec<AsInfo> {
    let countries = net_model::country::all_countries();
    let hub_cities: Vec<CityId> = cities.iter().filter(|c| c.hub).map(|c| c.id).collect();
    let mut ases = Vec::new();

    // Tier-1 backbones: present at every hub plus all home-country cities.
    for (i, cc) in TIER1_HOMES.iter().enumerate() {
        #[expect(clippy::expect_used, reason = "TIER1_HOMES holds literal ISO codes")]
        let country = Country::parse(cc).expect("valid tier1 home");
        #[expect(clippy::expect_used, reason = "every tier-1 home is in the country table")]
        let region = country.region().expect("known country");
        let mut presence: Vec<CityId> = hub_cities.clone();
        for c in cities.iter().filter(|c| c.country == country) {
            if !presence.contains(&c.id) {
                presence.push(c.id);
            }
        }
        presence.sort();
        ases.push(AsInfo {
            asn: Asn(asn_bands::TIER1_BASE + 1 + i as u32),
            name: format!("Backbone-{}{}", cc, i + 1),
            tier: AsTier::Tier1,
            country,
            region,
            presence,
        });
    }

    // National transit: all home cities plus the region hub.
    for (ci, info) in countries.iter().enumerate() {
        let mut presence: Vec<CityId> =
            cities.iter().filter(|c| c.country == info.code).map(|c| c.id).collect();
        let hub = crate::cities::region_hub(cities, info.region);
        if !presence.contains(&hub) {
            presence.push(hub);
        }
        presence.sort();
        ases.push(AsInfo {
            asn: Asn(asn_bands::TRANSIT_BASE + ci as u32),
            name: format!("{}-Telecom", info.code.code()),
            tier: AsTier::Transit,
            country: info.code,
            region: info.region,
            presence,
        });
    }

    // Access networks: home cities only.
    let mut access_idx = 0;
    for info in &countries {
        let home: Vec<CityId> =
            cities.iter().filter(|c| c.country == info.code).map(|c| c.id).collect();
        for k in 0..config.access_per_country {
            ases.push(AsInfo {
                asn: Asn(asn_bands::ACCESS_BASE + access_idx),
                name: format!("{}-Access-{}", info.code.code(), k + 1),
                tier: AsTier::Access,
                country: info.code,
                region: info.region,
                presence: home.clone(),
            });
            access_idx += 1;
        }
    }

    // Content providers: every hub city.
    for (i, cc) in CONTENT_HOMES.iter().enumerate() {
        #[expect(clippy::expect_used, reason = "CONTENT_HOMES holds literal ISO codes")]
        let country = Country::parse(cc).expect("valid content home");
        #[expect(clippy::expect_used, reason = "every content home is in the country table")]
        let region = country.region().expect("known country");
        ases.push(AsInfo {
            asn: Asn(asn_bands::CONTENT_BASE + i as u32),
            name: format!("CDN-{}", i + 1),
            tier: AsTier::Content,
            country,
            region,
            presence: hub_cities.clone(),
        });
    }

    ases.sort_by_key(|a| a.asn);
    ases
}

fn build_relationships(
    ases: &[AsInfo],
    config: &WorldConfig,
    rng: &mut StdRng,
) -> Vec<AsRelationship> {
    let tier1s: Vec<&AsInfo> = ases.iter().filter(|a| a.tier == AsTier::Tier1).collect();
    let transits: Vec<&AsInfo> = ases.iter().filter(|a| a.tier == AsTier::Transit).collect();
    let accesses: Vec<&AsInfo> = ases.iter().filter(|a| a.tier == AsTier::Access).collect();
    let contents: Vec<&AsInfo> = ases.iter().filter(|a| a.tier == AsTier::Content).collect();

    let mut rels = Vec::new();

    // Tier-1 clique.
    for (i, a) in tier1s.iter().enumerate() {
        for b in tier1s.iter().skip(i + 1) {
            rels.push(AsRelationship::peering(a.asn, b.asn));
        }
    }

    // Transit buys from the 2–3 nearest tier-1s (by HQ anchor distance).
    for t in &transits {
        #[expect(clippy::expect_used, reason = "transit ASes are homed in table countries")]
        let anchor = t.country.info().expect("known country").anchor;
        #[expect(clippy::expect_used, reason = "tier-1 ASes are homed in table countries")]
        let mut ranked: Vec<(&&AsInfo, f64)> = tier1s
            .iter()
            .map(|b| {
                let banchor = b.country.info().expect("known").anchor;
                (b, anchor.distance_km(&banchor))
            })
            .collect();
        ranked.sort_by(|x, y| x.1.total_cmp(&y.1).then(x.0.asn.cmp(&y.0.asn)));
        let n_upstreams = 2 + (t.asn.0 as usize % 2); // deterministic 2 or 3
        for (b, _) in ranked.into_iter().take(n_upstreams) {
            rels.push(AsRelationship::transit(b.asn, t.asn));
        }
    }

    // Same-region transit peering (seeded coin flip per pair).
    for (i, a) in transits.iter().enumerate() {
        for b in transits.iter().skip(i + 1) {
            if a.region == b.region && rng.gen_bool(config.transit_peering_prob) {
                rels.push(AsRelationship::peering(a.asn, b.asn));
            }
        }
    }

    // Access: customer of the home transit; ~30% multihome to a second
    // same-region transit.
    for acc in &accesses {
        #[expect(clippy::expect_used, reason = "every access country has a transit AS")]
        let home = transits
            .iter()
            .find(|t| t.country == acc.country)
            .expect("every country has a transit AS");
        rels.push(AsRelationship::transit(home.asn, acc.asn));
        if rng.gen_bool(0.3) {
            let second = transits
                .iter()
                .filter(|t| t.region == acc.region && t.country != acc.country)
                .min_by_key(|t| t.asn);
            if let Some(second) = second {
                rels.push(AsRelationship::transit(second.asn, acc.asn));
            }
        }
    }

    // Content: buys transit from two tier-1s (reachability of last resort),
    // peers with most transits in countries where it has presence.
    for c in &contents {
        for t1 in tier1s.iter().take(2) {
            rels.push(AsRelationship::transit(t1.asn, c.asn));
        }
        for t in &transits {
            let shares_city = t.presence.iter().any(|city| c.presence.contains(city));
            if shares_city && rng.gen_bool(0.7) {
                rels.push(AsRelationship::peering(t.asn, c.asn));
            }
        }
    }

    rels.sort_by_key(|r| (r.a, r.b, r.kind == RelKind::Peer));
    rels.dedup();
    rels
}

fn prefixes_for_tier(tier: AsTier) -> usize {
    match tier {
        AsTier::Tier1 => 4,
        AsTier::Transit => 3,
        AsTier::Access => 2,
        AsTier::Content => 6,
    }
}

/// Allocates /20s for every AS from 10.0.0.0/8, sequentially.
fn build_prefixes(ases: &[AsInfo]) -> Vec<PrefixInfo> {
    let mut prefixes = Vec::new();
    let mut next: u32 = 0;
    for a in ases {
        for _ in 0..prefixes_for_tier(a.tier) {
            let base = (10u32 << 24) | (next << 12);
            #[expect(
                clippy::expect_used,
                reason = "a 10.0.0.0/8 base with its low 12 bits clear is a valid /20"
            )]
            let net = Ipv4Net::new(Ipv4Addr(base), 20).expect("valid /20");
            prefixes.push(PrefixInfo { id: PrefixId(prefixes.len() as u32), net, origin: a.asn });
            next += 1;
            assert!(next < (1 << 12), "prefix pool exhausted");
        }
    }
    prefixes
}

/// Builds the IP-link layer.
///
/// Placement rules, chosen to reproduce the real Internet's cross-layer
/// structure (most long-haul capacity is intra-AS backbone plus *remote*
/// transit/peering, while global networks interconnect metro-side):
///
/// * **global × global** (tier-1/content pairs): metro links at up to two
///   shared hub cities;
/// * **anything involving a local AS**: the link is anchored at the local
///   AS's home city and lands on the counterparty's nearest PoP — which is
///   frequently abroad, so these links ride submarine cables (remote
///   transit, exactly how island/peninsular economies buy connectivity);
/// * **intra-AS backbones**: every multi-city AS chains its PoPs with
///   long-haul links (same ASN on both ends). They don't affect AS-level
///   adjacency but they are the bulk of what a cable failure takes down.
fn build_links(
    ases: &[AsInfo],
    rels: &[AsRelationship],
    cities: &[City],
    graph: &PhysicalGraph,
) -> Vec<IpLink> {
    // `ases` is ASN-ascending (`build_ases` sorts it).
    #[expect(clippy::expect_used, reason = "links join only ASes from this list")]
    let by_asn = |asn: Asn| {
        &ases[ases.binary_search_by_key(&asn, |a| a.asn).expect("known ASN")]
    };
    let mut links: Vec<IpLink> = Vec::new();
    let is_global = |a: &AsInfo| matches!(a.tier, AsTier::Tier1 | AsTier::Content);
    // `km[x * n + t]` is `x.distance_km(t)`, in that argument order, filled
    // on first use (NaN marks an unfilled cell), so the nearest-PoP choice
    // matches computing every distance on demand.
    let n = cities.len();
    let mut km = vec![f64::NAN; n * n];
    #[expect(clippy::expect_used, reason = "every AS has at least one PoP")]
    let mut nearest_presence = |of: &AsInfo, to: CityId| -> CityId {
        let target = cities[to.index()].location;
        let mut km_to = |x: CityId| {
            let cell = &mut km[x.index() * n + to.index()];
            if cell.is_nan() {
                *cell = cities[x.index()].location.distance_km(&target);
            }
            *cell
        };
        of.presence
            .iter()
            .copied()
            .min_by(|&x, &y| km_to(x).total_cmp(&km_to(y)).then(x.cmp(&y)))
            .expect("ASes have at least one PoP")
    };
    let mut scratch = PathScratch::default();

    for rel in rels {
        let a = by_asn(rel.a);
        let b = by_asn(rel.b);

        let endpoints: Vec<(CityId, CityId)> = if is_global(a) && is_global(b) {
            let shared: Vec<CityId> =
                a.presence.iter().copied().filter(|c| b.presence.contains(c)).collect();
            if shared.is_empty() {
                let home = a.presence[0];
                vec![(home, nearest_presence(b, home))]
            } else {
                shared.into_iter().take(2).map(|c| (c, c)).collect()
            }
        } else {
            // Anchor at the more local AS (customer in P2C, else lower tier,
            // else lower ASN). `a_is_local` keeps endpoint order aligned
            // with the link's (a, b) ends.
            let a_is_local = if is_global(a) {
                false
            } else if is_global(b) {
                true
            } else {
                rel.kind != RelKind::ProviderCustomer // in P2C, rel.b is customer
            };
            let (local, other) = if a_is_local { (a, b) } else { (b, a) };
            let anchor = *local
                .presence
                .iter()
                .find(|c| cities[c.index()].country == local.country)
                .unwrap_or(&local.presence[0]);
            let far = nearest_presence(other, anchor);
            if a_is_local {
                vec![(anchor, far)]
            } else {
                vec![(far, anchor)]
            }
        };

        for (ca, cb) in endpoints {
            // Per-link bias spreads long-haul links across parallel cable
            // systems on the same corridor (route diversity).
            let bias = stable_hash(&[
                0x4C4E4B, // "LNK"
                rel.a.0 as u64,
                rel.b.0 as u64,
                ca.0 as u64,
                cb.0 as u64,
            ]);
            let path = match graph.shortest_path_in(ca, cb, Some(bias), &mut scratch) {
                Some(p) => p,
                None => continue, // physically unreachable pair: skip
            };
            let conduit = classify_conduit(&path);
            let id = LinkId(links.len() as u32);
            // /30 per link out of 172.16.0.0/12.
            let base = (172u32 << 24) | (16u32 << 16);
            let net_base = base + id.0 * 4;
            let latency_ms = if path.hops.is_empty() {
                0.5 // metro
            } else {
                path.propagation_ms() + 0.5
            };
            let capacity_gbps = match (a.tier, b.tier) {
                (AsTier::Tier1, AsTier::Tier1) => 1_000.0,
                (AsTier::Content, _) | (_, AsTier::Content) => 400.0,
                (AsTier::Tier1, _) | (_, AsTier::Tier1) => 200.0,
                (AsTier::Transit, AsTier::Transit) => 100.0,
                _ => 40.0,
            };
            links.push(IpLink {
                id,
                a: LinkEnd { asn: a.asn, city: ca, addr: Ipv4Addr(net_base + 1) },
                b: LinkEnd { asn: b.asn, city: cb, addr: Ipv4Addr(net_base + 2) },
                latency_ms,
                capacity_gbps,
                path,
                conduit,
            });
        }
    }

    // Intra-AS backbones: chain each AS's PoPs in id order. These carry no
    // AS-level adjacency but dominate the physical-layer dependency counts.
    for a in ases {
        if a.presence.len() < 2 {
            continue;
        }
        let mut pops = a.presence.clone();
        pops.sort();
        for w in pops.windows(2) {
            let (ca, cb) = (w[0], w[1]);
            let bias = stable_hash(&[
                0xBB0E, // backbone marker
                a.asn.0 as u64,
                ca.0 as u64,
                cb.0 as u64,
            ]);
            let path = match graph.shortest_path_in(ca, cb, Some(bias), &mut scratch) {
                Some(p) => p,
                None => continue,
            };
            let conduit = classify_conduit(&path);
            let id = LinkId(links.len() as u32);
            let base = (172u32 << 24) | (16u32 << 16);
            let net_base = base + id.0 * 4;
            let latency_ms =
                if path.hops.is_empty() { 0.5 } else { path.propagation_ms() + 0.5 };
            links.push(IpLink {
                id,
                a: LinkEnd { asn: a.asn, city: ca, addr: Ipv4Addr(net_base + 1) },
                b: LinkEnd { asn: a.asn, city: cb, addr: Ipv4Addr(net_base + 2) },
                latency_ms,
                capacity_gbps: 800.0,
                path,
                conduit,
            });
        }
    }
    links
}

fn build_probes(
    ases: &[AsInfo],
    prefixes: &[PrefixInfo],
    cities: &[City],
    config: &WorldConfig,
) -> Vec<Probe> {
    let mut probes = Vec::new();
    for info in net_model::country::all_countries() {
        let count =
            ((probes_per_country(info.region) as f64) * config.probe_scale).round() as usize;
        let hosts: Vec<&AsInfo> = ases
            .iter()
            .filter(|a| a.tier == AsTier::Access && a.country == info.code)
            .collect();
        let home_cities: Vec<&City> = cities.iter().filter(|c| c.country == info.code).collect();
        if hosts.is_empty() || home_cities.is_empty() {
            continue;
        }
        for k in 0..count {
            let host = hosts[k % hosts.len()];
            let city = home_cities[k % home_cities.len()];
            #[expect(
                clippy::expect_used,
                reason = "every access AS originates at least one prefix"
            )]
            let pfx = prefixes
                .iter()
                .find(|p| p.origin == host.asn)
                .expect("access AS has a prefix");
            let addr = pfx.net.host(10 + k as u32);
            probes.push(Probe {
                id: ProbeId(probes.len() as u32),
                asn: host.asn,
                city: city.id,
                country: info.code,
                region: info.region,
                addr,
            });
        }
    }
    probes
}

/// The link builder before the distance table and the ASN binary
/// search, over the `BTreeMap` Dijkstra, kept verbatim as the oracle the
/// equivalence test compares [`generate`] against.
#[cfg(test)]
mod reference {
    use net_model::hash::stable_hash;
    use net_model::{Asn, CityId, Ipv4Addr, LinkId};

    use crate::ases::{AsInfo, AsRelationship, AsTier, RelKind};
    use crate::cities::City;
    use crate::links::{classify_conduit, IpLink, LinkEnd};
    use crate::physical::reference::PhysicalGraph;

    pub(super) fn build_links(
        ases: &[AsInfo],
        rels: &[AsRelationship],
        cities: &[City],
        graph: &PhysicalGraph,
    ) -> Vec<IpLink> {
        let by_asn = |asn: Asn| ases.iter().find(|a| a.asn == asn).expect("known ASN");
        let mut links: Vec<IpLink> = Vec::new();
        let is_global = |a: &AsInfo| matches!(a.tier, AsTier::Tier1 | AsTier::Content);
        let nearest_presence = |of: &AsInfo, to: CityId| -> CityId {
            let target = cities[to.index()].location;
            of.presence
                .iter()
                .copied()
                .min_by(|&x, &y| {
                    let dx = cities[x.index()].location.distance_km(&target);
                    let dy = cities[y.index()].location.distance_km(&target);
                    dx.total_cmp(&dy).then(x.cmp(&y))
                })
                .expect("ASes have at least one PoP")
        };

        for rel in rels {
            let a = by_asn(rel.a);
            let b = by_asn(rel.b);

            let endpoints: Vec<(CityId, CityId)> = if is_global(a) && is_global(b) {
                let shared: Vec<CityId> =
                    a.presence.iter().copied().filter(|c| b.presence.contains(c)).collect();
                if shared.is_empty() {
                    let home = a.presence[0];
                    vec![(home, nearest_presence(b, home))]
                } else {
                    shared.into_iter().take(2).map(|c| (c, c)).collect()
                }
            } else {
                // Anchor at the more local AS (customer in P2C, else lower tier,
                // else lower ASN). `a_is_local` keeps endpoint order aligned
                // with the link's (a, b) ends.
                let a_is_local = if is_global(a) {
                    false
                } else if is_global(b) {
                    true
                } else {
                    rel.kind != RelKind::ProviderCustomer // in P2C, rel.b is customer
                };
                let (local, other) = if a_is_local { (a, b) } else { (b, a) };
                let anchor = *local
                    .presence
                    .iter()
                    .find(|c| cities[c.index()].country == local.country)
                    .unwrap_or(&local.presence[0]);
                let far = nearest_presence(other, anchor);
                if a_is_local {
                    vec![(anchor, far)]
                } else {
                    vec![(far, anchor)]
                }
            };

            for (ca, cb) in endpoints {
                // Per-link bias spreads long-haul links across parallel cable
                // systems on the same corridor (route diversity).
                let bias = stable_hash(&[
                    0x4C4E4B, // "LNK"
                    rel.a.0 as u64,
                    rel.b.0 as u64,
                    ca.0 as u64,
                    cb.0 as u64,
                ]);
                let path = match graph.shortest_path_biased(ca, cb, Some(bias)) {
                    Some(p) => p,
                    None => continue, // physically unreachable pair: skip
                };
                let conduit = classify_conduit(&path);
                let id = LinkId(links.len() as u32);
                // /30 per link out of 172.16.0.0/12.
                let base = (172u32 << 24) | (16u32 << 16);
                let net_base = base + id.0 * 4;
                let latency_ms = if path.hops.is_empty() {
                    0.5 // metro
                } else {
                    path.propagation_ms() + 0.5
                };
                let capacity_gbps = match (a.tier, b.tier) {
                    (AsTier::Tier1, AsTier::Tier1) => 1_000.0,
                    (AsTier::Content, _) | (_, AsTier::Content) => 400.0,
                    (AsTier::Tier1, _) | (_, AsTier::Tier1) => 200.0,
                    (AsTier::Transit, AsTier::Transit) => 100.0,
                    _ => 40.0,
                };
                links.push(IpLink {
                    id,
                    a: LinkEnd { asn: a.asn, city: ca, addr: Ipv4Addr(net_base + 1) },
                    b: LinkEnd { asn: b.asn, city: cb, addr: Ipv4Addr(net_base + 2) },
                    latency_ms,
                    capacity_gbps,
                    path,
                    conduit,
                });
            }
        }

        // Intra-AS backbones: chain each AS's PoPs in id order. These carry no
        // AS-level adjacency but dominate the physical-layer dependency counts.
        for a in ases {
            if a.presence.len() < 2 {
                continue;
            }
            let mut pops = a.presence.clone();
            pops.sort();
            for w in pops.windows(2) {
                let (ca, cb) = (w[0], w[1]);
                let bias = stable_hash(&[
                    0xBB0E, // backbone marker
                    a.asn.0 as u64,
                    ca.0 as u64,
                    cb.0 as u64,
                ]);
                let path = match graph.shortest_path_biased(ca, cb, Some(bias)) {
                    Some(p) => p,
                    None => continue,
                };
                let conduit = classify_conduit(&path);
                let id = LinkId(links.len() as u32);
                let base = (172u32 << 24) | (16u32 << 16);
                let net_base = base + id.0 * 4;
                let latency_ms =
                    if path.hops.is_empty() { 0.5 } else { path.propagation_ms() + 0.5 };
                links.push(IpLink {
                    id,
                    a: LinkEnd { asn: a.asn, city: ca, addr: Ipv4Addr(net_base + 1) },
                    b: LinkEnd { asn: a.asn, city: cb, addr: Ipv4Addr(net_base + 2) },
                    latency_ms,
                    capacity_gbps: 800.0,
                    path,
                    conduit,
                });
            }
        }
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        generate(&WorldConfig::default())
    }

    #[test]
    fn generate_matches_the_reference_link_builder() {
        for config in festoon_configs() {
            let w = generate(&config);
            let graph = crate::physical::reference::PhysicalGraph::build(
                &w.cities,
                &w.cables,
                &w.terrestrial,
            );
            let links = reference::build_links(&w.ases, &w.relationships, &w.cities, &graph);
            assert_eq!(
                format!("{:?}", w.links),
                format!("{links:?}"),
                "links differ for {config:?}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let w1 = world();
        let w2 = world();
        assert_eq!(w1.cables.len(), w2.cables.len());
        assert_eq!(w1.links.len(), w2.links.len());
        for (l1, l2) in w1.links.iter().zip(&w2.links) {
            assert_eq!(l1.a, l2.a);
            assert_eq!(l1.b, l2.b);
            assert_eq!(l1.path, l2.path);
        }
        for (p1, p2) in w1.probes.iter().zip(&w2.probes) {
            assert_eq!(p1, p2);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let w1 = generate(&WorldConfig { seed: 1, ..WorldConfig::default() });
        let w2 = generate(&WorldConfig { seed: 2, ..WorldConfig::default() });
        // Festoon sets and relationship coin-flips should diverge.
        let names1: Vec<&str> = w1.cables.iter().map(|c| c.name.as_str()).collect();
        let names2: Vec<&str> = w2.cables.iter().map(|c| c.name.as_str()).collect();
        assert_ne!(names1, names2);
    }

    #[test]
    fn world_validates_and_has_expected_shape() {
        let w = world();
        assert_eq!(w.validate(), Ok(()));
        assert_eq!(w.cables.len(), 25 + 30);
        assert!(w.ases.len() > 100, "ases: {}", w.ases.len());
        assert!(w.links.len() > 300, "links: {}", w.links.len());
        assert!(w.probes.len() > 80, "probes: {}", w.probes.len());
        assert!(w.prefixes.len() > 300, "prefixes: {}", w.prefixes.len());
    }

    #[test]
    fn some_links_are_submarine_and_depend_on_cables() {
        let w = world();
        let submarine = w
            .links
            .iter()
            .filter(|l| l.conduit == crate::links::Conduit::Submarine)
            .count();
        assert!(submarine > 20, "submarine links: {submarine}");
        let smw5 = w.cable_by_name("SeaMeWe-5").unwrap().id;
        assert!(!w.links_on_cable(smw5).is_empty());
    }

    #[test]
    fn probes_are_europe_biased() {
        let w = world();
        let eu = w.probes.iter().filter(|p| p.region == Region::Europe).count();
        let af = w.probes.iter().filter(|p| p.region == Region::Africa).count();
        assert!(eu > af * 2, "eu={eu} af={af}");
    }

    #[test]
    fn every_access_as_has_home_transit_provider() {
        let w = world();
        for acc in w.ases.iter().filter(|a| a.tier == AsTier::Access) {
            let has_provider = w.relationships.iter().any(|r| {
                r.kind == RelKind::ProviderCustomer && r.b == acc.asn
            });
            assert!(has_provider, "{} has no provider", acc.name);
        }
    }

    #[test]
    fn prefixes_do_not_overlap() {
        let w = world();
        for (i, p) in w.prefixes.iter().enumerate() {
            for q in w.prefixes.iter().skip(i + 1) {
                assert!(!p.net.overlaps(&q.net), "{} overlaps {}", p.net, q.net);
            }
        }
    }

    #[test]
    fn link_addresses_are_unique() {
        let w = world();
        let mut addrs: Vec<u32> = w
            .links
            .iter()
            .flat_map(|l| [l.a.addr.0, l.b.addr.0])
            .collect();
        addrs.sort_unstable();
        let before = addrs.len();
        addrs.dedup();
        assert_eq!(before, addrs.len());
    }

    #[test]
    fn config_equality_and_hash_are_bit_exact() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |c: &WorldConfig| {
            let mut s = DefaultHasher::new();
            c.hash(&mut s);
            s.finish()
        };
        let a = WorldConfig::default();
        let b = WorldConfig::default();
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
        assert_eq!(a.content_hash(), b.content_hash());

        let scaled = WorldConfig { probe_scale: 2.0, ..WorldConfig::default() };
        assert_ne!(a, scaled);
        assert_ne!(a.content_hash(), scaled.content_hash());
        let reseeded = WorldConfig { seed: 43, ..WorldConfig::default() };
        assert_ne!(a, reseeded);
        assert_ne!(a.content_hash(), reseeded.content_hash());

        // NaN policy: a NaN equals itself bit-for-bit (the relation stays
        // total), while -0.0 and 0.0 are distinct addresses.
        let nan1 = WorldConfig { probe_scale: f64::NAN, ..WorldConfig::default() };
        let nan2 = WorldConfig { probe_scale: f64::NAN, ..WorldConfig::default() };
        assert_eq!(nan1, nan2);
        assert_eq!(h(&nan1), h(&nan2));
        let neg0 = WorldConfig { probe_scale: -0.0, ..WorldConfig::default() };
        let pos0 = WorldConfig { probe_scale: 0.0, ..WorldConfig::default() };
        assert_ne!(neg0, pos0);

        // Ordering is consistent with equality (map-key safety).
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_ne!(a.cmp(&scaled), std::cmp::Ordering::Equal);
    }

    #[test]
    fn probe_scale_scales_probe_count() {
        let base = generate(&WorldConfig::default()).probes.len();
        let doubled =
            generate(&WorldConfig { probe_scale: 2.0, ..WorldConfig::default() }).probes.len();
        assert!(doubled > base + base / 2, "base={base} doubled={doubled}");
    }
}
