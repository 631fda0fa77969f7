//! Submarine cable systems.
//!
//! A curated table of 25 named systems reproduces the real-world cable
//! geography the paper's queries talk about (SeaMeWe-5, AAE-1, FALCON, the
//! Europe–Asia corridor through Egypt and the Red Sea, transatlantic and
//! transpacific trunks). The generator later adds short regional "festoon"
//! cables between nearby coastal cities so the cable count and route
//! diversity resemble the real topology.
//!
//! A cable is an ordered sequence of landings; consecutive pairs form
//! [`CableSegment`]s. Cutting a segment (or the whole system) fails every
//! IP link whose physical path rides it.

use net_model::{CableId, CityId, GeoPoint};
use serde::{Deserialize, Serialize};

use crate::cities::{city_index, City};

/// One span of a cable between two consecutive landings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CableSegment {
    /// Landing city at one end.
    pub a: CityId,
    /// Landing city at the other end.
    pub b: CityId,
    /// Sea-path length (great circle × slack factor), km.
    pub length_km: f64,
}

/// A submarine cable system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cable {
    pub id: CableId,
    pub name: String,
    /// Ordered landing cities, west-to-east as laid.
    pub landings: Vec<CityId>,
    /// Consecutive landing pairs.
    pub segments: Vec<CableSegment>,
    /// Ready-for-service year (used for dataset realism only).
    pub rfs_year: u16,
    /// Design capacity in Tbps.
    pub capacity_tbps: f64,
}

impl Cable {
    /// Builds a cable from an ordered landing list, deriving segments.
    ///
    /// Each system gets its own deterministic slack factor on top of the
    /// base sea-path inflation: real parallel systems serving the same
    /// corridor differ in routing, burial detours and repair slack, which
    /// is what makes them distinguishable by latency — the property the
    /// Nautilus-style mapper depends on.
    pub fn from_landings(
        id: CableId,
        name: impl Into<String>,
        landings: Vec<CityId>,
        rfs_year: u16,
        capacity_tbps: f64,
        cities: &[City],
    ) -> Cable {
        assert!(landings.len() >= 2, "a cable needs at least two landings");
        let slack = system_slack(id);
        let segments = landings
            .windows(2)
            .map(|w| {
                let pa = cities[w[0].index()].location;
                let pb = cities[w[1].index()].location;
                CableSegment {
                    a: w[0],
                    b: w[1],
                    length_km: sea_path_km(&pa, &pb) * slack,
                }
            })
            .collect();
        Cable { id, name: name.into(), landings, segments, rfs_year, capacity_tbps }
    }

    /// Total laid length, km.
    pub fn total_length_km(&self) -> f64 {
        self.segments.iter().map(|s| s.length_km).sum()
    }
}

/// Sea-path length between two landings: great circle inflated by slack.
pub fn sea_path_km(a: &GeoPoint, b: &GeoPoint) -> f64 {
    a.distance_km(b) * net_model::geo::CABLE_PATH_INFLATION
}

/// Per-system slack factor in `[1.0, 1.24]`, deterministic in the cable
/// id. Two parallel systems on one corridor therefore have measurably
/// different span lengths.
pub fn system_slack(id: CableId) -> f64 {
    1.0 + 0.04 * ((id.0 as u64 * 7919) % 7) as f64
}

/// One row of the curated cable table.
struct CableRow {
    name: &'static str,
    rfs: u16,
    tbps: f64,
    /// (country code, city name) landing sequence.
    landings: &'static [(&'static str, &'static str)],
}

/// The 25 curated systems. Landing sequences are simplified but
/// geographically faithful: the Europe–Asia systems all funnel through
/// Egypt/Red Sea, FALCON is a Gulf ring, the transatlantic trunks connect
/// the US northeast to western Europe, and so on.
const CURATED: &[CableRow] = &[
    CableRow {
        name: "SeaMeWe-5",
        rfs: 2016,
        tbps: 24.0,
        landings: &[
            ("FR", "Marseille"), ("IT", "Palermo"), ("TR", "Istanbul"), ("EG", "Alexandria"),
            ("SA", "Jeddah"), ("DJ", "Djibouti City"), ("OM", "Muscat"), ("AE", "Fujairah"),
            ("PK", "Karachi"), ("IN", "Mumbai"), ("LK", "Colombo"), ("BD", "Dhaka"),
            ("MM", "Yangon"), ("MY", "Kuala Lumpur"), ("SG", "Singapore"),
        ],
    },
    CableRow {
        name: "SeaMeWe-4",
        rfs: 2005,
        tbps: 4.6,
        landings: &[
            ("FR", "Marseille"), ("IT", "Palermo"), ("EG", "Alexandria"), ("SA", "Jeddah"),
            ("AE", "Fujairah"), ("PK", "Karachi"), ("IN", "Mumbai"), ("LK", "Colombo"),
            ("BD", "Dhaka"), ("TH", "Bangkok"), ("MY", "Kuala Lumpur"), ("SG", "Singapore"),
        ],
    },
    CableRow {
        name: "SEA-ME-WE 3",
        rfs: 1999,
        tbps: 0.96,
        landings: &[
            ("DE", "Hamburg"), ("GB", "London"), ("FR", "Marseille"), ("IT", "Palermo"),
            ("EG", "Alexandria"), ("SA", "Jeddah"), ("DJ", "Djibouti City"), ("OM", "Muscat"),
            ("PK", "Karachi"), ("IN", "Mumbai"), ("LK", "Colombo"), ("MY", "Kuala Lumpur"),
            ("SG", "Singapore"), ("VN", "Ho Chi Minh City"), ("HK", "Hong Kong"),
            ("CN", "Shanghai"), ("TW", "Taipei"), ("KR", "Busan"), ("JP", "Tokyo"),
            ("AU", "Perth"),
        ],
    },
    CableRow {
        name: "AAE-1",
        rfs: 2017,
        tbps: 40.0,
        landings: &[
            ("FR", "Marseille"), ("GR", "Athens"), ("EG", "Alexandria"), ("SA", "Jeddah"),
            ("DJ", "Djibouti City"), ("OM", "Muscat"), ("AE", "Fujairah"), ("QA", "Doha"),
            ("PK", "Karachi"), ("IN", "Mumbai"), ("MM", "Yangon"), ("TH", "Bangkok"),
            ("MY", "Kuala Lumpur"), ("SG", "Singapore"), ("VN", "Ho Chi Minh City"),
            ("HK", "Hong Kong"),
        ],
    },
    CableRow {
        name: "FALCON",
        rfs: 2006,
        tbps: 2.6,
        landings: &[
            ("EG", "Alexandria"), ("SA", "Jeddah"), ("DJ", "Djibouti City"), ("OM", "Muscat"),
            ("QA", "Doha"), ("AE", "Fujairah"), ("PK", "Karachi"), ("IN", "Mumbai"),
            ("KE", "Mombasa"),
        ],
    },
    CableRow {
        name: "IMEWE",
        rfs: 2010,
        tbps: 3.8,
        landings: &[
            ("FR", "Marseille"), ("IT", "Palermo"), ("EG", "Alexandria"), ("SA", "Jeddah"),
            ("AE", "Fujairah"), ("PK", "Karachi"), ("IN", "Mumbai"),
        ],
    },
    CableRow {
        name: "Europe India Gateway",
        rfs: 2011,
        tbps: 3.8,
        landings: &[
            ("GB", "Bude"), ("PT", "Lisbon"), ("ES", "Bilbao"), ("IT", "Palermo"),
            ("EG", "Alexandria"), ("SA", "Jeddah"), ("DJ", "Djibouti City"), ("OM", "Muscat"),
            ("AE", "Fujairah"), ("IN", "Mumbai"),
        ],
    },
    CableRow {
        name: "FLAG Europe-Asia",
        rfs: 1997,
        tbps: 0.01,
        landings: &[
            ("GB", "Bude"), ("ES", "Bilbao"), ("IT", "Palermo"), ("EG", "Alexandria"),
            ("SA", "Jeddah"), ("AE", "Fujairah"), ("IN", "Mumbai"), ("MY", "Kuala Lumpur"),
            ("TH", "Bangkok"), ("HK", "Hong Kong"), ("CN", "Shanghai"), ("JP", "Tokyo"),
        ],
    },
    CableRow {
        name: "PEACE",
        rfs: 2022,
        tbps: 60.0,
        landings: &[
            ("PK", "Karachi"), ("DJ", "Djibouti City"), ("KE", "Mombasa"),
            ("EG", "Alexandria"), ("FR", "Marseille"),
        ],
    },
    CableRow {
        name: "2Africa",
        rfs: 2023,
        tbps: 180.0,
        landings: &[
            ("GB", "Bude"), ("PT", "Lisbon"), ("NG", "Lagos"), ("ZA", "Cape Town"),
            ("KE", "Mombasa"), ("DJ", "Djibouti City"), ("SA", "Jeddah"), ("EG", "Alexandria"),
            ("IT", "Palermo"), ("FR", "Marseille"),
        ],
    },
    CableRow {
        name: "EASSy",
        rfs: 2010,
        tbps: 10.0,
        landings: &[
            ("ZA", "Cape Town"), ("KE", "Mombasa"), ("DJ", "Djibouti City"), ("SA", "Jeddah"),
        ],
    },
    CableRow {
        name: "WACS",
        rfs: 2012,
        tbps: 14.5,
        landings: &[
            ("GB", "Bude"), ("PT", "Lisbon"), ("NG", "Lagos"), ("ZA", "Cape Town"),
        ],
    },
    CableRow {
        name: "TAT-14",
        rfs: 2001,
        tbps: 3.2,
        landings: &[
            ("US", "New York"), ("GB", "Bude"), ("FR", "Marseille"), ("NL", "Amsterdam"),
            ("DE", "Hamburg"),
        ],
    },
    CableRow {
        name: "MAREA",
        rfs: 2018,
        tbps: 200.0,
        landings: &[("US", "New York"), ("ES", "Bilbao")],
    },
    CableRow {
        name: "Grace Hopper",
        rfs: 2022,
        tbps: 340.0,
        landings: &[("US", "New York"), ("GB", "Bude"), ("ES", "Bilbao")],
    },
    CableRow {
        name: "Dunant",
        rfs: 2021,
        tbps: 250.0,
        landings: &[("US", "New York"), ("FR", "Marseille")],
    },
    CableRow {
        name: "FASTER",
        rfs: 2016,
        tbps: 60.0,
        landings: &[("US", "Los Angeles"), ("JP", "Tokyo"), ("TW", "Taipei")],
    },
    CableRow {
        name: "Unity",
        rfs: 2010,
        tbps: 7.68,
        landings: &[("US", "Los Angeles"), ("JP", "Tokyo")],
    },
    CableRow {
        name: "Southern Cross",
        rfs: 2000,
        tbps: 12.0,
        landings: &[("AU", "Sydney"), ("US", "Los Angeles")],
    },
    CableRow {
        name: "Asia-America Gateway",
        rfs: 2009,
        tbps: 2.88,
        landings: &[
            ("US", "Los Angeles"), ("HK", "Hong Kong"), ("VN", "Ho Chi Minh City"),
            ("TH", "Bangkok"), ("MY", "Kuala Lumpur"), ("SG", "Singapore"),
        ],
    },
    CableRow {
        name: "Asia Pacific Gateway",
        rfs: 2016,
        tbps: 54.8,
        landings: &[
            ("JP", "Tokyo"), ("KR", "Busan"), ("CN", "Shanghai"), ("TW", "Taipei"),
            ("HK", "Hong Kong"), ("VN", "Ho Chi Minh City"), ("TH", "Bangkok"),
            ("MY", "Kuala Lumpur"), ("SG", "Singapore"),
        ],
    },
    CableRow {
        name: "APCN-2",
        rfs: 2001,
        tbps: 2.56,
        landings: &[
            ("JP", "Tokyo"), ("KR", "Busan"), ("TW", "Taipei"), ("HK", "Hong Kong"),
            ("CN", "Shanghai"), ("MY", "Kuala Lumpur"), ("SG", "Singapore"),
        ],
    },
    CableRow {
        name: "Australia-Singapore Cable",
        rfs: 2018,
        tbps: 40.0,
        landings: &[("AU", "Perth"), ("ID", "Jakarta"), ("SG", "Singapore")],
    },
    CableRow {
        name: "EllaLink",
        rfs: 2021,
        tbps: 100.0,
        landings: &[("PT", "Lisbon"), ("BR", "Fortaleza")],
    },
    CableRow {
        name: "SAm-1",
        rfs: 2001,
        tbps: 1.92,
        landings: &[("US", "Miami"), ("BR", "Fortaleza"), ("BR", "Sao Paulo")],
    },
];

/// Builds the curated cable systems (ids `0..CURATED.len()`).
pub fn build_curated_cables(cities: &[City]) -> Vec<Cable> {
    CURATED
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let landings: Vec<CityId> =
                row.landings.iter().map(|(cc, name)| city_index(cities, cc, name)).collect();
            Cable::from_landings(
                CableId(i as u32),
                row.name,
                landings,
                row.rfs,
                row.tbps,
                cities,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::build_cities;

    #[test]
    fn curated_cables_build() {
        let cities = build_cities();
        let cables = build_curated_cables(&cities);
        assert_eq!(cables.len(), 25);
        for c in &cables {
            assert_eq!(c.segments.len(), c.landings.len() - 1);
            assert!(c.total_length_km() > 0.0);
        }
    }

    #[test]
    fn seamewe5_geography() {
        let cities = build_cities();
        let cables = build_curated_cables(&cities);
        let smw5 = cables.iter().find(|c| c.name == "SeaMeWe-5").unwrap();
        // Lands in both France and Singapore; total length in a plausible
        // range for a ~20,000 km system (inflated great-circle legs).
        let lands_fr = smw5
            .landings
            .iter()
            .any(|&c| cities[c.index()].country == net_model::Country(*b"FR"));
        let lands_sg = smw5
            .landings
            .iter()
            .any(|&c| cities[c.index()].country == net_model::Country(*b"SG"));
        assert!(lands_fr && lands_sg);
        let len = smw5.total_length_km();
        assert!((12_000.0..30_000.0).contains(&len), "length {len}");
    }

    #[test]
    fn all_europe_asia_systems_transit_egypt() {
        let cities = build_cities();
        let cables = build_curated_cables(&cities);
        let eg = net_model::Country(*b"EG");
        for name in ["SeaMeWe-5", "SeaMeWe-4", "AAE-1", "IMEWE", "FLAG Europe-Asia"] {
            let c = cables.iter().find(|c| c.name == name).unwrap();
            assert!(
                c.landings.iter().any(|&l| cities[l.index()].country == eg),
                "{name} should land in Egypt"
            );
        }
    }

    #[test]
    fn segments_have_positive_length() {
        let cities = build_cities();
        for cable in build_curated_cables(&cities) {
            for seg in &cable.segments {
                assert!(seg.length_km > 0.0, "{} has a zero-length segment", cable.name);
                assert_ne!(seg.a, seg.b);
            }
        }
    }

    #[test]
    fn landings_are_coastal() {
        let cities = build_cities();
        for cable in build_curated_cables(&cities) {
            for &l in &cable.landings {
                assert!(
                    cities[l.index()].coastal,
                    "{} lands at non-coastal {}",
                    cable.name,
                    cities[l.index()].name
                );
            }
        }
    }
}
