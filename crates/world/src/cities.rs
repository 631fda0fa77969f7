//! The city table: population/PoP centres, coastal flags, and regional hubs.
//!
//! Cities are the nodes of the physical conduit graph. Each country gets one
//! to three cities; coastal cities double as cable landing sites. The table
//! is curated (not generated) so that the cable systems in
//! [`crate::cables`] can reference stable, geographically correct landings.

use net_model::{CityId, Country, GeoPoint, Region};
use serde::{Deserialize, Serialize};

/// A city: a point of presence, potential cable landing, and probe site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct City {
    pub id: CityId,
    pub name: String,
    pub country: Country,
    pub region: Region,
    pub location: GeoPoint,
    /// Coastal cities can host cable landing stations.
    pub coastal: bool,
    /// Regional hubs host tier-1 and content-provider PoPs.
    pub hub: bool,
}

macro_rules! city_table {
    ($( $name:literal, $cc:literal, $region:ident, $lat:literal, $lon:literal, $coastal:literal, $hub:literal; )*) => {
        /// Builds the full city table in canonical order.
        pub fn build_cities() -> Vec<City> {
            let rows: Vec<(&'static str, &[u8; 2], Region, f64, f64, bool, bool)> = vec![
                $( ($name, $cc, Region::$region, $lat, $lon, $coastal, $hub), )*
            ];
            rows.into_iter()
                .enumerate()
                .map(|(i, (name, cc, region, lat, lon, coastal, hub))| City {
                    id: CityId(i as u32),
                    name: name.to_string(),
                    country: Country(*cc),
                    region,
                    location: GeoPoint::of(lat, lon),
                    coastal,
                    hub,
                })
                .collect()
        }
    };
}

// name, country, region, lat, lon, coastal, hub
city_table! {
    "London", b"GB", Europe, 51.51, -0.13, true, true;
    "Bude", b"GB", Europe, 50.83, -4.55, true, false;
    "Marseille", b"FR", Europe, 43.30, 5.37, true, true;
    "Paris", b"FR", Europe, 48.86, 2.35, false, false;
    "Amsterdam", b"NL", Europe, 52.37, 4.90, true, true;
    "Frankfurt", b"DE", Europe, 50.11, 8.68, false, true;
    "Hamburg", b"DE", Europe, 53.55, 9.99, true, false;
    "Lisbon", b"PT", Europe, 38.72, -9.14, true, false;
    "Madrid", b"ES", Europe, 40.42, -3.70, false, false;
    "Bilbao", b"ES", Europe, 43.26, -2.93, true, false;
    "Palermo", b"IT", Europe, 38.12, 13.36, true, false;
    "Milan", b"IT", Europe, 45.46, 9.19, false, false;
    "Athens", b"GR", Europe, 37.98, 23.73, true, false;
    "Zurich", b"CH", Europe, 47.37, 8.54, false, false;
    "Istanbul", b"TR", MiddleEast, 41.01, 28.98, true, false;
    "Alexandria", b"EG", Africa, 31.20, 29.92, true, true;
    "Cairo", b"EG", Africa, 30.04, 31.24, false, false;
    "Jeddah", b"SA", MiddleEast, 21.49, 39.19, true, false;
    "Riyadh", b"SA", MiddleEast, 24.71, 46.68, false, false;
    "Djibouti City", b"DJ", Africa, 11.59, 43.15, true, false;
    "Muscat", b"OM", MiddleEast, 23.61, 58.59, true, false;
    "Fujairah", b"AE", MiddleEast, 25.13, 56.33, true, true;
    "Doha", b"QA", MiddleEast, 25.29, 51.53, true, false;
    "Karachi", b"PK", Asia, 24.86, 67.00, true, false;
    "Mumbai", b"IN", Asia, 19.08, 72.88, true, true;
    "Chennai", b"IN", Asia, 13.08, 80.27, true, false;
    "Colombo", b"LK", Asia, 6.93, 79.85, true, false;
    "Male", b"MV", Asia, 4.18, 73.51, true, false;
    "Dhaka", b"BD", Asia, 23.81, 90.41, true, false;
    "Yangon", b"MM", Asia, 16.87, 96.20, true, false;
    "Bangkok", b"TH", Asia, 13.76, 100.50, true, false;
    "Kuala Lumpur", b"MY", Asia, 3.139, 101.69, true, false;
    "Singapore", b"SG", Asia, 1.35, 103.82, true, true;
    "Jakarta", b"ID", Asia, -6.21, 106.85, true, false;
    "Ho Chi Minh City", b"VN", Asia, 10.82, 106.63, true, false;
    "Hong Kong", b"HK", Asia, 22.32, 114.17, true, true;
    "Shanghai", b"CN", Asia, 31.23, 121.47, true, false;
    "Taipei", b"TW", Asia, 25.03, 121.57, true, false;
    "Busan", b"KR", Asia, 35.18, 129.08, true, false;
    "Tokyo", b"JP", Asia, 35.68, 139.69, true, true;
    "Almaty", b"KZ", Asia, 43.22, 76.85, false, false;
    "Sydney", b"AU", Oceania, -33.87, 151.21, true, true;
    "Perth", b"AU", Oceania, -31.95, 115.86, true, false;
    "New York", b"US", NorthAmerica, 40.71, -74.01, true, true;
    "Los Angeles", b"US", NorthAmerica, 34.05, -118.24, true, true;
    "Miami", b"US", NorthAmerica, 25.76, -80.19, true, false;
    "Toronto", b"CA", NorthAmerica, 43.65, -79.38, true, false;
    "Sao Paulo", b"BR", SouthAmerica, -23.55, -46.63, true, true;
    "Fortaleza", b"BR", SouthAmerica, -3.73, -38.52, true, false;
    "Lagos", b"NG", Africa, 6.45, 3.40, true, false;
    "Mombasa", b"KE", Africa, -4.04, 39.67, true, false;
    "Cape Town", b"ZA", Africa, -33.92, 18.42, true, false;
}

/// Finds a city by `(country code, name)`; panics if absent — the cable
/// table only references cities that exist.
#[expect(clippy::panic, reason = "the cable table names only cities in this table")]
pub fn city_index(cities: &[City], cc: &str, name: &str) -> CityId {
    #[expect(clippy::expect_used, reason = "the cable table passes literal ISO codes")]
    let country = Country::parse(cc).expect("valid country code");
    cities
        .iter()
        .find(|c| c.country == country && c.name == name)
        .map(|c| c.id)
        .unwrap_or_else(|| panic!("city {name} ({cc}) not in table"))
}

/// The designated hub city of each region (tier-1 interconnection points).
#[expect(clippy::expect_used, reason = "the city table has cities in every region")]
pub fn region_hub(cities: &[City], region: Region) -> CityId {
    cities
        .iter()
        .find(|c| c.region == region && c.hub)
        .or_else(|| cities.iter().find(|c| c.region == region))
        .map(|c| c.id)
        .expect("every region has at least one city")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_ordered() {
        let cities = build_cities();
        for (i, c) in cities.iter().enumerate() {
            assert_eq!(c.id.index(), i);
        }
        assert!(cities.len() >= 50);
    }

    #[test]
    fn every_country_has_a_city() {
        let cities = build_cities();
        for info in net_model::country::all_countries() {
            assert!(
                cities.iter().any(|c| c.country == info.code),
                "{} has no city",
                info.name
            );
        }
    }

    #[test]
    fn coastal_flags_are_consistent_with_country_table() {
        let cities = build_cities();
        for c in &cities {
            if c.coastal {
                let info = c.country.info().expect("known country");
                assert!(info.coastal, "coastal city {} in landlocked {}", c.name, info.name);
            }
        }
    }

    #[test]
    fn city_lookup_by_country_and_name() {
        let cities = build_cities();
        let sg = city_index(&cities, "SG", "Singapore");
        assert_eq!(cities[sg.index()].name, "Singapore");
    }

    #[test]
    fn each_region_has_hub() {
        let cities = build_cities();
        for r in Region::ALL {
            let hub = region_hub(&cities, r);
            assert_eq!(cities[hub.index()].region, r);
        }
    }

    #[test]
    #[should_panic(expected = "not in table")]
    fn unknown_city_panics() {
        let cities = build_cities();
        city_index(&cities, "SG", "Atlantis");
    }
}
