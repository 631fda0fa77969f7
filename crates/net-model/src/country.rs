//! Political geography: countries and the continental regions used for
//! spatial scoping in queries ("Europe-Asia connectivity", "European
//! probes", "Asian destinations").
//!
//! The country set is a fixed, curated table of 40 economies chosen to give
//! the synthetic world realistic submarine-cable geography: island and
//! peninsular economies that depend heavily on specific cable systems, large
//! transit economies, and landlocked countries reachable only terrestrially.

use serde::{Deserialize, Serialize};

use crate::geo::GeoPoint;

/// Continental region. Used by queries for geographic filtering and by the
/// world generator for cable layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Region {
    Europe,
    Asia,
    NorthAmerica,
    SouthAmerica,
    Africa,
    Oceania,
    MiddleEast,
}

impl Region {
    /// All regions, in canonical order.
    pub const ALL: [Region; 7] = [
        Region::Europe,
        Region::Asia,
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Africa,
        Region::Oceania,
        Region::MiddleEast,
    ];

    /// Case-insensitive parse from common English names.
    pub fn parse(s: &str) -> Option<Region> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "europe" | "european" | "eu" => Some(Region::Europe),
            "asia" | "asian" | "apac" => Some(Region::Asia),
            "north america" | "na" | "north-america" => Some(Region::NorthAmerica),
            "south america" | "latam" | "south-america" => Some(Region::SouthAmerica),
            "africa" | "african" => Some(Region::Africa),
            "oceania" | "australia" => Some(Region::Oceania),
            "middle east" | "middle-east" | "mena" => Some(Region::MiddleEast),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Region::Europe => "Europe",
            Region::Asia => "Asia",
            Region::NorthAmerica => "North America",
            Region::SouthAmerica => "South America",
            Region::Africa => "Africa",
            Region::Oceania => "Oceania",
            Region::MiddleEast => "Middle East",
        }
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An ISO-3166-alpha-2-style country code. The table below is the closed
/// set of countries that exist in the synthetic world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Country(pub [u8; 2]);

/// One row of the country table.
#[derive(Debug, Clone, Copy)]
pub struct CountryInfo {
    pub code: Country,
    pub name: &'static str,
    pub region: Region,
    /// Representative coordinate (capital or main landing hub).
    pub anchor: GeoPoint,
    /// Whether the country has a coastline (and therefore cable landings).
    pub coastal: bool,
}

macro_rules! country_table {
    ($( $code:literal, $name:literal, $region:ident, $lat:literal, $lon:literal, $coastal:literal; )*) => {
        /// The full country table, in canonical (alphabetical-by-code) order.
        pub fn all_countries() -> Vec<CountryInfo> {
            vec![
                $( CountryInfo {
                    code: Country(*$code),
                    name: $name,
                    region: Region::$region,
                    anchor: GeoPoint::of($lat, $lon),
                    coastal: $coastal,
                }, )*
            ]
        }
    };
}

country_table! {
    b"AE", "United Arab Emirates", MiddleEast, 25.20, 55.27, true;
    b"AU", "Australia", Oceania, -33.87, 151.21, true;
    b"BD", "Bangladesh", Asia, 23.81, 90.41, true;
    b"BR", "Brazil", SouthAmerica, -23.55, -46.63, true;
    b"CA", "Canada", NorthAmerica, 43.65, -79.38, true;
    b"CH", "Switzerland", Europe, 47.37, 8.54, false;
    b"CN", "China", Asia, 31.23, 121.47, true;
    b"DE", "Germany", Europe, 50.11, 8.68, true;
    b"DJ", "Djibouti", Africa, 11.59, 43.15, true;
    b"EG", "Egypt", Africa, 30.04, 31.24, true;
    b"ES", "Spain", Europe, 40.42, -3.70, true;
    b"FR", "France", Europe, 43.30, 5.37, true;
    b"GB", "United Kingdom", Europe, 51.51, -0.13, true;
    b"GR", "Greece", Europe, 37.98, 23.73, true;
    b"HK", "Hong Kong", Asia, 22.32, 114.17, true;
    b"ID", "Indonesia", Asia, -6.21, 106.85, true;
    b"IN", "India", Asia, 19.08, 72.88, true;
    b"IT", "Italy", Europe, 38.12, 13.36, true;
    b"JP", "Japan", Asia, 35.68, 139.69, true;
    b"KE", "Kenya", Africa, -4.04, 39.67, true;
    b"KR", "South Korea", Asia, 35.18, 129.08, true;
    b"KZ", "Kazakhstan", Asia, 43.22, 76.85, false;
    b"LK", "Sri Lanka", Asia, 6.93, 79.85, true;
    b"MM", "Myanmar", Asia, 16.87, 96.20, true;
    b"MV", "Maldives", Asia, 4.18, 73.51, true;
    b"MY", "Malaysia", Asia, 3.139, 101.69, true;
    b"NG", "Nigeria", Africa, 6.45, 3.40, true;
    b"NL", "Netherlands", Europe, 52.37, 4.90, true;
    b"OM", "Oman", MiddleEast, 23.61, 58.59, true;
    b"PK", "Pakistan", Asia, 24.86, 67.00, true;
    b"PT", "Portugal", Europe, 38.72, -9.14, true;
    b"QA", "Qatar", MiddleEast, 25.29, 51.53, true;
    b"SA", "Saudi Arabia", MiddleEast, 21.49, 39.19, true;
    b"SG", "Singapore", Asia, 1.35, 103.82, true;
    b"TH", "Thailand", Asia, 13.76, 100.50, true;
    b"TR", "Turkey", MiddleEast, 41.01, 28.98, true;
    b"TW", "Taiwan", Asia, 25.03, 121.57, true;
    b"US", "United States", NorthAmerica, 40.71, -74.01, true;
    b"VN", "Vietnam", Asia, 10.82, 106.63, true;
    b"ZA", "South Africa", Africa, -33.92, 18.42, true;
}

impl Country {
    /// Builds a code from a two-letter ASCII string, uppercasing it.
    pub fn parse(s: &str) -> Option<Country> {
        let bytes = s.as_bytes();
        if bytes.len() != 2 || !bytes.iter().all(|b| b.is_ascii_alphabetic()) {
            return None;
        }
        Some(Country([bytes[0].to_ascii_uppercase(), bytes[1].to_ascii_uppercase()]))
    }

    /// The two-letter code as a `&str`.
    #[expect(clippy::expect_used, reason = "country codes are two ASCII letters")]
    pub fn code(&self) -> &str {
        std::str::from_utf8(&self.0).expect("country codes are ASCII")
    }

    /// Looks the country up in the canonical table.
    pub fn info(&self) -> Option<CountryInfo> {
        all_countries().into_iter().find(|c| c.code == *self)
    }

    /// English name, or the raw code for countries outside the table.
    pub fn name(&self) -> String {
        self.info().map(|i| i.name.to_string()).unwrap_or_else(|| self.code().to_string())
    }

    /// Continental region, if the country is in the table.
    pub fn region(&self) -> Option<Region> {
        self.info().map(|i| i.region)
    }
}

impl std::fmt::Display for Country {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Finds a country by (case-insensitive) English name.
pub fn country_by_name(name: &str) -> Option<CountryInfo> {
    let lower = name.to_ascii_lowercase();
    all_countries().into_iter().find(|c| c.name.to_ascii_lowercase() == lower)
}

/// All countries belonging to the given region, in canonical order.
pub fn countries_in_region(region: Region) -> Vec<CountryInfo> {
    all_countries().into_iter().filter(|c| c.region == region).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_unique() {
        let all = all_countries();
        for pair in all.windows(2) {
            assert!(pair[0].code < pair[1].code, "table must be sorted & deduped");
        }
        assert_eq!(all.len(), 40);
    }

    #[test]
    fn parse_roundtrip() {
        let c = Country::parse("sg").unwrap();
        assert_eq!(c.code(), "SG");
        assert_eq!(c.name(), "Singapore");
        assert_eq!(c.region(), Some(Region::Asia));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Country::parse("S").is_none());
        assert!(Country::parse("SGP").is_none());
        assert!(Country::parse("1!").is_none());
    }

    #[test]
    fn region_parse_aliases() {
        assert_eq!(Region::parse("European"), Some(Region::Europe));
        assert_eq!(Region::parse("ASIA"), Some(Region::Asia));
        assert_eq!(Region::parse("middle east"), Some(Region::MiddleEast));
        assert_eq!(Region::parse("atlantis"), None);
    }

    #[test]
    fn every_region_has_a_country() {
        for r in Region::ALL {
            assert!(
                !countries_in_region(r).is_empty(),
                "region {r} has no countries in the table"
            );
        }
    }

    #[test]
    fn landlocked_countries_flagged() {
        assert!(!country_by_name("Switzerland").unwrap().coastal);
        assert!(!country_by_name("Kazakhstan").unwrap().coastal);
        assert!(country_by_name("Singapore").unwrap().coastal);
    }

    #[test]
    fn lookup_by_name_case_insensitive() {
        assert_eq!(country_by_name("sOuTh KoReA").unwrap().code.code(), "KR");
        assert!(country_by_name("Narnia").is_none());
    }
}
