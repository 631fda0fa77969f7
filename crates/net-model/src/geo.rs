//! Geographic primitives: points on the globe, great-circle distance, and
//! the propagation-latency model used by the traceroute and Nautilus
//! substrates.
//!
//! Latitude/longitude are stored in micro-degrees as `i64` so that
//! `GeoPoint` is `Eq + Hash` and deterministic across platforms; all
//! computation converts to `f64` radians at the edges.

use serde::{Deserialize, Serialize};

use crate::{ModelError, Result};

/// Mean Earth radius in kilometres (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Speed of light in vacuum, km per millisecond.
pub const SPEED_OF_LIGHT_KM_PER_MS: f64 = 299.792_458;

/// Effective propagation speed in optical fiber: roughly 2/3 of c.
pub const FIBER_SPEED_KM_PER_MS: f64 = SPEED_OF_LIGHT_KM_PER_MS * 2.0 / 3.0;

/// Submarine cables do not follow great circles: slack, routing around
/// hazards and landing constraints add path length. Nautilus uses a
/// comparable inflation factor when validating mappings against RTTs.
pub const CABLE_PATH_INFLATION: f64 = 1.2;

/// A point on the Earth's surface, stored in micro-degrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in micro-degrees, range `[-90e6, 90e6]`.
    lat_micro: i64,
    /// Longitude in micro-degrees, range `[-180e6, 180e6]`.
    lon_micro: i64,
}

impl GeoPoint {
    /// Builds a point from degrees, validating the ranges.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Result<Self> {
        let lat_micro = (lat_deg * 1e6).round() as i64;
        let lon_micro = (lon_deg * 1e6).round() as i64;
        if !(-90_000_000..=90_000_000).contains(&lat_micro)
            || !(-180_000_000..=180_000_000).contains(&lon_micro)
        {
            return Err(ModelError::InvalidCoordinate { lat_micro, lon_micro });
        }
        Ok(GeoPoint { lat_micro, lon_micro })
    }

    /// Builds a point from degrees, panicking on invalid input.
    ///
    /// Intended for compile-time-known coordinates (the world generator's
    /// city tables); use [`GeoPoint::new`] for untrusted input.
    #[expect(
        clippy::expect_used,
        reason = "for coordinate literals; GeoPoint::new takes untrusted input"
    )]
    pub fn of(lat_deg: f64, lon_deg: f64) -> Self {
        Self::new(lat_deg, lon_deg).expect("coordinate literal out of range")
    }

    /// Latitude in degrees.
    pub fn lat(&self) -> f64 {
        self.lat_micro as f64 / 1e6
    }

    /// Longitude in degrees.
    pub fn lon(&self) -> f64 {
        self.lon_micro as f64 / 1e6
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat().to_radians(), self.lon().to_radians());
        let (lat2, lon2) = (other.lat().to_radians(), other.lon().to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2)
            + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().min(1.0).asin()
    }

    /// One-way propagation delay over fiber laid along (approximately) the
    /// great circle between the two points, in milliseconds.
    pub fn fiber_latency_ms(&self, other: &GeoPoint) -> f64 {
        self.distance_km(other) * CABLE_PATH_INFLATION / FIBER_SPEED_KM_PER_MS
    }

    /// Minimum physically possible one-way delay (straight fiber, no slack).
    /// Nautilus uses this as the speed-of-light sanity bound: any measured
    /// RTT below `2 *` this value is physically impossible.
    pub fn min_fiber_latency_ms(&self, other: &GeoPoint) -> f64 {
        self.distance_km(other) / FIBER_SPEED_KM_PER_MS
    }

    /// Linear interpolation along the segment (in coordinate space).
    ///
    /// Good enough for placing intermediate cable waypoints in the synthetic
    /// world; not a geodesic interpolation.
    pub fn lerp(&self, other: &GeoPoint, t: f64) -> GeoPoint {
        let t = t.clamp(0.0, 1.0);
        GeoPoint {
            lat_micro: self.lat_micro
                + ((other.lat_micro - self.lat_micro) as f64 * t).trunc() as i64,
            lon_micro: self.lon_micro
                + ((other.lon_micro - self.lon_micro) as f64 * t).trunc() as i64,
        }
    }
}

impl std::fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat(), self.lon())
    }
}

/// An axis-aligned geographic bounding box, used to express spatial scopes
/// such as "Europe" or a disaster's affected area.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoBounds {
    pub min_lat: f64,
    pub max_lat: f64,
    pub min_lon: f64,
    pub max_lon: f64,
}

impl GeoBounds {
    /// Builds a bounding box; callers must pass `min <= max` on both axes.
    pub fn new(min_lat: f64, max_lat: f64, min_lon: f64, max_lon: f64) -> Self {
        debug_assert!(min_lat <= max_lat && min_lon <= max_lon);
        GeoBounds { min_lat, max_lat, min_lon, max_lon }
    }

    /// Whether the point falls inside (inclusive) the box.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        let (lat, lon) = (p.lat(), p.lon());
        lat >= self.min_lat && lat <= self.max_lat && lon >= self.min_lon && lon <= self.max_lon
    }

    /// Geometric centre of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::of(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )
    }
}

/// A circular disaster footprint: an epicentre and a radius.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoCircle {
    pub center: GeoPoint,
    pub radius_km: f64,
}

impl GeoCircle {
    pub fn new(center: GeoPoint, radius_km: f64) -> Self {
        GeoCircle { center, radius_km }
    }

    /// Whether the point lies within the footprint.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        self.center.distance_km(p) <= self.radius_km
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distances() {
        // London <-> New York is ~5570 km.
        let london = GeoPoint::of(51.5074, -0.1278);
        let nyc = GeoPoint::of(40.7128, -74.0060);
        let d = london.distance_km(&nyc);
        assert!((5500.0..5650.0).contains(&d), "got {d}");

        // Singapore <-> Marseille (SeaMeWe-5 endpoints) is ~10,000 km direct.
        let sin = GeoPoint::of(1.3521, 103.8198);
        let mrs = GeoPoint::of(43.2965, 5.3698);
        let d = sin.distance_km(&mrs);
        assert!((9800.0..10600.0).contains(&d), "got {d}");
    }

    #[test]
    fn distance_is_zero_on_self_and_symmetric() {
        let a = GeoPoint::of(12.34, 56.78);
        let b = GeoPoint::of(-45.0, 170.0);
        assert!(a.distance_km(&a) < 1e-9);
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn fiber_latency_exceeds_physical_minimum() {
        let a = GeoPoint::of(35.0, 139.0);
        let b = GeoPoint::of(37.0, -122.0);
        assert!(a.fiber_latency_ms(&b) > a.min_fiber_latency_ms(&b));
    }

    #[test]
    fn invalid_coordinates_rejected() {
        assert!(GeoPoint::new(91.0, 0.0).is_err());
        assert!(GeoPoint::new(0.0, -180.5).is_err());
        assert!(GeoPoint::new(-90.0, 180.0).is_ok());
    }

    #[test]
    fn bounds_contains_center() {
        let b = GeoBounds::new(35.0, 70.0, -10.0, 40.0); // roughly Europe
        assert!(b.contains(&b.center()));
        assert!(b.contains(&GeoPoint::of(48.85, 2.35))); // Paris
        assert!(!b.contains(&GeoPoint::of(1.35, 103.82))); // Singapore
    }

    #[test]
    fn circle_contains_epicentre_and_respects_radius() {
        let c = GeoCircle::new(GeoPoint::of(38.0, 23.7), 300.0);
        assert!(c.contains(&GeoPoint::of(38.0, 23.7)));
        assert!(c.contains(&GeoPoint::of(39.0, 23.7))); // ~111 km north
        assert!(!c.contains(&GeoPoint::of(48.85, 2.35)));
    }

    #[test]
    fn lerp_endpoints() {
        let a = GeoPoint::of(0.0, 0.0);
        let b = GeoPoint::of(10.0, 20.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.lat() - 5.0).abs() < 1e-5);
        assert!((mid.lon() - 10.0).abs() < 1e-5);
    }

    #[test]
    fn display_formats_degrees() {
        let p = GeoPoint::of(1.5, -2.25);
        assert_eq!(format!("{p}"), "(1.5000, -2.2500)");
    }
}
