//! # net-model
//!
//! Foundational types shared by every crate in the ArachNet reproduction:
//! geography (coordinates, great-circle distance, fiber latency), political
//! geography (countries and regions), network identifiers (ASNs, prefixes,
//! IP addresses, cable/link/probe ids), and simulation time — plus the two
//! pieces of shared machinery every layer leans on: the stable hashes
//! ([`hash`]) and [`OnceMap`], the workspace's one build-once cache shape.
//!
//! The design goal is the same as smoltcp's: simple, robust, well-documented
//! value types with no clever type machinery. Everything here is `Copy` or
//! cheaply `Clone`, serializable, hashable, and totally ordered where a
//! canonical order exists — the substrate simulators rely on deterministic
//! iteration order for reproducibility.

// The `thread_local!` canary in `canary` is reported here, at the crate root.
#![expect(clippy::disallowed_macros, reason = "canary")]

pub mod cache;
#[cfg(clippy)]
pub mod canary;
pub mod country;
pub mod geo;
pub mod hash;
pub mod ids;
pub mod ip;
pub mod time;

pub use cache::OnceMap;
pub use country::{Country, Region};
pub use geo::GeoPoint;
pub use ids::{Asn, CableId, CityId, LandingId, LinkId, PrefixId, ProbeId};
pub use ip::{Ipv4Addr, Ipv4Net};
pub use time::{SimDuration, SimTime, TimeWindow};

/// Library-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;

/// Errors produced while constructing or parsing model values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A latitude/longitude pair outside the valid range.
    InvalidCoordinate { lat_micro: i64, lon_micro: i64 },
    /// A prefix length above 32 bits.
    InvalidPrefixLength(u8),
    /// Failed to parse a textual representation.
    Parse { what: &'static str, input: String },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::InvalidCoordinate { lat_micro, lon_micro } => write!(
                f,
                "invalid coordinate: lat={} lon={} (micro-degrees)",
                lat_micro, lon_micro
            ),
            ModelError::InvalidPrefixLength(len) => {
                write!(f, "invalid IPv4 prefix length /{len}")
            }
            ModelError::Parse { what, input } => {
                write!(f, "failed to parse {what} from {input:?}")
            }
        }
    }
}

impl std::error::Error for ModelError {}
