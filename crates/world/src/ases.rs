//! The autonomous-system layer: tiered topology and business relationships.
//!
//! The synthetic AS ecosystem mirrors the structure measurement research
//! cares about:
//!
//! * **Tier-1 backbones** — a global clique of transit-free networks with
//!   PoPs at every regional hub;
//! * **National transit** — one incumbent per country, customer of two or
//!   three geographically sensible tier-1s;
//! * **Access networks** — per-country eyeball ASes, customers of their
//!   national incumbent (and occasionally a second upstream for
//!   multihoming);
//! * **Content providers** — CDN-style networks present at many hubs,
//!   peering widely (the "major content providers" the paper's motivating
//!   query asks about).

use net_model::{Asn, CityId, Country, Region};
use serde::{Deserialize, Serialize};

/// Role of an AS in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AsTier {
    /// Transit-free global backbone.
    Tier1,
    /// National/regional transit provider.
    Transit,
    /// Eyeball / access network.
    Access,
    /// Content provider (CDN).
    Content,
}

impl AsTier {
    pub fn name(&self) -> &'static str {
        match self {
            AsTier::Tier1 => "tier1",
            AsTier::Transit => "transit",
            AsTier::Access => "access",
            AsTier::Content => "content",
        }
    }
}

/// Metadata for one AS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsInfo {
    pub asn: Asn,
    pub name: String,
    pub tier: AsTier,
    /// Registration country (where the operator is headquartered).
    pub country: Country,
    pub region: Region,
    /// Cities where this AS has a PoP/router presence.
    pub presence: Vec<CityId>,
}

/// Kind of business relationship, directed from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelKind {
    /// `a` sells transit to `b` (`a` is the provider, `b` the customer).
    ProviderCustomer,
    /// Settlement-free peering between `a` and `b`.
    Peer,
}

/// One AS-level relationship record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsRelationship {
    pub a: Asn,
    pub b: Asn,
    pub kind: RelKind,
}

impl AsRelationship {
    /// Provider → customer edge.
    pub fn transit(provider: Asn, customer: Asn) -> Self {
        AsRelationship { a: provider, b: customer, kind: RelKind::ProviderCustomer }
    }

    /// Peering edge (stored with the lower ASN first for canonical form).
    pub fn peering(x: Asn, y: Asn) -> Self {
        let (a, b) = if x <= y { (x, y) } else { (y, x) };
        AsRelationship { a, b, kind: RelKind::Peer }
    }

    /// Whether this relationship involves the given ASN.
    pub fn involves(&self, asn: Asn) -> bool {
        self.a == asn || self.b == asn
    }

    /// The other endpoint, if `asn` is one of the two.
    pub fn other(&self, asn: Asn) -> Option<Asn> {
        if self.a == asn {
            Some(self.b)
        } else if self.b == asn {
            Some(self.a)
        } else {
            None
        }
    }
}

/// ASN allocation bands, so a raw ASN is self-describing in debug output.
pub mod asn_bands {
    /// Tier-1 backbones: 1001, 1002, …
    pub const TIER1_BASE: u32 = 1_000;
    /// National transit: 2000 + country index.
    pub const TRANSIT_BASE: u32 = 2_000;
    /// Access networks: 3000 + running index.
    pub const ACCESS_BASE: u32 = 3_000;
    /// Content providers: 15000 + i.
    pub const CONTENT_BASE: u32 = 15_000;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peering_is_canonicalized() {
        let r = AsRelationship::peering(Asn(9), Asn(3));
        assert_eq!(r.a, Asn(3));
        assert_eq!(r.b, Asn(9));
        assert_eq!(r.kind, RelKind::Peer);
    }

    #[test]
    fn transit_keeps_direction() {
        let r = AsRelationship::transit(Asn(9), Asn(3));
        assert_eq!(r.a, Asn(9), "provider first");
        assert_eq!(r.b, Asn(3));
    }

    #[test]
    fn involves_and_other() {
        let r = AsRelationship::transit(Asn(1), Asn(2));
        assert!(r.involves(Asn(1)) && r.involves(Asn(2)) && !r.involves(Asn(3)));
        assert_eq!(r.other(Asn(1)), Some(Asn(2)));
        assert_eq!(r.other(Asn(3)), None);
    }

    #[test]
    fn tier_names() {
        assert_eq!(AsTier::Tier1.name(), "tier1");
        assert_eq!(AsTier::Content.name(), "content");
    }
}
