//! IPv4 addresses and prefixes.
//!
//! A thin, deterministic reimplementation of the pieces of the `ipnet`
//! ecosystem the substrates need: address arithmetic, prefix containment,
//! overlap tests and canonical formatting. Addresses are plain `u32`
//! wrappers so tables of millions of them stay compact.

use serde::{Deserialize, Serialize};

use crate::{ModelError, Result};

/// An IPv4 address (network byte order semantics, host-order storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Builds an address from dotted-quad octets.
    pub fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// The four octets.
    pub fn octets(&self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Parses a dotted-quad string.
    pub fn parse(s: &str) -> Result<Self> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(ModelError::Parse { what: "Ipv4Addr", input: s.to_string() });
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p
                .parse::<u8>()
                .map_err(|_| ModelError::Parse { what: "Ipv4Addr", input: s.to_string() })?;
        }
        Ok(Ipv4Addr(u32::from_be_bytes(octets)))
    }

    /// Address `offset` positions after `self`, saturating at the top of the
    /// address space.
    pub fn offset(&self, offset: u32) -> Ipv4Addr {
        Ipv4Addr(self.0.saturating_add(offset))
    }
}

impl std::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// An IPv4 prefix in CIDR notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv4Net {
    network: Ipv4Addr,
    len: u8,
}

impl Ipv4Net {
    /// Builds a prefix, canonicalizing the network address (host bits are
    /// zeroed) and validating the length.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self> {
        if len > 32 {
            return Err(ModelError::InvalidPrefixLength(len));
        }
        Ok(Ipv4Net { network: Ipv4Addr(addr.0 & Self::mask_bits(len)), len })
    }

    /// Parses `a.b.c.d/len`.
    pub fn parse(s: &str) -> Result<Self> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| ModelError::Parse { what: "Ipv4Net", input: s.to_string() })?;
        let len: u8 = len
            .parse()
            .map_err(|_| ModelError::Parse { what: "Ipv4Net", input: s.to_string() })?;
        Ipv4Net::new(Ipv4Addr::parse(addr)?, len)
    }

    fn mask_bits(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// The (canonicalized) network address.
    pub fn network(&self) -> Ipv4Addr {
        self.network
    }

    /// The prefix length.
    #[expect(
        clippy::len_without_is_empty,
        reason = "not a container length: a /0 prefix covers the whole address space"
    )]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered by the prefix.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len as u64)
    }

    /// Whether `addr` falls inside the prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        (addr.0 & Self::mask_bits(self.len)) == self.network.0
    }

    /// Whether the two prefixes share any address.
    pub fn overlaps(&self, other: &Ipv4Net) -> bool {
        let shorter = self.len.min(other.len);
        let mask = Self::mask_bits(shorter);
        (self.network.0 & mask) == (other.network.0 & mask)
    }

    /// Whether `other` is fully contained in `self` (or equal).
    pub fn covers(&self, other: &Ipv4Net) -> bool {
        self.len <= other.len && self.contains(other.network)
    }

    /// The `i`-th host address within the prefix (no broadcast/network
    /// conventions — the simulator treats the block as a flat pool).
    pub fn host(&self, i: u32) -> Ipv4Addr {
        debug_assert!((i as u64) < self.size());
        Ipv4Addr(self.network.0 + i)
    }
}

impl std::fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.network, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parse_and_display_roundtrip() {
        let a = Ipv4Addr::parse("192.0.2.17").unwrap();
        assert_eq!(a.to_string(), "192.0.2.17");
        assert_eq!(a.octets(), [192, 0, 2, 17]);
    }

    #[test]
    fn addr_parse_rejects_malformed() {
        for bad in ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""] {
            assert!(Ipv4Addr::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn prefix_canonicalizes_host_bits() {
        let p = Ipv4Net::new(Ipv4Addr::parse("10.1.2.3").unwrap(), 16).unwrap();
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert_eq!(p.size(), 65536);
    }

    #[test]
    fn prefix_contains_and_covers() {
        let p = Ipv4Net::parse("203.0.113.0/24").unwrap();
        assert!(p.contains(Ipv4Addr::parse("203.0.113.200").unwrap()));
        assert!(!p.contains(Ipv4Addr::parse("203.0.114.1").unwrap()));
        let sub = Ipv4Net::parse("203.0.113.128/25").unwrap();
        assert!(p.covers(&sub));
        assert!(!sub.covers(&p));
        assert!(p.covers(&p));
    }

    #[test]
    fn overlap_is_symmetric() {
        let a = Ipv4Net::parse("10.0.0.0/8").unwrap();
        let b = Ipv4Net::parse("10.42.0.0/16").unwrap();
        let c = Ipv4Net::parse("192.168.0.0/16").unwrap();
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
    }

    #[test]
    fn zero_length_prefix_contains_everything() {
        let p = Ipv4Net::parse("0.0.0.0/0").unwrap();
        assert!(p.contains(Ipv4Addr::parse("255.255.255.255").unwrap()));
        assert_eq!(p.size(), 1 << 32);
    }

    #[test]
    fn invalid_length_rejected() {
        assert!(Ipv4Net::new(Ipv4Addr(0), 33).is_err());
        assert!(Ipv4Net::parse("1.2.3.0/40").is_err());
    }

    #[test]
    fn host_enumeration() {
        let p = Ipv4Net::parse("198.51.100.0/30").unwrap();
        assert_eq!(p.host(0).to_string(), "198.51.100.0");
        assert_eq!(p.host(3).to_string(), "198.51.100.3");
    }
}
