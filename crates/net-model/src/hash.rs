//! Stable hashing shared across crates: content hashes, event identities
//! and deterministic draws are built from these two functions.
//!
//! Both are pinned by golden values below. Scenario outcomes, provenance
//! records and traces depend on them, so neither may change.

/// SplitMix64-style mixing of a sequence of words into one hash.
/// Stable across platforms and releases — scenario outcomes depend on it.
pub fn stable_hash(parts: &[u64]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &p in parts {
        let mut z = h ^ p.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// FNV-style fold of a string's bytes into one word, for feeding names
/// into [`stable_hash`]. The multiplier is `0x1000_0000_01b3`, not the
/// standard FNV-1a prime; it is kept as is because hashes already
/// derived from it must not move.
pub fn stable_str_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_values_are_pinned() {
        assert_eq!(stable_hash(&[1, 2, 3]), 0x94345a36200c08e7);
        assert_eq!(stable_str_hash("SeaMeWe-5"), 0x527e3cf09ae56df4);
    }
}
