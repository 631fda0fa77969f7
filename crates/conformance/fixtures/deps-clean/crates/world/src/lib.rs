//! Line-scan-clean source for the manifest-layer fixture.

pub fn triple(x: u64) -> u64 {
    x * 3
}
