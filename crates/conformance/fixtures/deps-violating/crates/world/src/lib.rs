//! Line-scan-clean source: this fixture tree violates only at the
//! manifest layer.

pub fn double(x: u64) -> u64 {
    x * 2
}
