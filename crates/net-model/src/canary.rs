//! Canaries for the lint contract: `clippy.toml` and the root
//! `[workspace.lints]` table.
//!
//! Each item trips one banned path or denied lint under an `#[expect]`.
//! If a ban is dropped or a lint stops firing, its expectation goes
//! unfulfilled and `cargo clippy --workspace --all-targets -- -D warnings`
//! fails. The module compiles only under clippy, so no canary reaches a
//! binary. `unsafe_code` is `forbid`, which no `#[expect]` may name; the
//! conformance self-scan test pins that level instead.

#[expect(clippy::disallowed_types, reason = "canary")]
pub type HashMapCanary = std::collections::HashMap<u8, u8>;

#[expect(clippy::disallowed_types, reason = "canary")]
pub type HashSetCanary = std::collections::HashSet<u8>;

#[expect(clippy::disallowed_types, reason = "canary")]
pub type InstantCanary = std::time::Instant;

#[expect(clippy::disallowed_types, reason = "canary")]
pub type SystemTimeCanary = std::time::SystemTime;

#[expect(clippy::disallowed_methods, reason = "canary")]
pub fn spawn_canary() {
    drop(std::thread::spawn(|| {}));
}

#[expect(clippy::disallowed_methods, reason = "canary")]
pub fn scope_canary() {
    std::thread::scope(|_| {});
}

#[expect(clippy::disallowed_methods, reason = "canary")]
pub fn available_parallelism_canary() -> bool {
    std::thread::available_parallelism().is_ok()
}

// `thread_local!` is reported at the crate root, so this canary's
// expectation is the crate-level `#![expect(…)]` in `lib.rs`.
std::thread_local! {
    pub static THREAD_LOCAL_CANARY: u8 = const { 0 };
}

#[expect(clippy::unwrap_used, reason = "canary")]
pub fn unwrap_canary(x: Option<u8>) -> u8 {
    x.unwrap()
}

#[expect(clippy::expect_used, reason = "canary")]
pub fn expect_canary(x: Option<u8>) -> u8 {
    x.expect("canary")
}

#[expect(clippy::panic, reason = "canary")]
pub fn panic_canary() {
    panic!("canary");
}

#[expect(clippy::unreachable, reason = "canary")]
pub fn unreachable_canary() {
    unreachable!("canary");
}

#[expect(clippy::allow_attributes, clippy::allow_attributes_without_reason, reason = "canary")]
pub mod allow_canary {
    #[allow(dead_code)]
    fn unused() {}
}
