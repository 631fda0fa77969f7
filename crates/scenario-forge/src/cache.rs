//! The content-addressed world cache, built on [`OnceMap`], the
//! workspace's one cache shape (it lives in `net_model`; this crate
//! re-exports it).
//!
//! [`world::generate`] is the serving stack's remaining cold-start cost:
//! a full world (physical + network + measurement layers) takes hundreds
//! of milliseconds to build. Scenario families multiply scenarios much
//! faster than they multiply *worlds* — a ten-scenario fleet typically
//! names two or three distinct [`WorldConfig`]s — so the cache keys
//! generated worlds by the config's bit-exact content identity
//! ([`WorldConfig::canonical_bits`]) and hands every matching request
//! the same `Arc<World>`. `toolkit`'s `ArtifactStore` and its
//! `world_artifacts` map are `OnceMap`s too.

use std::sync::{Arc, OnceLock};

pub use net_model::OnceMap;
use parking_lot::Mutex;
use world::{generate, World, WorldConfig};

/// Generated worlds, content-addressed by [`WorldConfig`]: a
/// [`OnceMap`] whose builder is [`world::generate`]. Generation cannot
/// fail, so `len()` is the number of worlds built.
#[derive(Default)]
pub struct WorldCache(OnceMap<WorldConfig, Arc<World>>);

impl WorldCache {
    /// An empty cache.
    pub fn new() -> Self {
        WorldCache::default()
    }

    /// The shared world for `config`, generating (once) on a miss.
    pub fn get_or_generate(&self, config: &WorldConfig) -> Arc<World> {
        self.0.get_or_init(config, || Arc::new(generate(config))).0
    }

    /// The world for `config` if it is already built; never generates.
    pub fn get(&self, config: &WorldConfig) -> Option<Arc<World>> {
        self.0.get(config)
    }

    /// Number of worlds built or being built.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no world has been requested.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The process-wide world cache. `toolkit::scenarios` routes the
/// standard evaluation world through it, and `arachnet::Engine` delegates
/// through a [`SharedWorldCache`] view, so case studies, benches and
/// engine fleets in one process all share a single generation per
/// config.
pub fn global_cache() -> &'static WorldCache {
    static CACHE: OnceLock<WorldCache> = OnceLock::new();
    CACHE.get_or_init(WorldCache::new)
}

/// A per-owner view over the process-wide [`global_cache`]: generation
/// delegates to the shared cache — so a process mixing case-study
/// scenarios with engine fleets pays **one** build per config instead of
/// one per cache — while the view keeps its own deterministic stats hook.
///
/// The hook counts the *distinct configs first requested through this
/// view*: exactly the number of generations a private cache would have
/// performed for this owner, regardless of what other owners (or earlier
/// tests in the process) already warmed in the shared cache. That keeps
/// per-engine diagnostics deterministic; [`SharedWorldCache::shared`]
/// exposes the underlying cache for process-wide truth.
pub struct SharedWorldCache {
    shared: &'static WorldCache,
    requested: Mutex<std::collections::BTreeSet<WorldConfig>>,
}

impl SharedWorldCache {
    /// A view over the process-wide [`global_cache`].
    pub fn over_global() -> SharedWorldCache {
        SharedWorldCache {
            shared: global_cache(),
            requested: Mutex::new(std::collections::BTreeSet::new()),
        }
    }

    /// The shared world for `config` — generated at most once per
    /// *process*, and recorded against this view's stats.
    pub fn get_or_generate(&self, config: &WorldConfig) -> Arc<World> {
        self.requested.lock().insert(config.clone());
        self.shared.get_or_generate(config)
    }

    /// Distinct configs requested through this view — the number of
    /// generations a private cache would have performed for this owner.
    /// Deterministic regardless of what else warmed the shared cache.
    pub fn generations(&self) -> usize {
        self.requested.lock().len()
    }

    /// The underlying shared cache (process-wide stats live there).
    pub fn shared(&self) -> &'static WorldCache {
        self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_same_arc_and_generates_once() {
        let cache = WorldCache::new();
        let config = WorldConfig { seed: 7, ..WorldConfig::default() };
        let a = cache.get_or_generate(&config);
        let b = cache.get_or_generate(&config);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&config).is_some());
    }

    #[test]
    fn distinct_configs_get_distinct_worlds() {
        let cache = WorldCache::new();
        let a = cache.get_or_generate(&WorldConfig { seed: 1, ..WorldConfig::default() });
        let b = cache.get_or_generate(&WorldConfig { seed: 2, ..WorldConfig::default() });
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn get_misses_before_generation() {
        let cache = WorldCache::new();
        assert!(cache.is_empty());
        assert!(cache.get(&WorldConfig::default()).is_none());
    }

    #[test]
    fn shared_view_counts_deterministically_and_shares_arcs() {
        // Two views over the global cache: each counts its own distinct
        // requests (as if it owned a private cache), but both hand out
        // the *same* Arc — one generation per process per config.
        let a = SharedWorldCache::over_global();
        let b = SharedWorldCache::over_global();
        assert_eq!(a.generations(), 0);
        let config = WorldConfig { seed: 90_001, ..WorldConfig::default() };
        let wa = a.get_or_generate(&config);
        let wb = b.get_or_generate(&config);
        assert!(Arc::ptr_eq(&wa, &wb), "views share the process-wide generation");
        assert_eq!(a.generations(), 1);
        assert_eq!(b.generations(), 1, "a warm shared cache still counts the request");
        // Re-requesting through one view does not inflate its count.
        let _ = a.get_or_generate(&config);
        assert_eq!(a.generations(), 1);
        // The view's stats see only its own traffic.
        let other = WorldConfig { seed: 90_002, ..WorldConfig::default() };
        let _ = b.get_or_generate(&other);
        assert_eq!(b.generations(), 2);
        assert_eq!(a.generations(), 1);
    }
}
