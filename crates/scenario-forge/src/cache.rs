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
//! the same `Arc<World>`. A cache holds its worlds for as long as its
//! owner keeps it (each `arachnet::Engine` owns one); there is no
//! process-wide cache. `toolkit`'s `ArtifactStore` is an `OnceMap` too.

use std::sync::Arc;

pub use net_model::OnceMap;
use world::{generate, World, WorldConfig};

/// Generated worlds, content-addressed by [`WorldConfig`]: a
/// [`OnceMap`] whose builder is [`world::generate`].
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

    /// Number of worlds this cache built or is building. Generation
    /// cannot fail, so every requested config counts once.
    pub fn generations(&self) -> usize {
        self.0.len()
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
        assert_eq!(cache.generations(), 1);
        assert!(cache.get(&config).is_some());
    }

    #[test]
    fn distinct_configs_get_distinct_worlds() {
        let cache = WorldCache::new();
        let a = cache.get_or_generate(&WorldConfig { seed: 1, ..WorldConfig::default() });
        let b = cache.get_or_generate(&WorldConfig { seed: 2, ..WorldConfig::default() });
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.generations(), 2);
    }

    #[test]
    fn get_misses_before_generation() {
        let cache = WorldCache::new();
        assert_eq!(cache.generations(), 0);
        assert!(cache.get(&WorldConfig::default()).is_none());
    }
}
