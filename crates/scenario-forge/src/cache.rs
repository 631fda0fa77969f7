//! Build-once caches: [`OnceMap`], the workspace's one cache shape, and
//! the content-addressed world cache built on it.
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

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use world::{generate, World, WorldConfig};

/// A concurrent map of build-once `OnceLock` slots. The map lock is held
/// only to find (or insert) a slot; concurrent requesters of one key then
/// block on that slot's single builder. Lookups borrow the key (`&str`
/// for `String` keys), so a hit allocates nothing.
pub struct OnceMap<K, V> {
    slots: Mutex<BTreeMap<K, Arc<OnceLock<V>>>>,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        OnceMap { slots: Mutex::new(BTreeMap::new()) }
    }
}

impl<K: Ord, V: Clone> OnceMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        OnceMap::default()
    }

    /// The value for `key`, built by `init` on a miss. The flag reports
    /// whether this call ran `init`: concurrent requesters of a cold key
    /// wait for the one builder, and only that builder sees `true`.
    pub fn get_or_init<Q>(&self, key: &Q, init: impl FnOnce() -> V) -> (V, bool)
    where
        K: Borrow<Q>,
        Q: Ord + ToOwned<Owned = K> + ?Sized,
    {
        build(&self.slot(key), init)
    }

    /// The value for `key` if it is already built. Never builds and never
    /// creates a slot; a key whose build is still running misses.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.slots.lock().get(key)?.get().cloned()
    }

    /// Number of slots, built or being built.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// Whether the map holds no slot.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }

    /// Whether `key` has a slot, built or being built.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.slots.lock().contains_key(key)
    }

    /// The slot for `key`, inserted on a miss.
    fn slot<Q>(&self, key: &Q) -> Arc<OnceLock<V>>
    where
        K: Borrow<Q>,
        Q: Ord + ToOwned<Owned = K> + ?Sized,
    {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get(key) {
            return Arc::clone(slot);
        }
        Arc::clone(slots.entry(key.to_owned()).or_default())
    }
}

impl<K: Ord, T: Clone, E: Clone> OnceMap<K, Result<T, E>> {
    /// [`OnceMap::get_or_init`] for a fallible builder. Only successes
    /// stay cached: a failed build reaches everyone waiting on that slot,
    /// then the slot is evicted, so the next request rebuilds.
    pub fn try_get_or_init<Q>(
        &self,
        key: &Q,
        init: impl FnOnce() -> Result<T, E>,
    ) -> (Result<T, E>, bool)
    where
        K: Borrow<Q>,
        Q: Ord + ToOwned<Owned = K> + ?Sized,
    {
        let slot = self.slot(key);
        let (result, built) = build(&slot, init);
        if result.is_err() {
            let mut slots = self.slots.lock();
            // Evict only if the key still points at this failed slot (a
            // concurrent retry may already have installed a fresh one).
            if slots.get(key).is_some_and(|current| Arc::ptr_eq(current, &slot)) {
                slots.remove(key);
            }
        }
        (result, built)
    }
}

/// Initializes `slot` with `init` unless it already holds a value, and
/// reports whether `init` ran.
fn build<V: Clone>(slot: &OnceLock<V>, init: impl FnOnce() -> V) -> (V, bool) {
    let mut built = false;
    let value = slot
        .get_or_init(|| {
            built = true;
            init()
        })
        .clone();
    (value, built)
}

/// Generated worlds, content-addressed by [`WorldConfig`]. Generation
/// cannot fail, so `len()` is the number of worlds built.
pub type WorldCache = OnceMap<WorldConfig, Arc<World>>;

impl WorldCache {
    /// The shared world for `config`, generating (once) on a miss.
    pub fn get_or_generate(&self, config: &WorldConfig) -> Arc<World> {
        self.get_or_init(config, || Arc::new(generate(config))).0
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn racing_threads_build_once_and_share_one_arc() {
        for threads in [1usize, 2, 8] {
            let map: OnceMap<String, Arc<usize>> = OnceMap::new();
            let builds = AtomicUsize::new(0);
            let start = Barrier::new(threads);
            let results: Vec<(Arc<usize>, bool)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            map.get_or_init("k", || {
                                Arc::new(builds.fetch_add(1, Ordering::SeqCst))
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("no panic")).collect()
            });
            assert_eq!(builds.load(Ordering::SeqCst), 1, "{threads} threads, one build");
            assert_eq!(results.iter().filter(|(_, built)| *built).count(), 1);
            for (value, _) in &results {
                assert!(Arc::ptr_eq(value, &results[0].0), "{threads} threads");
            }
            assert_eq!(map.len(), 1);
        }
    }

    #[test]
    fn a_failed_build_reaches_every_waiter_then_is_evicted() {
        let threads = 8;
        let map: OnceMap<String, Result<u32, String>> = OnceMap::new();
        let builds = AtomicUsize::new(0);
        let results: Vec<(Result<u32, String>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        map.try_get_or_init("k", || {
                            // Fail only once every requester holds this
                            // slot, so all of them wait on this build.
                            while Arc::strong_count(&map.slots.lock()["k"]) < threads + 1 {
                                std::thread::yield_now();
                            }
                            builds.fetch_add(1, Ordering::SeqCst);
                            Err("down".to_string())
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert!(results.iter().all(|(result, _)| result == &Err("down".to_string())));
        assert_eq!(results.iter().filter(|(_, built)| *built).count(), 1);
        assert!(map.is_empty(), "the failed slot is evicted");

        // The next request rebuilds, and its success stays cached.
        assert_eq!(map.try_get_or_init("k", || Ok(7)), (Ok(7), true));
        assert_eq!(map.try_get_or_init("k", || panic!("cached success")), (Ok(7), false));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn get_misses_until_the_build_completes() {
        let map: OnceMap<String, u32> = OnceMap::new();
        assert!(map.get("k").is_none());
        assert!(!map.contains("k"));
        let (value, built) = map.get_or_init("k", || {
            assert!(map.contains("k"), "the slot exists while building");
            assert!(map.get("k").is_none(), "but holds no value yet");
            3
        });
        assert_eq!((value, built), (3, true));
        assert_eq!(map.get("k"), Some(3));
        assert!(map.get("other").is_none(), "get never creates a slot");
        assert_eq!(map.len(), 1);
    }

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
