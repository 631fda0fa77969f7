//! [`OnceMap`], the workspace's one build-once cache shape.
//!
//! Every cache that builds a value once per key and hands the same value
//! to every later requester is a `OnceMap`: `scenario_forge`'s
//! content-addressed world cache, `toolkit`'s artifact stores and
//! world-artifact map, and the expert model's parsed registry documents
//! (keyed by the document's content hash). `scenario_forge` re-exports it.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

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
            #[expect(clippy::disallowed_methods, reason = "racing callers must build once")]
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
        #[expect(clippy::disallowed_methods, reason = "every waiter must see the failed build")]
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
}
