//! The content-addressed artifact cache.
//!
//! Expensive pipeline intermediates (path automata, rearranging NTAs,
//! MSO→NBTA compilations) are keyed by `(kind, content hash)`, where the
//! hash is the [`tpx_trees::StableHash`] of the schema or transducer the
//! artifact was compiled from. Hashing the *content* (rather than an
//! address or an insertion counter) means two structurally equal schemas
//! share one compilation, across threads and in any order.
//!
//! Concurrency: one [`RwLock`] guards a [`TwoGenMap`] of slots. A hit in
//! the map's newer generation takes only the *read* lock, so concurrent
//! readers of built artifacts share it; the write lock is taken to insert
//! a fresh slot or to move an older-generation hit forward, and its
//! critical section contains no user code. Each slot is a
//! `Mutex<Option<Arc<…>>>`: the builder runs under the slot's own lock,
//! outside the map lock and inside `catch_unwind`, so every artifact is
//! compiled exactly once even when many workers race to it — the losers
//! wait on the slot and receive the winner's `Arc`, and a failed or
//! panicking build leaves the slot empty for the next caller to retry.
//! Artifacts are uniformly `Arc`-shared: a cache hit is a pointer clone,
//! never a copy.
//!
//! The entry count is bounded by the map's two generations; an evicted
//! generation is dropped after the map lock is released, and its size is
//! counted in [`CacheStats::evictions`].

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::twogen::TwoGenMap;

/// One artifact: empty until its first successful build.
type Slot = Mutex<Option<Arc<dyn Any + Send + Sync>>>;

/// A recoverable cache failure. Generic over the builder's own error type
/// `E` (use [`std::convert::Infallible`] for infallible builders).
#[derive(Debug)]
pub enum CacheError<E> {
    /// `(kind, key)` was previously cached with a different artifact type —
    /// a stage-naming bug in the caller.
    TypeMismatch {
        /// The offending stage name.
        kind: &'static str,
    },
    /// The builder closure panicked. Only its own slot is affected — the
    /// slot is left empty so a later lookup retries the build, and the
    /// rest of the cache stays fully serviceable.
    BuilderPanicked {
        /// The stage whose builder panicked.
        kind: &'static str,
        /// The panic payload rendered as text (when it was a string).
        message: String,
    },
    /// The builder returned an error (not memoized; a later lookup
    /// retries).
    Build(E),
}

impl<E: std::fmt::Display> std::fmt::Display for CacheError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::TypeMismatch { kind } => {
                write!(f, "artifact kind {kind:?} cached with two types")
            }
            CacheError::BuilderPanicked { kind, message } => {
                write!(f, "builder for artifact kind {kind:?} panicked: {message}")
            }
            CacheError::Build(e) => write!(f, "artifact build failed: {e}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for CacheError<E> {}

/// Renders a caught panic payload as text.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Hit/miss/entry/eviction counters of an [`ArtifactCache`], taken at one
/// instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an already-built artifact.
    pub hits: u64,
    /// Lookups that had to build the artifact (at most one per distinct
    /// `(kind, key)` pair while it stays cached).
    pub misses: u64,
    /// Distinct artifacts currently held.
    pub entries: usize,
    /// Entries dropped with an evicted generation (see
    /// [`ArtifactCache::with_max_entries`]).
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A concurrent, content-hash-keyed memo table for pipeline artifacts.
///
/// Artifacts are stored type-erased (`Arc<dyn Any>`); the `kind` string
/// names the pipeline stage and fixes the concrete type, so a key collision
/// across stages is impossible by construction.
///
/// The entry count is bounded (default [`DEFAULT_MAX_ENTRIES`]) by a
/// [`TwoGenMap`]: when the newer half fills, the older half is evicted,
/// except for the entries read since the last turnover, which moved
/// forward. Long batch, fuzz or serve runs over many distinct
/// schemas/transducers therefore keep what they keep reading instead of
/// growing without bound; the dropped entries are surfaced as
/// [`CacheStats::evictions`].
pub struct ArtifactCache {
    map: RwLock<TwoGenMap<(&'static str, u64), Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Default entry-count bound of [`ArtifactCache::new`].
pub const DEFAULT_MAX_ENTRIES: usize = 2048;

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::with_max_entries(DEFAULT_MAX_ENTRIES)
    }
}

impl ArtifactCache {
    /// An empty cache holding at most [`DEFAULT_MAX_ENTRIES`] artifacts.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `max_entries` artifacts
    /// (`0` = unbounded), in two generations of `max_entries / 2`.
    pub fn with_max_entries(max_entries: usize) -> Self {
        ArtifactCache {
            map: RwLock::new(TwoGenMap::new(max_entries)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fetches (or creates) the slot for `(kind, key)`.
    ///
    /// The hot path is the map's *read* lock: when the key is in the newer
    /// generation the slot `Arc` is cloned without any exclusive locking.
    /// Otherwise the write lock moves an older hit forward or inserts a
    /// fresh slot; a generation that drops out is freed after the lock is
    /// released. Poisoned locks are recovered rather than propagated: the
    /// critical sections contain no user code, so a poisoned lock still
    /// guards a consistent map.
    fn slot(&self, kind: &'static str, key: u64) -> Arc<Slot> {
        if let Some(slot) = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .peek(&(kind, key))
        {
            return Arc::clone(slot);
        }
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        let (slot, dropped) = match map.get(&(kind, key)) {
            (Some(slot), dropped) => (slot, dropped),
            (None, _) => {
                let slot = Arc::new(Slot::default());
                let dropped = map.insert((kind, key), Arc::clone(&slot));
                (slot, dropped)
            }
        };
        drop(map);
        self.evictions
            .fetch_add(dropped.len() as u64, Ordering::Relaxed);
        slot
    }

    /// Returns the artifact for `(kind, key)`, building it with `build` on
    /// first use. The second component reports whether this was a cache hit
    /// (`true`) or this call built the artifact (`false`).
    ///
    /// # Panics
    ///
    /// If `(kind, key)` was previously inserted with a different `T`: one
    /// stage name must always cache one artifact type. (Use
    /// [`ArtifactCache::try_get_or_build`] for the recoverable variant.)
    pub fn get_or_build<T, F>(&self, kind: &'static str, key: u64, build: F) -> (Arc<T>, bool)
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        match self.try_get_or_build::<T, std::convert::Infallible, _>(kind, key, || Ok(build())) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`ArtifactCache::get_or_build`]: the builder may fail, and
    /// every failure mode — builder error, builder panic, type mismatch —
    /// comes back as a recoverable [`CacheError`] instead of unwinding.
    ///
    /// Only *successful* builds are memoized: on `Err` or a panic the slot
    /// stays empty and the next caller (possibly one that was waiting on
    /// the slot) builds it again, so a budget-starved build can be retried
    /// with a larger budget and a panicking build affects only its own
    /// slot. The panic is caught inside the slot's lock, which therefore
    /// never poisons.
    pub fn try_get_or_build<T, E, F>(
        &self,
        kind: &'static str,
        key: u64,
        build: F,
    ) -> Result<(Arc<T>, bool), CacheError<E>>
    where
        T: Send + Sync + 'static,
        E: Send + 'static,
        F: FnOnce() -> Result<T, E>,
    {
        let slot = self.slot(kind, key);
        let mut value = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let hit = value.is_some();
        let erased = match &*value {
            Some(artifact) => Arc::clone(artifact),
            None => {
                let artifact: Arc<dyn Any + Send + Sync> =
                    match catch_unwind(AssertUnwindSafe(build)) {
                        Ok(Ok(v)) => Arc::new(v),
                        Ok(Err(e)) => return Err(CacheError::Build(e)),
                        Err(payload) => {
                            return Err(CacheError::BuilderPanicked {
                                kind,
                                message: panic_message(payload.as_ref()),
                            })
                        }
                    };
                *value = Some(Arc::clone(&artifact));
                artifact
            }
        };
        drop(value);
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        let arc = erased
            .downcast::<T>()
            .map_err(|_| CacheError::TypeMismatch { kind })?;
        Ok((arc, hit))
    }

    /// A snapshot of the hit/miss/entry/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .map
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached artifact (counters keep accumulating).
    pub fn clear(&self) {
        let cleared = self
            .map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        drop(cleared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_then_hits() {
        let cache = ArtifactCache::new();
        let mut builds = 0;
        let (a, hit) = cache.get_or_build("t", 1, || {
            builds += 1;
            42usize
        });
        assert!(!hit);
        assert_eq!(*a, 42);
        let (b, hit) = cache.get_or_build("t", 1, || {
            builds += 1;
            99usize
        });
        assert!(hit);
        assert_eq!(*b, 42);
        assert_eq!(builds, 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn generation_turnover_is_exact() {
        // A bound of 2 is two generations of one entry: five distinct keys
        // turn the map over four times and drop the older entry in three.
        let cache = ArtifactCache::with_max_entries(2);
        for key in 0..5u64 {
            let _ = cache.get_or_build("t", key, move || key);
        }
        let stats = cache.stats();
        assert!(stats.entries <= 2, "bound violated: {}", stats.entries);
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.evictions + stats.entries as u64, stats.misses);
        // A re-requested evicted key is rebuilt, not resurrected.
        let (_, hit) = cache.get_or_build("t", 0, || 0u64);
        assert!(!hit);
    }

    #[test]
    fn capacity_bound_holds_over_many_turnovers() {
        // However many generations turn over, the cache never holds more
        // than `max_entries` artifacts and every built entry is either
        // still present or counted as evicted.
        let cache = ArtifactCache::with_max_entries(8);
        for key in 0..100u64 {
            let _ = cache.get_or_build("t", key, move || key);
        }
        let stats = cache.stats();
        assert!(stats.entries <= 8, "bound violated: {}", stats.entries);
        assert_eq!(stats.misses, 100);
        assert_eq!(stats.evictions + stats.entries as u64, 100);
    }

    #[test]
    fn stats_count_every_lookup_across_turnovers() {
        let cache = ArtifactCache::with_max_entries(8);
        for key in 0..50u64 {
            let _ = cache.get_or_build("t", key, move || key);
            let _ = cache.get_or_build("t", key, move || key); // hit
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 50);
        assert_eq!(stats.misses, 50);
        assert_eq!(stats.lookups(), 100);
        assert!(stats.entries <= 8, "bound violated: {}", stats.entries);
        assert_eq!(stats.evictions + stats.entries as u64, stats.misses);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ArtifactCache::with_max_entries(0);
        for key in 0..100u64 {
            let _ = cache.get_or_build("t", key, move || key);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 100);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn kinds_partition_the_key_space() {
        let cache = ArtifactCache::new();
        let (a, _) = cache.get_or_build("x", 7, || 1usize);
        let (b, _) = cache.get_or_build("y", 7, || 2u64);
        assert_eq!(*a, 1);
        assert_eq!(*b, 2);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn clear_drops_entries_but_not_counters() {
        let cache = ArtifactCache::new();
        let _ = cache.get_or_build("t", 1, || 0u8);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 1);
        let (_, hit) = cache.get_or_build("t", 1, || 0u8);
        assert!(!hit, "cleared entries are rebuilt");
    }

    #[test]
    fn type_mismatch_is_a_recoverable_error() {
        let cache = ArtifactCache::new();
        let _ = cache.get_or_build("t", 1, || 42usize);
        let err = cache
            .try_get_or_build::<u64, std::convert::Infallible, _>("t", 1, || Ok(7u64))
            .unwrap_err();
        assert!(matches!(err, CacheError::TypeMismatch { kind: "t" }));
        // The cache is still serviceable afterwards, with the original
        // artifact intact.
        let (v, hit) = cache.get_or_build("t", 1, || 0usize);
        assert!(hit);
        assert_eq!(*v, 42);
    }

    #[test]
    fn failed_build_is_not_memoized_and_retries() {
        let cache = ArtifactCache::new();
        let err = cache
            .try_get_or_build::<usize, &str, _>("t", 1, || Err("out of fuel"))
            .unwrap_err();
        assert!(matches!(err, CacheError::Build("out of fuel")));
        // Retry with a successful builder: the slot was left empty.
        let (v, hit) = cache
            .try_get_or_build::<usize, &str, _>("t", 1, || Ok(5))
            .unwrap();
        assert!(!hit);
        assert_eq!(*v, 5);
        // Errors count neither as hits nor as misses.
        assert_eq!(cache.stats().misses, 1);
    }

    /// Regression (poisoning recovery): a panicking build must poison only
    /// its own slot. The same key rebuilds successfully afterwards, other
    /// keys are unaffected, and the eviction accounting stays exact.
    #[test]
    fn panicking_build_poisons_only_its_slot_and_rebuilds() {
        let cache = ArtifactCache::with_max_entries(4);
        let err = cache
            .try_get_or_build::<usize, std::convert::Infallible, _>("t", 0, || panic!("boom"))
            .unwrap_err();
        let CacheError::BuilderPanicked { kind, message } = err else {
            panic!("expected BuilderPanicked");
        };
        assert_eq!(kind, "t");
        assert!(message.contains("boom"), "{message}");
        // The cache is not wedged: a *different* key builds immediately...
        let (v, hit) = cache.get_or_build("t", 1, || 10usize);
        assert!(!hit);
        assert_eq!(*v, 10);
        // ...and the panicked key itself rebuilds successfully and is then
        // served from cache.
        let (v, hit) = cache.get_or_build("t", 0, || 7usize);
        assert!(!hit, "the poisoned slot must retry the build");
        assert_eq!(*v, 7);
        let (v, hit) = cache.get_or_build("t", 0, || 99usize);
        assert!(hit, "the rebuilt artifact is memoized");
        assert_eq!(*v, 7);
        // Eviction stats stay exact after the panic: fill past capacity.
        for key in 10..15u64 {
            let _ = cache.get_or_build("t", key, move || key as usize);
        }
        let stats = cache.stats();
        assert!(stats.entries <= 4, "bound violated: {}", stats.entries);
        assert_eq!(stats.misses, 7, "2 initial + 5 fill builds");
        assert_eq!(stats.evictions + stats.entries as u64, 7);
    }

    /// Racing threads where the *first* builder panics: the survivors
    /// retry the build on the same slot and all end up sharing one
    /// successfully built artifact.
    #[test]
    fn racing_builders_recover_from_a_panicking_first_build() {
        use std::sync::atomic::AtomicBool;
        let cache = ArtifactCache::new();
        let poisoned_once = AtomicBool::new(false);
        let built = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    // Retry until a successful build lands; only the very
                    // first builder panics.
                    for _ in 0..16 {
                        let r = cache.try_get_or_build::<usize, std::convert::Infallible, _>(
                            "race",
                            1,
                            || {
                                if !poisoned_once.swap(true, Ordering::SeqCst) {
                                    panic!("first build dies");
                                }
                                built.fetch_add(1, Ordering::SeqCst);
                                Ok(11)
                            },
                        );
                        match r {
                            Ok((v, _)) => {
                                assert_eq!(*v, 11);
                                return;
                            }
                            Err(CacheError::BuilderPanicked { .. }) => continue,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    panic!("never recovered from the poisoned build");
                });
            }
        });
        assert_eq!(
            built.load(Ordering::SeqCst),
            1,
            "exactly one successful build after the panic"
        );
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn racing_builders_compile_exactly_once() {
        let cache = ArtifactCache::new();
        let built = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (v, _) = cache.get_or_build("race", 5, || {
                        built.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window a little.
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        7usize
                    });
                    assert_eq!(*v, 7);
                });
            }
        });
        assert_eq!(built.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }
}
