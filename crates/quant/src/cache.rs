//! Shared lock-lite cache for derived weight artifacts.
//!
//! Packing a layer's weights into the paper's non-zero format (§III-B) is
//! value-independent: the same `QuantConvWeights` always yields the same
//! packed groups and scratchpad byte stream. PR 5's per-instance
//! `OnceLock` caches already amortized that within one weight object, but
//! every batch worker, driver session, and per-image pipeline pass that
//! rebuilt or cloned weights re-derived identical packing from scratch.
//!
//! [`WeightCache`] is a process-wide concurrent map from a 64-bit content
//! **fingerprint** to an `Arc`'d derived artifact. It is *lock-lite* in the
//! transposition-table sense: a fixed power-of-two array of shards, each a
//! small `RwLock`ed vec, so concurrent readers on different shards never
//! contend and readers on the same shard share the lock. There is no
//! eviction — CNN weight sets are few and long-lived, so the cache is
//! bounded by the working set of distinct networks in the process (see
//! [`WeightCache::clear`] for tests and long-running hosts that swap
//! models).
//!
//! Keys come from [`Fingerprint`], an FNV-1a style streaming hasher over the
//! weight *content* (geometry, raw bits, requant parameters) rather than
//! addresses, so two identical weight objects — e.g. one per batch worker —
//! share one cache entry. A 64-bit digest over at most a handful of weight
//! sets makes accidental collision probability negligible (birthday bound
//! ~n²/2⁶⁵), and any collision is caught by the bit-exactness property
//! suite, which compares every cached path against the scalar oracle.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Number of shards. Power of two; indexed by the fingerprint's low bits.
/// 16 shards keep worst-case contention (N workers warming the same
/// network) to at most a handful of threads per lock.
const SHARDS: usize = 16;

/// Counters exported by [`WeightCache::stats`] and surfaced by
/// `zskip analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an existing entry.
    pub hits: u64,
    /// Lookups that had to build and insert the artifact.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate heap bytes held by resident artifacts, as reported by
    /// the `bytes` closure at insert time.
    pub bytes: usize,
}

/// A sharded, process-wide map from content fingerprint to a shared
/// derived-weight artifact.
///
/// Values are handed out as `Arc<V>` so callers (worker threads, cached
/// `OnceLock`s inside weight objects) can hold the artifact without pinning
/// the cache lock. `get_or_insert_with` is the only mutating entry point;
/// on a racy double-build the first inserted value wins and the loser's
/// build is discarded, so all holders observe one canonical artifact.
/// One shard: a small linear-probed association list under its own lock.
type Shard<V> = RwLock<Vec<(u64, Arc<V>)>>;

pub struct WeightCache<V> {
    shards: [Shard<V>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicUsize,
}

impl<V> Default for WeightCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> WeightCache<V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        WeightCache {
            shards: std::array::from_fn(|_| RwLock::new(Vec::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicUsize::new(0),
        }
    }

    fn shard(&self, key: u64) -> &RwLock<Vec<(u64, Arc<V>)>> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Looks up `key`, building and inserting the artifact on a miss.
    ///
    /// `build` runs *outside* any lock (packing a VGG layer takes
    /// milliseconds; holding a shard lock that long would serialize every
    /// warming worker). `bytes` reports the artifact's approximate heap
    /// footprint for the stats counter. If two threads race on the same
    /// missing key both may build, but only the first insert is kept.
    pub fn get_or_insert_with(
        &self,
        key: u64,
        build: impl FnOnce() -> V,
        bytes: impl Fn(&V) -> usize,
    ) -> Arc<V> {
        let built: Result<_, std::convert::Infallible> =
            self.try_get_or_insert_with(key, || Ok(build()), bytes);
        match built {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }

    /// [`WeightCache::get_or_insert_with`] for a fallible `build`: an
    /// `Err` is handed back to the caller and leaves the cache (entries
    /// and counters) untouched, so only successful builds are ever
    /// resident.
    ///
    /// # Errors
    /// Whatever `build` returns.
    pub fn try_get_or_insert_with<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<V, E>,
        bytes: impl Fn(&V) -> usize,
    ) -> Result<Arc<V>, E> {
        let shard = self.shard(key);
        {
            let guard = shard.read().unwrap_or_else(|e| e.into_inner());
            if let Some((_, v)) = guard.iter().find(|(k, _)| *k == key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(v));
            }
        }
        // Miss: build without holding the lock, then re-check under the
        // write lock (another thread may have won the race).
        let built = Arc::new(build()?);
        let mut guard = shard.write().unwrap_or_else(|e| e.into_inner());
        if let Some((_, v)) = guard.iter().find(|(k, _)| *k == key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(v));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes(&built), Ordering::Relaxed);
        guard.push((key, Arc::clone(&built)));
        Ok(built)
    }

    /// Returns the entry for `key` if resident, without counting a miss.
    pub fn get(&self, key: u64) -> Option<Arc<V>> {
        let guard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
        guard.iter().find(|(k, _)| *k == key).map(|(_, v)| Arc::clone(v))
    }

    /// Snapshot of hit/miss/residency counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and the byte counter (hit/miss counters are
    /// cumulative and survive). Outstanding `Arc`s keep their artifacts
    /// alive; the cache just forgets them.
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().unwrap_or_else(|e| e.into_inner()).clear();
        }
        self.bytes.store(0, Ordering::Relaxed);
    }
}

// `Debug` prints only the counters — artifacts may be megabytes.
impl<V> std::fmt::Debug for WeightCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("WeightCache")
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("bytes", &s.bytes)
            .finish()
    }
}

/// Streaming FNV-1a content hasher for weight identity.
///
/// Deliberately not `std::hash::Hasher`: the default `SipHash` keys differ
/// per process in some configurations, and weight fingerprints must be
/// stable enough to reason about in logs and tests. FNV-1a over the full
/// content is fast (one multiply per byte, word-batched below) and its
/// distribution is more than adequate for the handful of weight sets a
/// process ever sees.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Starts a fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes, 8 at a time where possible.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
            self.state = (self.state ^ w).wrapping_mul(FNV_PRIME);
        }
        for &b in chunks.remainder() {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs one u64 (lengths, shapes, flags — anything structural).
    pub fn u64(mut self, v: u64) -> Self {
        self.state = (self.state ^ v).wrapping_mul(FNV_PRIME);
        self
    }

    /// Absorbs a slice of i64 values (bias vectors).
    pub fn i64s(mut self, vs: &[i64]) -> Self {
        for &v in vs {
            self = self.u64(v as u64);
        }
        self
    }

    /// Finishes the digest.
    pub fn finish(self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fingerprint_is_content_sensitive_and_stable() {
        let a = Fingerprint::new().bytes(&[1, 2, 3]).u64(7).finish();
        let b = Fingerprint::new().bytes(&[1, 2, 3]).u64(7).finish();
        let c = Fingerprint::new().bytes(&[1, 2, 4]).u64(7).finish();
        let d = Fingerprint::new().bytes(&[1, 2, 3]).u64(8).finish();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn fingerprint_word_batching_matches_byte_order() {
        // 8-byte batching must produce the same digest for the same bytes
        // regardless of how the caller splits the stream at word edges.
        let data: Vec<u8> = (0u8..32).collect();
        let whole = Fingerprint::new().bytes(&data).finish();
        let split = Fingerprint::new().bytes(&data[..16]).bytes(&data[16..]).finish();
        assert_eq!(whole, split);
    }

    #[test]
    fn cache_hits_after_first_build() {
        let cache: WeightCache<Vec<u8>> = WeightCache::new();
        let builds = AtomicUsize::new(0);
        for _ in 0..3 {
            let v = cache.get_or_insert_with(
                42,
                || {
                    builds.fetch_add(1, Ordering::Relaxed);
                    vec![9u8; 100]
                },
                |v| v.len(),
            );
            assert_eq!(v.len(), 100);
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (2, 1, 1, 100));
        assert!(cache.get(42).is_some());
        assert!(cache.get(43).is_none());
    }

    #[test]
    fn failed_builds_are_not_inserted() {
        let cache: WeightCache<u32> = WeightCache::new();
        let err = cache.try_get_or_insert_with(5, || Err::<u32, _>("boom"), |_| 4);
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.get(5).is_none());
        assert_eq!(cache.stats(), CacheStats::default());
        // The next successful build is the (first) miss; then it hits.
        let ok: Result<_, &str> = cache.try_get_or_insert_with(5, || Ok(7), |_| 4);
        assert_eq!(*ok.unwrap(), 7);
        let hit: Result<_, &str> = cache.try_get_or_insert_with(5, || Err("never built"), |_| 4);
        assert_eq!(*hit.unwrap(), 7);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 4));
    }

    #[test]
    fn clear_drops_entries_but_not_counters() {
        let cache: WeightCache<u32> = WeightCache::new();
        cache.get_or_insert_with(1, || 10, |_| 4);
        cache.get_or_insert_with(1, || 10, |_| 4);
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert_eq!((s.hits, s.misses), (1, 1));
        // Re-inserting after clear is a fresh miss.
        cache.get_or_insert_with(1, || 11, |_| 4);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(*cache.get(1).unwrap(), 11);
    }

    #[test]
    fn distinct_keys_land_in_distinct_entries_across_shards() {
        let cache: WeightCache<u64> = WeightCache::new();
        for k in 0..64u64 {
            cache.get_or_insert_with(k, || k * 2, |_| 8);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 64);
        assert_eq!(s.bytes, 64 * 8);
        for k in 0..64u64 {
            assert_eq!(*cache.get(k).unwrap(), k * 2);
        }
    }

    #[test]
    fn concurrent_warming_converges_to_one_entry() {
        let cache: std::sync::Arc<WeightCache<Vec<u8>>> = std::sync::Arc::new(WeightCache::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = std::sync::Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                let v = c.get_or_insert_with(7, || vec![1u8; 16], |v| v.len());
                assert_eq!(v.len(), 16);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        // Racing builders may both construct, but exactly one insert is
        // recorded as the miss; every other lookup is a hit.
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.misses, 1);
    }
}
