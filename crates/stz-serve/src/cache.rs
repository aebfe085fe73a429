//! Byte-budgeted sharded LRU cache of framed responses.
//!
//! The server's hot path is "same entry, same request, many clients":
//! dashboards polling a preview level, analysts re-reading a popular ROI.
//! Decoding is orders of magnitude more expensive than a memcpy, so the
//! server caches the *whole response frame* of each decode (16-byte header
//! with length and CRC, then the payload) — a hit skips decompression,
//! re-encoding **and** the checksum: one write, zero passes over the bytes.
//!
//! Design:
//!
//! * **Sharded.** Keys hash to one of [`DecodedCache::SHARDS`] independent
//!   `Mutex<Shard>`s, so concurrent connections rarely contend on the same
//!   lock. The byte budget is split evenly across shards.
//! * **Exact LRU, O(n) eviction.** Each shard stamps entries with a
//!   monotonic tick on every touch and evicts the smallest stamp until it
//!   is back under budget. Values are whole responses (KBs–MBs), so
//!   shard populations stay small and the linear eviction scan is noise
//!   next to one saved decompression.
//! * **Oversized values bypass.** A value larger than a whole shard's
//!   budget is returned to the caller but never inserted — one giant ROI
//!   cannot wipe the cache.
//! * **Counters.** Hits, misses, insertions and evictions are per-instance
//!   [`stz_telemetry::Counter`]s, exposed over the wire via the `STATS`
//!   frame and — once [`DecodedCache::register_metrics`] has published the
//!   handles — via the `METRICS` exposition.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use stz_telemetry::{Counter, Metric, Registry};

use crate::proto::RequestKind;

/// Cache key: one decoded block is identified by its container, the
/// container *generation* the request pinned, entry index, and request
/// kind (full / level-k / ROI box / raw payload). Name-addressed fetches
/// resolve to the entry index *before* lookup, so `--entry t0` and entry
/// index 0 share a slot. The generation keeps mutable (v3) containers
/// honest: after an append/delete/compact flips the footer, stale blocks
/// simply stop being addressed and age out of the LRU — no invalidation
/// pass needed. Immutable v1/v2 containers always key generation 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Hosted container name.
    pub container: String,
    /// Committed generation of the snapshot that served the request
    /// (always 1 for immutable containers).
    pub generation: u64,
    /// Entry index within the container.
    pub entry: u32,
    /// What was decoded.
    pub kind: RequestKind,
}

#[derive(Debug)]
struct Slot {
    value: Arc<Vec<u8>>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, Slot>,
    bytes: usize,
    tick: u64,
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Values inserted.
    pub insertions: u64,
    /// Values evicted for space.
    pub evictions: u64,
    /// Resident values right now.
    pub entries: u64,
    /// Resident bytes right now.
    pub bytes: u64,
    /// Configured byte budget.
    pub capacity: u64,
}

/// The decoded-block cache. See the module docs for the design.
#[derive(Debug)]
pub struct DecodedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_budget: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    insertions: Arc<Counter>,
    evictions: Arc<Counter>,
    capacity: u64,
}

impl DecodedCache {
    /// Number of independent shards.
    pub const SHARDS: usize = 8;

    /// A cache bounded by `budget_bytes` in total (split evenly across
    /// shards; a zero budget yields a cache that never stores anything
    /// but still counts hits and misses).
    pub fn new(budget_bytes: u64) -> Self {
        let per_shard_budget = (budget_bytes as usize) / Self::SHARDS;
        DecodedCache {
            shards: (0..Self::SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_budget,
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            insertions: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
            capacity: budget_bytes,
        }
    }

    /// Publish this cache's counters into `registry` under the
    /// `stz_serve_cache_*_total` names. The cache keeps the handles (its
    /// per-instance accounting is unchanged); the registry renders them.
    /// Last registration wins, so the serving cache is the one exposed.
    pub fn register_metrics(&self, registry: &Registry) {
        for (name, counter) in [
            ("stz_serve_cache_hits_total", &self.hits),
            ("stz_serve_cache_misses_total", &self.misses),
            ("stz_serve_cache_insertions_total", &self.insertions),
            ("stz_serve_cache_evictions_total", &self.evictions),
        ] {
            registry.register(name, &[], Metric::Counter(Arc::clone(counter)));
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up a decoded block, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        let mut shard = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits.inc();
                Some(Arc::clone(&slot.value))
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert a freshly decoded block, evicting least-recently-used
    /// values until the shard is back under its budget. Values larger
    /// than a whole shard's budget are not cached.
    pub fn insert(&self, key: CacheKey, value: Arc<Vec<u8>>) {
        if value.len() > self.per_shard_budget {
            return;
        }
        let mut shard = self.shard(&key).lock().unwrap_or_else(|p| p.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(old) =
            shard.map.insert(key, Slot { value: Arc::clone(&value), last_used: tick })
        {
            // Replaced in place (two threads decoded the same miss
            // concurrently): swap the byte accounting, nothing to evict.
            shard.bytes -= old.value.len();
        } else {
            self.insertions.inc();
        }
        shard.bytes += value.len();
        while shard.bytes > self.per_shard_budget {
            let Some(lru) =
                shard.map.iter().min_by_key(|(_, slot)| slot.last_used).map(|(k, _)| k.clone())
            else {
                break;
            };
            let removed = shard.map.remove(&lru).expect("key just found in this shard");
            shard.bytes -= removed.value.len();
            self.evictions.inc();
        }
    }

    /// Current counters.
    pub fn counters(&self) -> CacheCounters {
        let (entries, bytes) = self
            .shards
            .iter()
            .map(|s| {
                let s = s.lock().unwrap_or_else(|p| p.into_inner());
                (s.map.len() as u64, s.bytes as u64)
            })
            .fold((0, 0), |(e, b), (se, sb)| (e + se, b + sb));
        CacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            entries,
            bytes,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(container: &str, entry: u32, kind: RequestKind) -> CacheKey {
        CacheKey { container: container.into(), generation: 0, entry, kind }
    }

    fn block(len: usize, fill: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; len])
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = DecodedCache::new(1 << 20);
        let k = key("steps", 0, RequestKind::Full);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), block(100, 1));
        assert_eq!(cache.get(&k).unwrap().len(), 100);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.insertions), (1, 1, 1));
        assert_eq!((c.entries, c.bytes), (1, 100));

        // Different request kinds are distinct blocks.
        assert!(cache.get(&key("steps", 0, RequestKind::Level(1))).is_none());
        assert!(cache.get(&key("steps", 1, RequestKind::Full)).is_none());
        assert!(cache.get(&key("other", 0, RequestKind::Full)).is_none());
        // So are different container generations: a footer flip re-keys
        // every block instead of serving the superseded decode.
        let flipped = CacheKey { generation: 1, ..k.clone() };
        assert!(cache.get(&flipped).is_none());
    }

    #[test]
    fn lru_eviction_under_byte_budget() {
        // One shard's budget is total/SHARDS; craft keys that land in the
        // same shard by reusing one key's fields except the ROI box, and
        // just verify the *global* invariant: resident bytes never exceed
        // the budget and the evicted block is the stalest of its shard.
        let budget = (DecodedCache::SHARDS * 1000) as u64;
        let cache = DecodedCache::new(budget);
        for i in 0..100u64 {
            cache.insert(key("c", 0, RequestKind::Roi([i, i + 1, 0, 1, 0, 1])), block(400, 0));
        }
        let c = cache.counters();
        assert!(c.bytes <= budget, "resident {} bytes > budget {budget}", c.bytes);
        assert!(c.evictions > 0, "inserting 40 KB into 8 KB must evict");
        assert_eq!(c.bytes, c.entries * 400);
    }

    #[test]
    fn recently_used_survives_eviction() {
        let cache = DecodedCache::new((DecodedCache::SHARDS * 1000) as u64);
        // Insert enough same-shard-or-not blocks to force evictions while
        // keeping one key hot; the hot key must survive.
        let hot = key("c", 0, RequestKind::Full);
        cache.insert(hot.clone(), block(300, 7));
        for i in 0..200u64 {
            cache.insert(key("c", 0, RequestKind::Roi([i, i + 1, 0, 1, 0, 1])), block(300, 0));
            assert!(cache.get(&hot).is_some(), "hot key evicted at step {i}");
        }
    }

    #[test]
    fn oversized_values_bypass() {
        let cache = DecodedCache::new(800);
        let k = key("c", 0, RequestKind::Full);
        cache.insert(k.clone(), block(500, 0)); // > 800/8 per-shard budget
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.counters().insertions, 0);
    }

    #[test]
    fn duplicate_insert_replaces_without_leaking_bytes() {
        let cache = DecodedCache::new(1 << 20);
        let k = key("c", 0, RequestKind::Full);
        cache.insert(k.clone(), block(100, 1));
        cache.insert(k.clone(), block(250, 2));
        let c = cache.counters();
        assert_eq!((c.entries, c.bytes, c.insertions), (1, 250, 1));
        assert_eq!(cache.get(&k).unwrap()[0], 2);
    }

    #[test]
    fn zero_budget_stores_nothing() {
        let cache = DecodedCache::new(0);
        let k = key("c", 0, RequestKind::Full);
        cache.insert(k.clone(), block(1, 0));
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.counters().bytes, 0);
    }

    #[test]
    fn registered_counters_render_in_the_exposition() {
        let registry = Registry::new();
        let cache = DecodedCache::new(1 << 20);
        cache.register_metrics(&registry);
        let k = key("steps", 0, RequestKind::Full);
        cache.get(&k);
        cache.insert(k.clone(), block(10, 1));
        cache.get(&k);
        let text = registry.render();
        assert!(text.contains("stz_serve_cache_hits_total 1"), "{text}");
        assert!(text.contains("stz_serve_cache_misses_total 1"), "{text}");
        assert!(text.contains("stz_serve_cache_insertions_total 1"), "{text}");
        assert!(text.contains("stz_serve_cache_evictions_total 0"), "{text}");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(DecodedCache::new(1 << 16));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let k =
                            key("c", (i % 7) as u32, RequestKind::Roi([t, t + 1, 0, 1, 0, i + 1]));
                        if cache.get(&k).is_none() {
                            cache.insert(k, block(64, t as u8));
                        }
                    }
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.hits + c.misses, 8 * 500);
        assert!(c.bytes <= 1 << 16);
    }
}
