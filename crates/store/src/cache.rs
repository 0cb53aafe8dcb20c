//! Capacity-bounded hot-row cache in front of the cold shards.
//!
//! Decoded rows are cached keyed by `(table, row)`. Because decoding is
//! deterministic, a cache hit returns exactly the bytes a cold decode
//! would have produced — the cache can never change a model's output,
//! only skip decode work for the hot head of a skewed (Zipf) access
//! distribution.
//!
//! # Concurrency layout
//!
//! The cache is a sharded, set-associative table. Each shard owns
//! `sets × ways` fixed slots; a key hashes to one shard and one set
//! within it, and may live in any of that set's `ways` slots (at most 8,
//! so a lookup is a short scan of per-slot atomic keys). The hit path
//! takes **no shard-wide lock**: a reader matches the slot's atomic key,
//! acquires that slot's `RwLock` in read mode (contended only by an
//! eviction targeting the same slot), re-verifies the key, and bumps the
//! slot's recency stamp. Writers (insert, invalidate) serialize per
//! shard on a small mutex and touch only the victim slot's write lock,
//! so inserts in one shard never stall hits in another — and hits in the
//! *same* shard only stall if they race the victim slot itself.
//!
//! Hit/miss counters are per-shard and cache-line padded
//! ([`drec_sync::CachePadded`]): under multi-threaded serving the
//! previous single shared counter pair turned every lookup into a
//! false-sharing broadcast.
//!
//! Eviction is LRU within a set: recency stamps come from a single
//! global atomic logical clock, and eviction scans the victim's set
//! (≤ 8 slots), so choosing a victim is O(ways) regardless of cache
//! size. Capacity is rounded up to
//! whole sets: [`HotRowCache::capacity_rows`] reports the physical slot
//! count the cache will actually hold.

use drec_sync::atomic::{AtomicU64, Ordering};
use drec_sync::{CachePadded, Mutex, RwLock};

/// Sentinel for a vacant slot. Row keys are `(table << 32) | row`, and a
/// table id of `u32::MAX` would need 4 billion embedding tables, so the
/// sentinel cannot collide with a real key.
const EMPTY: u64 = u64::MAX;

/// Largest set associativity. Eight ways keeps the victim scan short
/// while staying close to full-LRU hit rates on Zipf traffic.
const MAX_WAYS: usize = 8;

/// One cache slot. `key` is the atomic presence marker: readers match it
/// before and after taking the row lock, and writers blank it while the
/// payload is inconsistent, so a reader can never observe another key's
/// row bytes.
#[derive(Debug)]
struct Slot {
    key: AtomicU64,
    /// Logical time of the last access (from the global clock).
    stamp: AtomicU64,
    row: RwLock<Box<[f32]>>,
}

impl Slot {
    fn vacant() -> Slot {
        Slot {
            key: AtomicU64::new(EMPTY),
            stamp: AtomicU64::new(0),
            row: RwLock::new(Box::new([])),
        }
    }
}

#[derive(Debug)]
struct Shard {
    slots: Box<[Slot]>,
    /// Serializes inserts and invalidations within the shard; the hit
    /// path never takes it.
    write: Mutex<()>,
    hits: CachePadded<AtomicU64>,
    misses: CachePadded<AtomicU64>,
}

/// A sharded, set-associative, capacity-bounded cache of decoded hot
/// rows (see the module docs for the concurrency layout).
#[derive(Debug)]
pub struct HotRowCache {
    shards: Vec<Shard>,
    sets: usize,
    ways: usize,
    clock: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
}

impl HotRowCache {
    /// A cache holding at least `capacity_rows` rows across `shard_count`
    /// shards (rounded up to whole sets — see
    /// [`HotRowCache::capacity_rows`]). `capacity_rows == 0` disables the
    /// cache entirely ([`HotRowCache::enabled`] returns false and lookups
    /// bypass it).
    pub fn new(capacity_rows: usize, shard_count: usize) -> HotRowCache {
        let shard_count = shard_count.max(1).min(capacity_rows.max(1));
        let per_shard_capacity = capacity_rows.div_ceil(shard_count);
        let ways = per_shard_capacity.min(MAX_WAYS);
        let sets = if ways == 0 {
            0
        } else {
            per_shard_capacity.div_ceil(ways)
        };
        HotRowCache {
            shards: (0..shard_count)
                .map(|_| Shard {
                    slots: (0..sets * ways).map(|_| Slot::vacant()).collect(),
                    write: Mutex::new(()),
                    hits: CachePadded::new(AtomicU64::new(0)),
                    misses: CachePadded::new(AtomicU64::new(0)),
                })
                .collect(),
            sets,
            ways,
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        }
    }

    /// Whether this cache stores anything at all.
    pub fn enabled(&self) -> bool {
        self.sets > 0
    }

    /// The shard and set a key lives in. The shard comes from the high
    /// bits of the Fibonacci-mixed key and the set from the low bits, so
    /// sequential row ids spread across both dimensions independently.
    fn place(&self, key: u64) -> (&Shard, usize) {
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let shard = &self.shards[((mixed >> 32) as usize) % self.shards.len()];
        let set = (mixed as u32 as usize) % self.sets;
        (shard, set * self.ways)
    }

    /// Runs `f` on the cached row for `key` if present (bumping its
    /// recency and counting a hit); counts a miss and returns
    /// `None` otherwise.
    pub fn with_row<R>(&self, key: u64, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        if !self.enabled() {
            return None;
        }
        let (shard, base) = self.place(key);
        for slot in &shard.slots[base..base + self.ways] {
            if slot.key.load(Ordering::Acquire) != key {
                continue;
            }
            let row = slot.row.read();
            // Re-verify under the slot lock: an eviction may have blanked
            // or repurposed the slot between the match and the lock.
            if slot.key.load(Ordering::Acquire) != key {
                continue;
            }
            slot.stamp.store(
                self.clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Some(f(&row));
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts a freshly decoded row, evicting the set's least recently
    /// used row if every way is occupied. A concurrent insert of the same key wins
    /// silently.
    pub fn insert(&self, key: u64, row: Box<[f32]>) {
        if !self.enabled() {
            return;
        }
        let (shard, base) = self.place(key);
        let _writer = shard.write.lock();
        let set = &shard.slots[base..base + self.ways];
        if set
            .iter()
            .any(|slot| slot.key.load(Ordering::Acquire) == key)
        {
            return; // raced with another worker decoding the same row
        }
        let victim = match set
            .iter()
            .find(|slot| slot.key.load(Ordering::Acquire) == EMPTY)
        {
            Some(vacant) => vacant,
            None => {
                let occupied = set
                    .iter()
                    .min_by_key(|slot| slot.stamp.load(Ordering::Relaxed))
                    .expect("ways >= 1");
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.resident.fetch_sub(1, Ordering::Relaxed);
                occupied
            }
        };
        // Blank the key before touching the payload so a racing reader
        // that matched the old key re-verifies and misses.
        victim.key.store(EMPTY, Ordering::Release);
        *victim.row.write() = row;
        victim.stamp.store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        victim.key.store(key, Ordering::Release);
        self.resident.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops `key` if cached (used when a row is rewritten in the store).
    pub fn invalidate(&self, key: u64) {
        if !self.enabled() {
            return;
        }
        let (shard, base) = self.place(key);
        let _writer = shard.write.lock();
        for slot in &shard.slots[base..base + self.ways] {
            if slot.key.load(Ordering::Acquire) == key {
                slot.key.store(EMPTY, Ordering::Release);
                *slot.row.write() = Box::new([]);
                self.resident.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Total cache hits so far (summed over the padded shard counters).
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Total cache misses so far (summed over the padded shard counters).
    pub fn misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Rows currently resident.
    pub fn resident_rows(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Physical capacity in rows (0 when disabled): the configured
    /// capacity rounded up to whole sets per shard.
    pub fn capacity_rows(&self) -> usize {
        self.shards.len() * self.sets * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f32) -> Box<[f32]> {
        vec![v; 4].into_boxed_slice()
    }

    #[test]
    fn disabled_cache_is_a_no_op() {
        let cache = HotRowCache::new(0, 8);
        assert!(!cache.enabled());
        cache.insert(1, row(1.0));
        assert_eq!(cache.with_row(1, |_| ()), None);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.resident_rows(), 0);
        assert_eq!(cache.capacity_rows(), 0);
    }

    #[test]
    fn hit_miss_counters_track_accesses() {
        let cache = HotRowCache::new(8, 1);
        assert_eq!(cache.with_row(5, |_| ()), None);
        cache.insert(5, row(5.0));
        assert_eq!(cache.with_row(5, |r| r[0]), Some(5.0));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.resident_rows(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = HotRowCache::new(2, 1);
        cache.insert(1, row(1.0));
        cache.insert(2, row(2.0));
        // Touch 1 so 2 is the LRU victim.
        assert!(cache.with_row(1, |_| ()).is_some());
        cache.insert(3, row(3.0));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.with_row(2, |_| ()).is_none(), "2 should be evicted");
        assert!(cache.with_row(1, |_| ()).is_some());
        assert!(cache.with_row(3, |_| ()).is_some());
        assert_eq!(cache.resident_rows(), 2);
    }

    #[test]
    fn invalidate_removes_entry() {
        let cache = HotRowCache::new(4, 2);
        cache.insert(7, row(7.0));
        assert!(cache.with_row(7, |_| ()).is_some());
        cache.invalidate(7);
        assert!(cache.with_row(7, |_| ()).is_none());
        assert_eq!(cache.resident_rows(), 0);
    }

    #[test]
    fn capacity_is_bounded_across_shards() {
        let cache = HotRowCache::new(16, 4);
        for k in 0..200u64 {
            cache.insert(k, row(k as f32));
        }
        assert!(
            cache.resident_rows() <= cache.capacity_rows() as u64,
            "resident {} > capacity {}",
            cache.resident_rows(),
            cache.capacity_rows()
        );
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn concurrent_hits_and_inserts_never_mix_rows() {
        // Readers must only ever observe the row bytes matching the key
        // they asked for, even while inserts recycle slots under them.
        use std::sync::Arc;
        let cache = Arc::new(HotRowCache::new(32, 4));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = (w * 1000 + i) % 200;
                        cache.insert(key, vec![key as f32; 4].into_boxed_slice());
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = i % 200;
                        if let Some(v) = cache.with_row(key, |r| r[0]) {
                            assert_eq!(v, key as f32, "row bytes must match the key");
                        }
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
    }
}
