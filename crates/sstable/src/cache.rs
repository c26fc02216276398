//! A sharded LRU block cache (LevelDB's `Cache`), shared across all open
//! tables: keyed by (table id, block offset), charged by block size.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::block::Block;

/// Number of shards (reduces lock contention, as in LevelDB's
/// `ShardedLRUCache`).
const SHARDS: usize = 16;

/// Globally unique id given to each opened table, used as the cache key
/// prefix (LevelDB's `NewId`).
static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a table cache id.
pub fn new_cache_id() -> u64 {
    NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    table: u64,
    offset: u64,
}

/// No slot: the end of a shard's recency list.
const NIL: usize = usize::MAX;

struct Entry {
    key: Key,
    block: Block,
    charge: usize,
    /// Slots of the entries used just before and just after this one.
    prev: usize,
    next: usize,
}

/// One shard: entries in a dense vector, found through `map` and linked
/// by slot index in order of use, so a hit, an insert and an eviction are
/// each O(1) and allocate nothing once the vector has grown.
struct Shard {
    /// Key → slot in `entries`.
    map: HashMap<Key, usize>,
    entries: Vec<Entry>,
    /// Least and most recently used slots.
    oldest: usize,
    newest: usize,
    bytes: usize,
    /// Lookups this shard answered and did not: counted under the shard
    /// lock the lookup already holds, summed by [`BlockCache::stats`].
    hits: u64,
    misses: u64,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            entries: Vec::new(),
            oldest: NIL,
            newest: NIL,
            bytes: 0,
            hits: 0,
            misses: 0,
        }
    }
}

impl Shard {
    /// Takes slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.entries[i].prev, self.entries[i].next);
        match prev {
            NIL => self.oldest = next,
            p => self.entries[p].next = next,
        }
        match next {
            NIL => self.newest = prev,
            n => self.entries[n].prev = prev,
        }
    }

    /// Puts slot `i` at the most recently used end.
    fn link_newest(&mut self, i: usize) {
        self.entries[i].prev = self.newest;
        self.entries[i].next = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.entries[n].next = i,
        }
        self.newest = i;
    }

    /// Removes the entry in slot `i`; the last entry moves into the hole
    /// so the vector stays dense.
    fn remove_slot(&mut self, i: usize) -> Entry {
        self.unlink(i);
        let removed = self.entries.swap_remove(i);
        self.map.remove(&removed.key);
        self.bytes -= removed.charge;
        if let Some(moved) = self.entries.get(i) {
            let (key, prev, next) = (moved.key, moved.prev, moved.next);
            self.map.insert(key, i);
            match prev {
                NIL => self.oldest = i,
                p => self.entries[p].next = i,
            }
            match next {
                NIL => self.newest = i,
                n => self.entries[n].prev = i,
            }
        }
        removed
    }

    fn remove(&mut self, key: &Key) -> Option<Entry> {
        let slot = *self.map.get(key)?;
        Some(self.remove_slot(slot))
    }

    /// Takes out the least recently used entry if the shard is over
    /// `capacity`.
    fn pop_over(&mut self, capacity: usize) -> Option<Entry> {
        (self.bytes > capacity && self.oldest != NIL).then(|| self.remove_slot(self.oldest))
    }
}

/// The shared block cache.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
}

impl BlockCache {
    /// Creates a cache of roughly `capacity_bytes` total.
    pub fn new(capacity_bytes: usize) -> Arc<Self> {
        Arc::new(BlockCache {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            capacity_per_shard: (capacity_bytes / SHARDS).max(1),
        })
    }

    fn shard_index(key: &Key) -> usize {
        // Mix so sequential offsets spread across shards.
        let h = key
            .table
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key.offset.wrapping_mul(0xff51_afd7_ed55_8ccd));
        // Fold all 64 bits into the low bits before the modulo: the top
        // byte alone barely moves for small sequential table ids, which
        // piled every block onto a couple of shards.
        let folded = h ^ (h >> 32);
        let folded = folded ^ (folded >> 16);
        (folded as usize) % SHARDS
    }

    fn shard(&self, key: &Key) -> &Mutex<Shard> {
        &self.shards[Self::shard_index(key)]
    }

    /// Looks up the block for `(table_id, offset)`.
    pub fn get(&self, table_id: u64, offset: u64) -> Option<Block> {
        let key = Key {
            table: table_id,
            offset,
        };
        let mut shard = self.shard(&key).lock();
        match shard.map.get(&key).copied() {
            Some(slot) => {
                shard.unlink(slot);
                shard.link_newest(slot);
                shard.hits += 1;
                Some(shard.entries[slot].block.clone())
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Inserts a block, evicting LRU entries past capacity. What leaves
    /// the cache — the entry this one replaces, the victims — is freed
    /// after the shard lock is released: a reader of the same shard does
    /// not wait for 4 KiB blocks to go back to the allocator.
    pub fn insert(&self, table_id: u64, offset: u64, block: Block) {
        let key = Key {
            table: table_id,
            offset,
        };
        let charge = block.size().max(1);
        let capacity = self.capacity_per_shard;
        let evicted = {
            let mut shard = self.shard(&key).lock();
            let replaced = shard.remove(&key);
            let slot = shard.entries.len();
            shard.entries.push(Entry {
                key,
                block,
                charge,
                prev: NIL,
                next: NIL,
            });
            shard.map.insert(key, slot);
            shard.link_newest(slot);
            shard.bytes += charge;
            // Equal-sized blocks push out one victim per insert; only a
            // larger block needs the vector, so the common insert
            // allocates nothing under the lock.
            let victim = shard.pop_over(capacity);
            let mut more_victims = Vec::new();
            while let Some(entry) = shard.pop_over(capacity) {
                more_victims.push(entry);
            }
            (replaced, victim, more_victims)
        };
        drop(evicted);
    }

    /// Drops every block belonging to `table_id` (file deleted).
    /// Returns the number of cached bytes freed.
    pub fn evict_table(&self, table_id: u64) -> usize {
        let mut freed = 0usize;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let removed: Vec<Key> = shard
                .map
                .keys()
                .filter(|k| k.table == table_id)
                .copied()
                .collect();
            for k in removed {
                if let Some(e) = shard.remove(&k) {
                    freed += e.charge;
                }
            }
        }
        freed
    }

    /// Total cached bytes.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(hits, misses), shard| {
            let shard = shard.lock();
            (hits + shard.hits, misses + shard.misses)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize) -> Block {
        // Minimal valid block: n filler bytes worth of one entry + trailer.
        let mut b = crate::block_builder::BlockBuilder::new(16);
        b.add(b"k", &vec![0u8; n]);
        Block::new(b.finish().to_vec().into()).unwrap()
    }

    #[test]
    fn hit_and_miss() {
        let c = BlockCache::new(1 << 20);
        assert!(c.get(1, 0).is_none());
        c.insert(1, 0, block(100));
        assert!(c.get(1, 0).is_some());
        assert!(c.get(1, 4096).is_none());
        assert!(c.get(2, 0).is_none());
        let (h, m) = c.stats();
        assert_eq!((h, m), (1, 3));
    }

    #[test]
    fn capacity_bounds_memory() {
        // Per-shard capacity 32 KiB ≈ 7 four-KiB blocks.
        let c = BlockCache::new((SHARDS * 32) << 10);
        for i in 0..1000u64 {
            c.insert(1, i * 4096, block(4096));
        }
        assert!(
            c.bytes() <= (SHARDS * 40) << 10,
            "bytes {} over capacity",
            c.bytes()
        );
        // Some recent inserts survive in their shards.
        assert!((990..1000u64).any(|i| c.get(1, i * 4096).is_some()));
    }

    #[test]
    fn lru_prefers_recent() {
        let c = BlockCache::new(SHARDS * 3000);
        // Per-shard capacity 3000 bytes ≈ 2 blocks of ~1100.
        for i in 0..6u64 {
            c.insert(1, i, block(1000));
        }
        // Touch the oldest surviving entries to refresh them, then insert
        // more and verify refresh helped at least once.
        let mut survivors: Vec<u64> = (0..6).filter(|&i| c.get(1, i).is_some()).collect();
        assert!(!survivors.is_empty());
        let refreshed = survivors.pop().unwrap();
        for i in 6..12u64 {
            c.insert(1, i, block(1000));
        }
        // The refreshed key is at least as likely to be present as any
        // unrefreshed one; just assert no panic and bounded memory.
        let _ = c.get(1, refreshed);
        assert!(c.bytes() <= SHARDS * 4500);
    }

    #[test]
    fn victims_leave_in_exact_lru_order() {
        // Eight offsets that share one shard, so one recency order governs.
        let probe = Key {
            table: 1,
            offset: 0,
        };
        let shard = BlockCache::shard_index(&probe);
        let offsets: Vec<u64> = (0..)
            .filter(|&offset| BlockCache::shard_index(&Key { table: 1, offset }) == shard)
            .take(8)
            .collect();
        let charge = block(1000).size();
        // Room for exactly four blocks per shard.
        let c = BlockCache::new(SHARDS * (4 * charge + charge / 2));
        let resident = |offset: u64| {
            let key = Key { table: 1, offset };
            c.shards[shard].lock().map.contains_key(&key)
        };
        for &o in &offsets[..4] {
            c.insert(1, o, block(1000));
        }
        // Use order is now 1, 3, 0, 2 (least to most recent).
        assert!(c.get(1, offsets[0]).is_some());
        assert!(c.get(1, offsets[2]).is_some());
        for (new, victim) in [(4, 1), (5, 3), (6, 0), (7, 2)] {
            assert!(resident(offsets[victim]), "block {victim} left early");
            c.insert(1, offsets[new], block(1000));
            assert!(
                !resident(offsets[victim]),
                "block {victim} should be the victim"
            );
            let live = offsets.iter().filter(|&&o| resident(o)).count();
            assert_eq!(live, 4, "exactly one victim per insert");
        }
        // Re-inserting a resident key replaces it; removing from the
        // middle (a slot swap) keeps the order of the rest.
        c.insert(1, offsets[5], block(1000));
        assert_eq!(c.bytes(), 4 * charge);
        c.shards[shard].lock().remove(&Key {
            table: 1,
            offset: offsets[6],
        });
        let guard = c.shards[shard].lock();
        let mut order = Vec::new();
        let mut slot = guard.oldest;
        while slot != NIL {
            order.push(guard.entries[slot].key.offset);
            slot = guard.entries[slot].next;
        }
        assert_eq!(order, [offsets[4], offsets[7], offsets[5]]);
        assert_eq!((guard.entries.len(), guard.map.len()), (3, 3));
    }

    #[test]
    fn evict_table_removes_all() {
        let c = BlockCache::new(1 << 20);
        for i in 0..20u64 {
            c.insert(7, i * 4096, block(500));
            c.insert(8, i * 4096, block(500));
        }
        c.evict_table(7);
        for i in 0..20u64 {
            assert!(c.get(7, i * 4096).is_none());
        }
        assert!((0..20u64).any(|i| c.get(8, i * 4096).is_some()));
    }

    #[test]
    fn shard_distribution_over_sequential_keys() {
        // Regression: the old shard selector took only the top 8 bits of
        // the mixed hash, so sequential table ids × block offsets (the
        // access pattern every compaction produces) landed on a handful
        // of shards. Require every shard to take a reasonable share.
        let mut per_shard = [0usize; SHARDS];
        let mut total = 0usize;
        for table in 1..=32u64 {
            for block in 0..64u64 {
                let key = Key {
                    table,
                    offset: block * 4096,
                };
                per_shard[BlockCache::shard_index(&key)] += 1;
                total += 1;
            }
        }
        let avg = total / SHARDS;
        let min = *per_shard.iter().min().unwrap();
        let max = *per_shard.iter().max().unwrap();
        assert!(
            min * 3 >= avg,
            "underloaded shard: min {min} vs avg {avg} ({per_shard:?})"
        );
        assert!(
            max <= avg * 2,
            "overloaded shard: max {max} vs avg {avg} ({per_shard:?})"
        );
    }

    #[test]
    fn evict_table_reports_freed_bytes() {
        let c = BlockCache::new(1 << 20);
        c.insert(5, 0, block(500));
        c.insert(5, 4096, block(500));
        let before = c.bytes();
        assert!(before > 0);
        let freed = c.evict_table(5);
        assert_eq!(freed, before);
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.evict_table(5), 0);
    }

    #[test]
    fn cache_ids_are_unique() {
        let a = new_cache_id();
        let b = new_cache_id();
        assert_ne!(a, b);
    }
}
