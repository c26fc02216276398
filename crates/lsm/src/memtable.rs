//! In-memory write buffer: an arena-backed skiplist over internal keys
//! (the paper's *MemTable* / *Immutable MemTable*, Fig. 1).
//!
//! The skiplist is safe Rust with LevelDB's O(log n) insert/seek
//! structure, kept in one arena: a node's links are arena offsets stored
//! just before its key and value, so a search touches one cache line per
//! node visited and a 4 MiB memtable performs a handful of large
//! allocations rather than millions of small ones. One writer at a time
//! inserts — the group-commit leader, inside the WAL epoch section — and
//! readers search beside it; the skiplist's one lock (rank
//! `mem.skiplist 80`, a leaf) serializes the two for one step each.
//!
//! Size accounting (`approximate_memory_usage`, the flush trigger) is
//! atomic so the write path can poll it without any lock.
//!
//! Iteration is lazy: a [`MemTableIter`] remembers a node's arena offset
//! — offsets are stable because nodes are only ever appended — and takes
//! the lock for exactly one `seek`/`next`/`prev` step, copying the entry
//! it lands on into two reused buffers. Nothing is locked between calls,
//! nothing is copied that the caller does not step over, and an open
//! iterator pins only the `Arc<MemTable>` itself. An entry inserted after
//! the iterator was created is found by a later seek and may or may not
//! be met by `next`/`prev`; readers that need a frozen view filter by
//! sequence number (`DbIter`), and the flush path only iterates frozen
//! memtables.

use std::cmp::Ordering;
use std::sync::Arc;

use sstable::comparator::InternalKeyComparator;
use sstable::ikey::{
    append_internal_key, parse_internal_key, LookupKey, SequenceNumber, ValueType,
};
use sstable::iterator::InternalIterator;

use crate::sync_shim::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use crate::sync_shim::Mutex;

const MAX_HEIGHT: usize = 12;
/// Branching factor 4, as in LevelDB.
const BRANCHING: u32 = 4;

/// Outcome of a memtable point lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum MemGet {
    /// Found a live value.
    Value(Vec<u8>),
    /// Found a tombstone: the key is definitely deleted at this snapshot.
    Deleted,
    /// No entry for the key; check older structures.
    NotFound,
}

/// Bytes charged to the size counter per entry beyond its key and value.
/// A node's own bytes are 9 + 4 × height (at most 57); the charge stays at
/// the 64 that a separate node struct took, so memtables rotate, and
/// flushes cut tables, at the same entries as then.
const NODE_CHARGE: usize = 64;

/// The skiplist: its nodes live in one arena,
/// each laid out as `[height u8][next u32 × height][key_len u32]
/// [value_len u32][internal key][value]`, links highest level first. A
/// node is named by the arena offset of its `key_len`: its key is read
/// without reading its height, and its link at level `l` lies `4 × (l + 1)`
/// bytes before that offset. No node starts at offset 0, so a link of 0
/// means "none".
struct Core {
    arena: Vec<u8>,
    /// The head sentinel's links.
    head: [u32; MAX_HEIGHT],
    max_height: usize,
    /// Cheap xorshift state for height selection (deterministic given
    /// the insert order).
    rng_state: u32,
}

impl Core {
    fn new() -> Self {
        Core {
            arena: Vec::with_capacity(1 << 16),
            head: [0; MAX_HEIGHT],
            max_height: 1,
            // Any nonzero seed works for xorshift.
            rng_state: 0xdead_beef,
        }
    }

    fn random_height(&mut self) -> usize {
        let mut height = 1;
        while height < MAX_HEIGHT {
            // xorshift32
            let mut x = self.rng_state;
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            self.rng_state = x;
            if x.is_multiple_of(BRANCHING) {
                height += 1;
            } else {
                break;
            }
        }
        height
    }

    fn read_u32(&self, at: usize) -> u32 {
        let mut word = [0u8; 4];
        word.copy_from_slice(&self.arena[at..at + 4]);
        u32::from_le_bytes(word)
    }

    /// Where `node`'s link at `level` is stored.
    fn link_at(node: u32, level: usize) -> usize {
        node as usize - 4 * (level + 1)
    }

    /// `node`'s successor at `level` (0 = the head sentinel).
    fn next(&self, node: u32, level: usize) -> u32 {
        if node == 0 {
            self.head[level]
        } else {
            self.read_u32(Self::link_at(node, level))
        }
    }

    fn set_next(&mut self, node: u32, level: usize, to: u32) {
        if node == 0 {
            self.head[level] = to;
        } else {
            let at = Self::link_at(node, level);
            self.arena[at..at + 4].copy_from_slice(&to.to_le_bytes());
        }
    }

    fn node_key(&self, node: u32) -> &[u8] {
        let at = node as usize + 8;
        &self.arena[at..at + self.read_u32(node as usize) as usize]
    }

    fn node_value(&self, node: u32) -> &[u8] {
        let at = node as usize + 8 + self.read_u32(node as usize) as usize;
        &self.arena[at..at + self.read_u32(node as usize + 4) as usize]
    }

    /// Finds, for each level, the last node whose key is < `key`.
    fn find_splice(&self, key: &[u8]) -> [u32; MAX_HEIGHT] {
        let mut prev = [0u32; MAX_HEIGHT];
        let mut x = 0u32; // head
        for (level, slot) in prev.iter_mut().enumerate().take(self.max_height).rev() {
            loop {
                let next = self.next(x, level);
                if next != 0
                    && InternalKeyComparator.compare(self.node_key(next), key) == Ordering::Less
                {
                    x = next;
                } else {
                    break;
                }
            }
            *slot = x;
        }
        prev
    }

    /// First node with key >= `key` (0 if none).
    fn find_greater_or_equal(&self, key: &[u8]) -> u32 {
        self.next(self.find_splice(key)[0], 0)
    }

    /// Inserts an entry as a node of `height`; returns the bytes charged
    /// to the size counter.
    fn add(
        &mut self,
        height: usize,
        seq: SequenceNumber,
        value_type: ValueType,
        user_key: &[u8],
        value: &[u8],
    ) -> usize {
        self.max_height = self.max_height.max(height);
        let key_len = user_key.len() + 8;
        let node = self.arena.len() + 1 + 4 * height;
        self.arena.push(height as u8);
        self.arena.resize(node, 0); // links, set below
        self.arena
            .extend_from_slice(&(key_len as u32).to_le_bytes());
        self.arena
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        append_internal_key(&mut self.arena, user_key, seq, value_type);
        self.arena.extend_from_slice(value);

        // The splice is computed against the key where it now lies.
        let prev = self.find_splice(&self.arena[node + 8..node + 8 + key_len]);
        let node = node as u32;
        for (level, &p) in prev.iter().enumerate().take(height) {
            self.set_next(node, level, self.next(p, level));
            self.set_next(p, level, node);
        }
        key_len + value.len() + NODE_CHARGE
    }

    /// Last node (0 if empty); LevelDB's `FindLast`.
    fn find_last(&self) -> u32 {
        let mut x = 0u32; // head
        for level in (0..self.max_height).rev() {
            loop {
                let next = self.next(x, level);
                if next == 0 {
                    break;
                }
                x = next;
            }
        }
        x
    }
}

/// The memtable: one skiplist under one lock.
pub struct MemTable {
    core: Mutex<Core>,
    /// Approximate memory usage (keys + values + [`NODE_CHARGE`] each), readable
    /// lock-free (drives the flush trigger on the write fast path).
    approx_bytes: AtomicUsize,
    entries: AtomicUsize,
}

impl MemTable {
    /// Creates an empty memtable. Its keys are in the store's one order,
    /// which the argument only names.
    pub fn new(_order: InternalKeyComparator) -> Self {
        MemTable {
            core: Mutex::new(Core::new()),
            approx_bytes: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
        }
    }

    /// Approximate bytes used (drives the flush trigger). Lock-free.
    pub fn approximate_memory_usage(&self) -> usize {
        self.approx_bytes.load(AtomicOrdering::Acquire)
    }

    /// Number of entries inserted. Lock-free.
    pub fn len(&self) -> usize {
        self.entries.load(AtomicOrdering::Acquire)
    }

    /// True if no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an entry. Internal keys are unique because sequence
    /// numbers are unique, so no overwrite case exists. `&self`: readers
    /// may search while it runs.
    pub fn add(&self, seq: SequenceNumber, value_type: ValueType, user_key: &[u8], value: &[u8]) {
        let charged = {
            let mut core = self.core.lock(); // LOCK-ORDER: mem.skiplist 80
            let height = core.random_height();
            core.add(height, seq, value_type, user_key, value)
        };
        self.entries.fetch_add(1, AtomicOrdering::AcqRel);
        self.approx_bytes.fetch_add(charged, AtomicOrdering::AcqRel);
    }

    /// Point lookup at the snapshot encoded in `lookup`.
    pub fn get(&self, lookup: &LookupKey) -> MemGet {
        let core = self.core.lock(); // LOCK-ORDER: mem.skiplist 80
        let idx = core.find_greater_or_equal(lookup.internal_key());
        if idx == 0 {
            return MemGet::NotFound;
        }
        let ikey = core.node_key(idx);
        let Some(parsed) = parse_internal_key(ikey) else {
            return MemGet::NotFound;
        };
        if parsed.user_key != lookup.user_key() {
            return MemGet::NotFound;
        }
        match parsed.value_type {
            ValueType::Value => MemGet::Value(core.node_value(idx).to_vec()),
            ValueType::Deletion => MemGet::Deleted,
        }
    }

    /// Creates a lazy iterator over internal keys. It pins this memtable
    /// and holds no lock between calls; see the module header for what
    /// concurrent inserts it observes.
    pub fn iter(self: &Arc<Self>) -> MemTableIter {
        MemTableIter {
            mem: Arc::clone(self),
            node: 0,
            key: Vec::new(),
            value: Vec::new(),
        }
    }
}

/// A seekable cursor over a memtable's skiplist.
pub struct MemTableIter {
    mem: Arc<MemTable>,
    /// Arena offset of the current node; 0 (never a node) means invalid.
    node: u32,
    /// Copies of the current entry, so `key()`/`value()` need no lock.
    key: Vec<u8>,
    value: Vec<u8>,
}

impl MemTableIter {
    /// Runs one positioning step under the skiplist lock — `step` picks
    /// the new node from the skiplist and the cursor's current state —
    /// and copies the entry it lands on out of the arena.
    fn reposition(&mut self, step: impl FnOnce(&Core, &MemTableIter) -> u32) {
        let core = self.mem.core.lock(); // LOCK-ORDER: mem.skiplist 80
        self.node = step(&core, self);
        self.key.clear();
        self.value.clear();
        if self.node != 0 {
            self.key.extend_from_slice(core.node_key(self.node));
            self.value.extend_from_slice(core.node_value(self.node));
        }
    }
}

impl InternalIterator for MemTableIter {
    fn valid(&self) -> bool {
        self.node != 0
    }

    fn seek_to_first(&mut self) {
        self.reposition(|core, _| core.head[0]);
    }

    fn seek_to_last(&mut self) {
        self.reposition(|core, _| core.find_last());
    }

    fn seek(&mut self, target: &[u8]) {
        self.reposition(|core, _| core.find_greater_or_equal(target));
    }

    fn next(&mut self) {
        debug_assert!(self.valid());
        self.reposition(|core, at| core.next(at.node, 0));
    }

    /// There are no back links; like LevelDB's `FindLessThan`, search
    /// for the last node before the current key.
    fn prev(&mut self) {
        debug_assert!(self.valid());
        self.reposition(|core, at| core.find_splice(&at.key)[0]);
    }

    fn key(&self) -> &[u8] {
        debug_assert!(self.valid());
        &self.key
    }

    fn value(&self) -> &[u8] {
        debug_assert!(self.valid());
        &self.value
    }

    fn status(&self) -> sstable::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::ikey::MAX_SEQUENCE_NUMBER;

    fn memtable() -> Arc<MemTable> {
        Arc::new(MemTable::new(InternalKeyComparator))
    }

    /// Every `(internal_key, value)` pair, by a full forward walk.
    fn entries(m: &Arc<MemTable>) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut it = m.iter();
        it.seek_to_first();
        let mut out = Vec::new();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        out
    }

    #[test]
    fn get_returns_latest_version() {
        let m = memtable();
        m.add(1, ValueType::Value, b"k", b"v1");
        m.add(2, ValueType::Value, b"k", b"v2");
        // Snapshot at seq 10 sees v2.
        assert_eq!(
            m.get(&LookupKey::new(b"k", 10)),
            MemGet::Value(b"v2".to_vec())
        );
        // Snapshot at seq 1 sees v1.
        assert_eq!(
            m.get(&LookupKey::new(b"k", 1)),
            MemGet::Value(b"v1".to_vec())
        );
        // Snapshot at seq 0 predates both.
        assert_eq!(m.get(&LookupKey::new(b"k", 0)), MemGet::NotFound);
    }

    #[test]
    fn tombstones_report_deleted() {
        let m = memtable();
        m.add(1, ValueType::Value, b"k", b"v");
        m.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(m.get(&LookupKey::new(b"k", 10)), MemGet::Deleted);
        assert_eq!(
            m.get(&LookupKey::new(b"k", 1)),
            MemGet::Value(b"v".to_vec())
        );
        assert_eq!(m.get(&LookupKey::new(b"other", 10)), MemGet::NotFound);
    }

    #[test]
    fn iterator_yields_sorted_internal_keys() {
        let m = memtable();
        // Insert out of order.
        for (i, k) in [(3u64, "c"), (1, "a"), (2, "b"), (5, "a"), (4, "d")] {
            m.add(
                i,
                ValueType::Value,
                k.as_bytes(),
                format!("v{i}").as_bytes(),
            );
        }
        let mut it = m.iter();
        it.seek_to_first();
        let mut seen = Vec::new();
        while it.valid() {
            let p = parse_internal_key(it.key()).unwrap();
            seen.push((p.user_key.to_vec(), p.sequence));
            it.next();
        }
        // "a" seq5 before "a" seq1 (descending seq), then b, c, d.
        assert_eq!(
            seen,
            vec![
                (b"a".to_vec(), 5),
                (b"a".to_vec(), 1),
                (b"b".to_vec(), 2),
                (b"c".to_vec(), 3),
                (b"d".to_vec(), 4),
            ]
        );
    }

    #[test]
    fn iterator_seek_and_prev() {
        let m = memtable();
        for i in 0..100u64 {
            m.add(
                i + 1,
                ValueType::Value,
                format!("key{i:03}").as_bytes(),
                b"v",
            );
        }
        let mut it = m.iter();
        let lk = LookupKey::new(b"key050", u64::MAX >> 8);
        it.seek(lk.internal_key());
        assert!(it.valid());
        assert_eq!(parse_internal_key(it.key()).unwrap().user_key, b"key050");
        it.prev();
        assert_eq!(parse_internal_key(it.key()).unwrap().user_key, b"key049");
        it.seek_to_last();
        assert_eq!(parse_internal_key(it.key()).unwrap().user_key, b"key099");
        it.prev();
        assert_eq!(parse_internal_key(it.key()).unwrap().user_key, b"key098");
    }

    /// The iterator reads the skiplist when it is stepped, not when it is
    /// created: an entry added in between is found by a later seek.
    #[test]
    fn iterator_is_lazy() {
        let m = memtable();
        m.add(1, ValueType::Value, b"a", b"1");
        let mut it = m.iter();
        m.add(2, ValueType::Value, b"b", b"2");
        it.seek(LookupKey::new(b"b", u64::MAX >> 8).internal_key());
        assert!(it.valid());
        assert_eq!(parse_internal_key(it.key()).unwrap().user_key, b"b");
        assert_eq!(it.value(), b"2");
    }

    #[test]
    fn memory_usage_grows() {
        let m = memtable();
        let before = m.approximate_memory_usage();
        m.add(1, ValueType::Value, b"key", &[0u8; 1000]);
        assert!(m.approximate_memory_usage() >= before + 1000);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn large_insert_stays_sorted() {
        let m = memtable();
        let mut keys: Vec<u64> = (0..5000).collect();
        // Deterministic shuffle.
        let mut s = 12345u64;
        for i in (1..keys.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            keys.swap(i, (s % (i as u64 + 1)) as usize);
        }
        for (seq, k) in keys.iter().enumerate() {
            m.add(
                seq as u64 + 1,
                ValueType::Value,
                format!("{k:08}").as_bytes(),
                b"",
            );
        }
        let mut it = m.iter();
        it.seek_to_first();
        let mut count = 0u64;
        let mut last: Option<Vec<u8>> = None;
        while it.valid() {
            let uk = parse_internal_key(it.key()).unwrap().user_key.to_vec();
            if let Some(l) = &last {
                assert!(l < &uk);
            }
            last = Some(uk);
            count += 1;
            it.next();
        }
        assert_eq!(count, 5000);
    }

    /// Nodes of every height, with empty and 1 KiB values, read back
    /// through the arena's own layout, every level's links, point gets,
    /// both cursor directions and `find_last` — after the arena has
    /// reallocated under them: links are offsets, not addresses.
    #[test]
    fn nodes_of_every_height_survive_arena_growth() {
        let m = memtable();
        let skiplist = &m.core;
        let initial = skiplist.lock().arena.capacity();
        // (user key, value, height), in insert order.
        let mut inserted: Vec<(Vec<u8>, Vec<u8>, usize)> = Vec::new();
        while skiplist.lock().arena.capacity() == initial {
            for height in 1..=MAX_HEIGHT {
                for value_len in [0, 1024] {
                    let n = inserted.len() as u64;
                    // Distinct and out of order: n ↦ n·k mod a prime.
                    let key = format!("{:010}", n * 2_654_435_761 % 4_294_967_311).into_bytes();
                    let value = vec![n as u8; value_len];
                    let mut core = skiplist.lock();
                    core.add(height, n + 1, ValueType::Value, &key, &value);
                    inserted.push((key, value, height));
                }
            }
        }
        let core = skiplist.lock();

        // The arena walked in insert order, node by node.
        let mut at = 0;
        for (key, value, height) in &inserted {
            assert_eq!(usize::from(core.arena[at]), *height);
            let node = (at + 1 + 4 * height) as u32;
            assert_eq!(
                parse_internal_key(core.node_key(node)).unwrap().user_key,
                key
            );
            assert_eq!(core.node_value(node), value);
            at = node as usize + 8 + key.len() + 8 + value.len();
        }
        assert_eq!(at, core.arena.len());

        // Level `l` links, in key order, exactly the nodes taller than `l`.
        let mut sorted = inserted.clone();
        sorted.sort();
        for level in 0..MAX_HEIGHT {
            let mut chain = Vec::new();
            let mut x = core.next(0, level);
            while x != 0 {
                chain.push(
                    parse_internal_key(core.node_key(x))
                        .unwrap()
                        .user_key
                        .to_vec(),
                );
                x = core.next(x, level);
            }
            let taller: Vec<_> = sorted
                .iter()
                .filter(|e| e.2 > level)
                .map(|e| e.0.clone())
                .collect();
            assert_eq!(chain, taller, "level {level}");
        }
        drop(core);

        for (key, value, _) in &inserted {
            let got = m.get(&LookupKey::new(key, MAX_SEQUENCE_NUMBER));
            assert_eq!(got, MemGet::Value(value.clone()));
        }
        let walk = |forward: bool| {
            let mut it = m.iter();
            let mut out = Vec::new();
            if forward {
                it.seek_to_first();
            } else {
                it.seek_to_last();
            }
            while it.valid() {
                out.push((
                    parse_internal_key(it.key()).unwrap().user_key.to_vec(),
                    it.value().to_vec(),
                ));
                if forward {
                    it.next();
                } else {
                    it.prev();
                }
            }
            out
        };
        let expected: Vec<_> = sorted.into_iter().map(|(k, v, _)| (k, v)).collect();
        assert_eq!(walk(true), expected);
        let mut backward = walk(false);
        backward.reverse();
        assert_eq!(backward, expected);
    }

    /// The same `(key, seq)` set inserted in scrambled and in key order
    /// yields the same walk: the skiplist's contents do not depend on
    /// arrival order, as the memtable's did not when it was sharded.
    #[test]
    fn one_shard_matches_sharded_contents() {
        let scrambled = memtable();
        let sorted = memtable();
        let mut inserts: Vec<(u64, String)> = (0..500u64)
            .map(|i| (i + 1, format!("k{:04}", (i * 37) % 500)))
            .collect();
        for (seq, k) in &inserts {
            scrambled.add(*seq, ValueType::Value, k.as_bytes(), b"v");
        }
        inserts.sort_by(|a, b| a.1.cmp(&b.1));
        for (seq, k) in &inserts {
            sorted.add(*seq, ValueType::Value, k.as_bytes(), b"v");
        }
        assert_eq!(entries(&scrambled), entries(&sorted));
        assert_eq!(scrambled.len(), sorted.len());
    }

    /// Multi-writer stress: concurrent inserts from several threads must
    /// all land, stay sorted, and serve concurrent point reads. Under
    /// `--cfg loom` the skiplist lock crosses scheduling points; under the
    /// TSan CI job this is the data-race probe for the memtable.
    #[test]
    fn concurrent_writers_and_readers() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 400;
        let m = memtable();
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let m = &m;
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        // Interleave key ranges so inserts land between
                        // other threads' keys.
                        let key = format!("key{:06}", i * WRITERS + w);
                        let seq = w * PER_WRITER + i + 1;
                        m.add(seq, ValueType::Value, key.as_bytes(), key.as_bytes());
                    }
                });
            }
            // A reader polls for a key the first writer inserts early.
            let m = &m;
            s.spawn(move || {
                let key = format!("key{:06}", 0);
                for _ in 0..1000 {
                    match m.get(&LookupKey::new(key.as_bytes(), u64::MAX >> 8)) {
                        MemGet::Value(v) => {
                            assert_eq!(v, key.as_bytes());
                            return;
                        }
                        MemGet::NotFound => std::thread::yield_now(),
                        MemGet::Deleted => panic!("never deleted"),
                    }
                }
            });
        });
        assert_eq!(m.len() as u64, WRITERS * PER_WRITER);
        let all = entries(&m);
        assert_eq!(all.len() as u64, WRITERS * PER_WRITER);
        assert!(all
            .windows(2)
            .all(|w| parse_internal_key(&w[0].0).unwrap().user_key
                < parse_internal_key(&w[1].0).unwrap().user_key));
        for w in 0..WRITERS {
            let key = format!("key{:06}", w);
            assert_eq!(
                m.get(&LookupKey::new(key.as_bytes(), u64::MAX >> 8)),
                MemGet::Value(key.into_bytes())
            );
        }
    }
}
