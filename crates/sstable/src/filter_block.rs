//! Filter metablock: one bloom filter per 2 KiB range of data-block
//! offsets, exactly LevelDB's `FilterBlockBuilder`/`FilterBlockReader`.
//!
//! Layout: `[filter 0][filter 1]... [offset of filter 0 (fixed32)]...
//! [offset of offsets array (fixed32)][base_lg (1 byte)]`.

use crate::bloom::{bloom_hash, BloomFilterPolicy};
use crate::coding::{decode_fixed32, put_fixed32};

/// Generate a new filter every 2 KiB of data-block offset space.
const FILTER_BASE_LG: u8 = 11;
const FILTER_BASE: u64 = 1 << FILTER_BASE_LG;

/// Builds the filter metablock alongside table construction. Keeps only
/// the 32-bit [`bloom_hash`] of each key of the current filter — all a
/// filter depends on — in a vector reused from filter to filter, so
/// adding a key copies and allocates nothing.
pub struct FilterBlockBuilder {
    policy: BloomFilterPolicy,
    /// Hashes of the keys of the current filter.
    hashes: Vec<u32>,
    /// Accumulated filter bytes.
    result: Vec<u8>,
    /// Offset of each generated filter within `result`.
    filter_offsets: Vec<u32>,
}

impl FilterBlockBuilder {
    /// Creates a builder using `policy` for filter generation.
    pub fn new(policy: BloomFilterPolicy) -> Self {
        FilterBlockBuilder {
            policy,
            hashes: Vec::new(),
            result: Vec::new(),
            filter_offsets: Vec::new(),
        }
    }

    /// Declares that a new data block starts at `block_offset`; emits
    /// filters for all fully covered 2 KiB ranges before it.
    pub fn start_block(&mut self, block_offset: u64) {
        let filter_index = block_offset / FILTER_BASE;
        debug_assert!(filter_index >= self.filter_offsets.len() as u64);
        while (self.filter_offsets.len() as u64) < filter_index {
            self.generate_filter();
        }
    }

    /// Adds a key that belongs to the current data block.
    pub fn add_key(&mut self, key: &[u8]) {
        self.hashes.push(bloom_hash(key));
    }

    /// Finalizes and returns the filter block contents.
    pub fn finish(&mut self) -> &[u8] {
        if !self.hashes.is_empty() {
            self.generate_filter();
        }
        let array_offset = self.result.len() as u32;
        for off in self.filter_offsets.drain(..) {
            put_fixed32(&mut self.result, off);
        }
        put_fixed32(&mut self.result, array_offset);
        self.result.push(FILTER_BASE_LG);
        &self.result
    }

    /// Empties the builder for the next table, keeping its buffers.
    pub fn reset(&mut self) {
        self.hashes.clear();
        self.result.clear();
        self.filter_offsets.clear();
    }

    fn generate_filter(&mut self) {
        self.filter_offsets.push(self.result.len() as u32);
        if self.hashes.is_empty() {
            // Empty range: record the offset, emit no bytes.
            return;
        }
        self.policy.create_filter(&self.hashes, &mut self.result);
        self.hashes.clear();
    }
}

/// Reads a filter metablock.
pub struct FilterBlockReader {
    policy: BloomFilterPolicy,
    data: Vec<u8>,
    /// Offset of the offsets array.
    array_offset: usize,
    num_filters: usize,
    base_lg: u8,
}

impl FilterBlockReader {
    /// Wraps raw filter block contents; returns `None` on malformed input.
    pub fn new(policy: BloomFilterPolicy, data: Vec<u8>) -> Option<Self> {
        if data.len() < 5 {
            return None;
        }
        let base_lg = data[data.len() - 1];
        let array_offset = decode_fixed32(&data[data.len() - 5..]) as usize;
        if array_offset > data.len() - 5 {
            return None;
        }
        let num_filters = (data.len() - 5 - array_offset) / 4;
        Some(FilterBlockReader {
            policy,
            data,
            array_offset,
            num_filters,
            base_lg,
        })
    }

    /// True if `key` may be present in the data block at `block_offset`.
    pub fn key_may_match(&self, block_offset: u64, key: &[u8]) -> bool {
        let index = (block_offset >> self.base_lg) as usize;
        if index >= self.num_filters {
            // No filter recorded: do not exclude.
            return true;
        }
        let start = decode_fixed32(&self.data[self.array_offset + index * 4..]) as usize;
        let limit = if index + 1 < self.num_filters {
            decode_fixed32(&self.data[self.array_offset + (index + 1) * 4..]) as usize
        } else {
            self.array_offset
        };
        if start > limit || limit > self.array_offset {
            return true; // malformed: fail open
        }
        if start == limit {
            // Empty filter covers no keys.
            return false;
        }
        self.policy.key_may_match(key, &self.data[start..limit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BloomFilterPolicy {
        BloomFilterPolicy::new(10)
    }

    #[test]
    fn empty_builder_produces_valid_block() {
        let mut b = FilterBlockBuilder::new(policy());
        let block = b.finish().to_vec();
        assert_eq!(block.len(), 5);
        let r = FilterBlockReader::new(policy(), block).unwrap();
        // No filters recorded: fail open.
        assert!(r.key_may_match(0, b"foo"));
        assert!(r.key_may_match(100_000, b"foo"));
    }

    #[test]
    fn single_block_filter() {
        let mut b = FilterBlockBuilder::new(policy());
        b.start_block(100);
        b.add_key(b"foo");
        b.add_key(b"bar");
        b.add_key(b"box");
        let block = b.finish().to_vec();
        let r = FilterBlockReader::new(policy(), block).unwrap();
        assert!(r.key_may_match(100, b"foo"));
        assert!(r.key_may_match(100, b"bar"));
        assert!(!r.key_may_match(100, b"missing-key"));
        assert!(!r.key_may_match(100, b"other"));
    }

    #[test]
    fn multi_range_filters_are_independent() {
        let mut b = FilterBlockBuilder::new(policy());
        b.start_block(0);
        b.add_key(b"alpha");
        b.start_block(3000); // second 2 KiB range
        b.add_key(b"bravo");
        b.start_block(9000); // skips ranges 2..3 (empty filters)
        b.add_key(b"charlie");
        let block = b.finish().to_vec();
        let r = FilterBlockReader::new(policy(), block).unwrap();

        assert!(r.key_may_match(0, b"alpha"));
        assert!(!r.key_may_match(0, b"bravo"));
        assert!(r.key_may_match(3000, b"bravo"));
        assert!(!r.key_may_match(3000, b"alpha"));
        assert!(r.key_may_match(9000, b"charlie"));
        // Empty in-between range: nothing matches.
        assert!(!r.key_may_match(4500, b"alpha"));
        assert!(!r.key_may_match(4500, b"charlie"));
    }

    #[test]
    fn malformed_block_rejected_or_fails_open() {
        assert!(FilterBlockReader::new(policy(), vec![]).is_none());
        assert!(FilterBlockReader::new(policy(), vec![1, 2, 3]).is_none());
        // array_offset beyond the block.
        let mut bad = vec![0u8; 3];
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.push(11);
        assert!(FilterBlockReader::new(policy(), bad).is_none());
    }

    /// Pins the bytes the key-copying builder (flat key buffer plus a
    /// `Vec<&[u8]>` per filter, before the hash-keeping rewrite) produced
    /// for this sequence: several keys per filter, ranges with no block
    /// (empty filters), a tail added after the last `start_block`.
    #[test]
    fn golden_block_of_the_key_copying_builder() {
        const GOLDEN: &str = "780662646620443a6c1672027230702e6e0601c6355405541514255435443146\
            1182348235061184064b224b0dc926880a9a20126e8b65c22ccb2b8a2a486252\
            6b0006c124092406a8b7b110b90420173b3c99b31b11a0011128341599273801\
            2093a838bba31dd8aa8011283a90950600810002080010400600000000120000\
            0012000000290000002900000048000000480000007000000070000000700000\
            0070000000790000000b";
        let mut b = FilterBlockBuilder::new(policy());
        let mut offset = 0u64;
        for block in 0..5u32 {
            for i in 0..(3 + block * 7) {
                b.add_key(format!("user-key-{block:02}-{i:04}").as_bytes());
            }
            offset += 1500 + u64::from(block) * 1300;
            b.start_block(offset);
        }
        b.add_key(b"tail");
        let hex: String = b.finish().iter().map(|x| format!("{x:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        b.reset();
        assert_eq!(b.finish().len(), 5, "a reset builder is an empty one");
    }
}
