//! Data/index block construction with prefix compression and restart
//! points (LevelDB `BlockBuilder`).
//!
//! Entry layout: `varint32 shared | varint32 non_shared | varint32
//! value_len | key[shared..] | value`. Every `restart_interval` entries the
//! shared prefix resets to zero and the entry offset is recorded in the
//! restart array appended at the end of the block:
//! `restart[0..n] (fixed32 each) | fixed32 n`.

use crate::coding::{put_fixed32, put_varint32};

/// Restart interval of every data block the store writes, host- or
/// device-built (LevelDB's default). Index and metaindex blocks use 1.
pub const RESTART_INTERVAL: usize = 16;

/// Incremental builder for one block.
pub struct BlockBuilder {
    buffer: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    counter: usize,
    last_key: Vec<u8>,
    finished: bool,
}

impl BlockBuilder {
    /// Creates a builder restarting prefix sharing every
    /// `restart_interval` entries.
    pub fn new(restart_interval: usize) -> Self {
        assert!(restart_interval >= 1);
        BlockBuilder {
            buffer: Vec::new(),
            restarts: vec![0],
            restart_interval,
            counter: 0,
            last_key: Vec::new(),
            finished: false,
        }
    }

    /// Appends an entry. Keys must be added in strictly increasing order
    /// (the caller — `TableBuilder` — enforces the internal-key order;
    /// this type only assumes byte-prefix sharing is meaningful).
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        debug_assert!(!self.finished, "add after finish");
        let mut shared = 0usize;
        if self.counter < self.restart_interval {
            let min_len = self.last_key.len().min(key.len());
            while shared < min_len && self.last_key[shared] == key[shared] {
                shared += 1;
            }
        } else {
            self.restarts.push(self.buffer.len() as u32);
            self.counter = 0;
        }
        let non_shared = key.len() - shared;
        put_varint32(&mut self.buffer, shared as u32);
        put_varint32(&mut self.buffer, non_shared as u32);
        put_varint32(&mut self.buffer, value.len() as u32);
        self.buffer.extend_from_slice(&key[shared..]);
        self.buffer.extend_from_slice(value);

        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.counter += 1;
    }

    /// Appends the restart array and count, returning the block contents.
    pub fn finish(&mut self) -> &[u8] {
        for &r in &self.restarts {
            put_fixed32(&mut self.buffer, r);
        }
        put_fixed32(&mut self.buffer, self.restarts.len() as u32);
        self.finished = true;
        &self.buffer
    }

    /// Resets for reuse on the next block.
    pub fn reset(&mut self) {
        self.buffer.clear();
        self.restarts.clear();
        self.restarts.push(0);
        self.counter = 0;
        self.last_key.clear();
        self.finished = false;
    }

    /// Estimated size of the finished block (contents + restart array).
    pub fn current_size_estimate(&self) -> usize {
        self.buffer.len() + self.restarts.len() * 4 + 4
    }

    /// True if no entries have been added since the last reset.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// The last key added (empty before the first add).
    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::ikey::test_key as ikey;

    /// Round-trips `entries`, each user key as an internal key.
    fn build_and_read(entries: &[(&[u8], &[u8])], interval: usize) {
        let mut b = BlockBuilder::new(interval);
        for (k, v) in entries {
            b.add(&ikey(k, 1), v);
        }
        let contents = b.finish().to_vec();
        let block = Block::new(contents.into()).unwrap();
        let mut it = block.iter();
        it.seek_to_first();
        for (k, v) in entries {
            assert!(it.valid());
            assert_eq!(it.key(), ikey(k, 1));
            assert_eq!(it.value(), *v);
            it.next();
        }
        assert!(!it.valid());
    }

    #[test]
    fn empty_block_roundtrip() {
        let mut b = BlockBuilder::new(RESTART_INTERVAL);
        let contents = b.finish().to_vec();
        let block = Block::new(contents.into()).unwrap();
        let mut it = block.iter();
        it.seek_to_first();
        assert!(!it.valid());
    }

    #[test]
    fn prefix_compression_roundtrip() {
        build_and_read(
            &[
                (b"apple", b"1"),
                (b"application", b"2"),
                (b"apply", b"3"),
                (b"banana", b"4"),
                (b"band", b"5"),
            ],
            16,
        );
    }

    #[test]
    fn restart_interval_one_disables_sharing() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
            .map(|i| {
                (
                    format!("key{i:04}").into_bytes(),
                    format!("v{i}").into_bytes(),
                )
            })
            .collect();
        let refs: Vec<(&[u8], &[u8])> = entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        build_and_read(&refs, 1);
        build_and_read(&refs, 3);
        build_and_read(&refs, 16);
    }

    #[test]
    fn size_estimate_matches_finish() {
        let mut b = BlockBuilder::new(4);
        for i in 0..100 {
            let k = format!("key{i:06}");
            b.add(&ikey(k.as_bytes(), 1), b"some value bytes");
        }
        let est = b.current_size_estimate();
        let actual = b.finish().len();
        assert_eq!(est, actual);
    }

    #[test]
    fn reset_clears_state() {
        let mut b = BlockBuilder::new(16);
        b.add(&ikey(b"aaa", 1), b"1");
        b.finish();
        b.reset();
        assert!(b.is_empty());
        b.add(&ikey(b"bbb", 1), b"2");
        let contents = b.finish().to_vec();
        let block = Block::new(contents.into()).unwrap();
        let mut it = block.iter();
        it.seek_to_first();
        assert_eq!(it.key(), ikey(b"bbb", 1));
        it.next();
        assert!(!it.valid());
    }

    #[test]
    fn empty_value_and_empty_first_key() {
        build_and_read(&[(b"", b""), (b"a", b""), (b"b", b"x")], 16);
    }
}
