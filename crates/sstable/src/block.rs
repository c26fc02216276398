//! Immutable block reader and its iterator (restart-point binary search +
//! sequential entry decoding).

use std::cmp::Ordering;
use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::coding::{decode_fixed32, get_varint32};
use crate::comparator::InternalKeyComparator;
use crate::{corruption, Result};

/// Fresh block buffers are sized in steps of this many bytes.
const BUF_STEP: usize = 64;

/// A block's decoded bytes: the first `len` bytes of a shared buffer that
/// may be longer, so that the buffer one block leaves behind can hold the
/// next (see [`Spare`]).
#[derive(Clone)]
pub struct BlockContents {
    buf: Arc<[u8]>,
    len: usize,
}

impl BlockContents {
    /// `len` bytes written by `fill`: into `spare` when it is of this
    /// length's size class, else into a fresh buffer. A spare that does
    /// not fit stays in `spare`.
    pub(crate) fn fill<E>(
        len: usize,
        spare: &mut Option<Spare>,
        fill: impl FnOnce(&mut [u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<BlockContents, E> {
        let mut buf = match spare.take() {
            Some(Spare(buf)) if Spare::fits(buf.len(), len) => buf,
            unused => {
                *spare = unused;
                std::iter::repeat_n(0u8, len.next_multiple_of(BUF_STEP)).collect()
            }
        };
        // A spare is its buffer's only owner and a fresh buffer is new:
        // `make_mut` lends it without copying.
        fill(&mut Arc::make_mut(&mut buf)[..len])?;
        Ok(BlockContents { buf, len })
    }
}

impl Deref for BlockContents {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl From<Vec<u8>> for BlockContents {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        BlockContents { buf: v.into(), len }
    }
}

impl From<&[u8]> for BlockContents {
    fn from(v: &[u8]) -> Self {
        BlockContents {
            buf: v.into(),
            len: v.len(),
        }
    }
}

/// The buffer of a block that left the block cache with no reader
/// holding it: the next miss in its cache shard decodes into it rather
/// than allocate, so a warm cache recycles its blocks' memory instead of
/// freeing it on one thread and allocating it again on another.
pub struct Spare(Arc<[u8]>);

impl Spare {
    /// A spare of `capacity` bytes holds a block of `len` when it wastes
    /// at most a sixteenth of the block: every buffer the cache keeps is
    /// then within 1/16 of its charge.
    fn fits(capacity: usize, len: usize) -> bool {
        len <= capacity && capacity - len <= len / 16
    }
}

/// An immutable, decoded-on-demand block (data or index).
#[derive(Clone)]
pub struct Block {
    /// Entry bytes followed by the restart array and count.
    contents: BlockContents,
    /// Offset of the restart array.
    restart_offset: usize,
    /// Number of restart points.
    num_restarts: u32,
}

impl Block {
    /// Wraps decompressed block contents, validating the restart trailer.
    pub fn new(contents: BlockContents) -> Result<Block> {
        if contents.len() < 4 {
            return Err(corruption("block too small for restart count"));
        }
        let num_restarts = decode_fixed32(&contents[contents.len() - 4..]);
        let max_restarts = (contents.len() as u64 - 4) / 4;
        if u64::from(num_restarts) > max_restarts {
            return Err(corruption(format!(
                "restart count {num_restarts} exceeds block capacity"
            )));
        }
        let restart_offset = contents.len() - 4 - num_restarts as usize * 4;
        Ok(Block {
            contents,
            restart_offset,
            num_restarts,
        })
    }

    /// Size of the raw block contents in bytes (its block-cache charge;
    /// the buffer holding them may be a little longer).
    pub fn size(&self) -> usize {
        self.contents.len()
    }

    /// The raw (uncompressed) block contents, including the restart array.
    /// Used by the FPGA host interface to relocate blocks into device
    /// memory images.
    pub fn contents(&self) -> &[u8] {
        &self.contents
    }

    /// The block's buffer as a [`Spare`] when this is its last holder;
    /// the block itself back when a reader still holds a clone.
    pub(crate) fn try_into_spare(self) -> std::result::Result<Spare, Block> {
        let mut block = self;
        match Arc::get_mut(&mut block.contents.buf) {
            Some(_) => Ok(Spare(block.contents.buf)),
            None => Err(block),
        }
    }

    /// Number of restart points (≥1 for non-empty blocks).
    pub fn num_restarts(&self) -> u32 {
        self.num_restarts
    }

    fn restart_point(&self, i: u32) -> usize {
        decode_fixed32(&self.contents[self.restart_offset + i as usize * 4..]) as usize
    }

    /// Finds the first entry with key >= `target` in internal-key order:
    /// binary search over the restart points, then a scan inside the
    /// restart block. The entry's key is left in `key_buf` (whose
    /// capacity is reused from call to call) and the range of its value
    /// within [`Block::contents`] is returned; `None` when every key is
    /// smaller. Borrows the block — a point lookup needs no iterator.
    pub fn seek(&self, target: &[u8], key_buf: &mut Vec<u8>) -> Result<Option<Range<usize>>> {
        Ok(self
            .seek_entry(target, key_buf)?
            .map(|entry| entry.value.0..entry.value.1))
    }

    /// [`Block::seek`], also saying where the entry sits so that
    /// [`BlockIter::seek`] can step on from it.
    fn seek_entry(&self, target: &[u8], key: &mut Vec<u8>) -> Result<Option<EntryPos>> {
        key.clear();
        if self.num_restarts == 0 || self.restart_offset == 0 {
            return Ok(None);
        }
        let data = &self.contents[..self.restart_offset];
        // Binary search: the last restart point whose key is < target.
        let mut left = 0u32;
        let mut right = self.num_restarts - 1;
        while left < right {
            let mid = (left + right).div_ceil(2);
            let restart_key = restart_key(data, self.restart_point(mid))
                .ok_or_else(|| corruption("corrupt restart entry"))?;
            if InternalKeyComparator.compare(restart_key, target) == Ordering::Less {
                left = mid;
            } else {
                right = mid - 1;
            }
        }
        let mut restart_index = left;
        let mut offset = self.restart_point(left);
        loop {
            let value =
                decode_entry(data, offset, key).ok_or_else(|| corruption("corrupt block entry"))?;
            if InternalKeyComparator.compare(key, target) != Ordering::Less {
                return Ok(Some(EntryPos {
                    offset,
                    restart_index,
                    value,
                }));
            }
            offset = value.1;
            if offset >= data.len() {
                return Ok(None);
            }
            while restart_index + 1 < self.num_restarts
                && self.restart_point(restart_index + 1) <= offset
            {
                restart_index += 1;
            }
        }
    }

    /// Creates an iterator over this block.
    pub fn iter(&self) -> BlockIter {
        BlockIter {
            block: self.clone(),
            current: self.restart_offset,
            restart_index: self.num_restarts,
            key: Vec::new(),
            value_range: (0, 0),
            corrupt: false,
        }
    }
}

/// Where [`Block::seek_entry`] stopped.
struct EntryPos {
    /// Offset of the entry.
    offset: usize,
    /// Restart block containing it.
    restart_index: u32,
    /// Its value bytes within the block contents.
    value: (usize, usize),
}

/// Every key a block holds is an internal key: a user key and the
/// 8-byte trailer. A shorter decoded key is corruption, caught here
/// before the internal-key order splits it.
const MIN_KEY_LEN: usize = 8;

/// Decodes the entry at `offset` of `data` (a block's entry area) on top
/// of the previous entry's key in `key`, and returns the range of its
/// value. `None` — with `key` untouched — when the entry is malformed,
/// reaches outside `data` or decodes a key under [`MIN_KEY_LEN`] bytes.
#[inline]
fn decode_entry(data: &[u8], offset: usize, key: &mut Vec<u8>) -> Option<(usize, usize)> {
    let mut p = offset;
    let (shared, n) = get_varint32(data.get(p..)?)?;
    p += n;
    let (non_shared, n) = get_varint32(&data[p..])?;
    p += n;
    let (value_len, n) = get_varint32(&data[p..])?;
    p += n;
    let key_end = p.checked_add(non_shared as usize)?;
    let value_end = key_end.checked_add(value_len as usize)?;
    if shared as usize > key.len()
        || value_end > data.len()
        || (shared as usize + non_shared as usize) < MIN_KEY_LEN
    {
        return None;
    }
    key.truncate(shared as usize);
    key.extend_from_slice(&data[p..key_end]);
    Some((key_end, value_end))
}

/// The key of the restart entry at `offset` of `data`, which shares
/// nothing with its predecessor and so lies whole in the block; `None`
/// when malformed or under [`MIN_KEY_LEN`] bytes. Decodes
/// the entry's three lengths itself rather than through a helper shared
/// with [`decode_entry`]: this runs once per step of the binary search,
/// and a helper handing back four numbers measured 100 ns a seek slower.
#[inline]
fn restart_key(data: &[u8], offset: usize) -> Option<&[u8]> {
    let mut p = offset;
    let (shared, n) = get_varint32(data.get(p..)?)?;
    p += n;
    let (non_shared, n) = get_varint32(&data[p..])?;
    p += n;
    let (_value_len, n) = get_varint32(&data[p..])?;
    p += n;
    if shared != 0 || (non_shared as usize) < MIN_KEY_LEN {
        return None;
    }
    data.get(p..p.checked_add(non_shared as usize)?)
}

/// Iterator over one block's entries.
///
/// Maintains the current entry's key (materialized, since prefix
/// compression means the key bytes are not contiguous in the block) and a
/// range pointing at the value bytes inside the block.
pub struct BlockIter {
    block: Block,
    /// Offset of the current entry; `restart_offset` means "past the end".
    current: usize,
    /// Restart block containing `current`.
    restart_index: u32,
    key: Vec<u8>,
    value_range: (usize, usize),
    corrupt: bool,
}

impl BlockIter {
    /// True if positioned on an entry.
    pub fn valid(&self) -> bool {
        !self.corrupt && self.current < self.block.restart_offset
    }

    /// True if the iterator hit a malformed entry.
    pub fn corrupted(&self) -> bool {
        self.corrupt
    }

    /// Current key (full, reconstructed from prefixes).
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid());
        &self.key
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.valid());
        &self.block.contents[self.value_range.0..self.value_range.1]
    }

    /// Positions at the first entry.
    pub fn seek_to_first(&mut self) {
        if self.block.num_restarts == 0 || self.block.restart_offset == 0 {
            self.mark_exhausted();
            return;
        }
        self.seek_to_restart(0);
        self.parse_next_entry();
    }

    /// Positions at the last entry.
    pub fn seek_to_last(&mut self) {
        if self.block.num_restarts == 0 || self.block.restart_offset == 0 {
            self.mark_exhausted();
            return;
        }
        self.seek_to_restart(self.block.num_restarts - 1);
        // Walk forward to the final entry.
        loop {
            if !self.parse_next_entry() {
                return;
            }
            if self.next_offset() >= self.block.restart_offset {
                return; // positioned on the last entry
            }
            self.current = self.next_offset();
        }
    }

    /// Positions at the first entry with key >= `target`.
    pub fn seek(&mut self, target: &[u8]) {
        match self.block.seek_entry(target, &mut self.key) {
            Ok(Some(entry)) => {
                self.current = entry.offset;
                self.restart_index = entry.restart_index;
                self.value_range = entry.value;
            }
            Ok(None) => self.mark_exhausted(),
            Err(_) => self.corrupt = true,
        }
    }

    /// Advances to the next entry.
    pub fn next(&mut self) {
        debug_assert!(self.valid());
        let next = self.next_offset();
        if next >= self.block.restart_offset {
            self.mark_exhausted();
            return;
        }
        self.current = next;
        self.maybe_advance_restart_index();
        self.parse_next_entry();
    }

    /// Steps back to the previous entry (re-scans from the prior restart).
    pub fn prev(&mut self) {
        debug_assert!(self.valid());
        let original = self.current;
        // Find the restart point strictly before the current entry.
        while self.block.restart_point(self.restart_index) >= original {
            if self.restart_index == 0 {
                self.mark_exhausted();
                return;
            }
            self.restart_index -= 1;
        }
        self.seek_to_restart(self.restart_index);
        loop {
            if !self.parse_next_entry() {
                return;
            }
            if self.next_offset() >= original {
                return;
            }
            self.current = self.next_offset();
        }
    }

    fn mark_exhausted(&mut self) {
        self.current = self.block.restart_offset;
        self.restart_index = self.block.num_restarts;
    }

    fn next_offset(&self) -> usize {
        self.value_range.1
    }

    fn seek_to_restart(&mut self, index: u32) {
        self.key.clear();
        self.restart_index = index;
        self.current = self.block.restart_point(index);
        self.value_range = (self.current, self.current);
    }

    fn maybe_advance_restart_index(&mut self) {
        while self.restart_index + 1 < self.block.num_restarts
            && self.block.restart_point(self.restart_index + 1) <= self.current
        {
            self.restart_index += 1;
        }
    }

    /// Decodes the entry at `self.current` into `key`/`value_range`.
    /// Returns false (and flags corruption or exhaustion) on failure.
    fn parse_next_entry(&mut self) -> bool {
        if self.current >= self.block.restart_offset {
            self.mark_exhausted();
            return false;
        }
        let data = &self.block.contents[..self.block.restart_offset];
        match decode_entry(data, self.current, &mut self.key) {
            Some(value) => {
                self.value_range = value;
                true
            }
            None => {
                self.corrupt = true;
                false
            }
        }
    }
}

/// Forward-only, allocation-free cursor over one block's entries.
///
/// Unlike [`BlockIter`], the cursor does not own the block bytes: it is
/// [`BlockCursor::reset`] against a `contents` slice, and every
/// [`BlockCursor::advance`] / [`BlockCursor::value`] call takes the *same*
/// slice again. That lets callers keep block contents in a reusable
/// decompression buffer — or borrow them straight out of a larger memory
/// region — and decode entries with zero per-block heap allocation; the
/// prefix-reconstructed key buffer is reused across blocks. Passing a
/// different slice than the one `reset` saw yields garbage entries or a
/// `corrupted` cursor, never undefined behavior (all accesses are bounds-
/// checked).
///
/// The cursor deliberately supports only what a streaming decoder needs:
/// no seeks, no backward iteration, no restart-point binary search.
#[derive(Default)]
pub struct BlockCursor {
    /// End of the entry area (= offset of the restart array).
    entries_end: usize,
    /// Offset of the next entry to parse.
    next: usize,
    /// Current key, reconstructed from shared prefixes.
    key: Vec<u8>,
    /// Current value bytes within the contents slice.
    value_range: (usize, usize),
    valid: bool,
    corrupt: bool,
}

impl BlockCursor {
    /// Creates a cursor positioned on nothing; `reset` it onto a block.
    pub fn new() -> Self {
        BlockCursor::default()
    }

    /// Re-targets the cursor at the start of `contents` (a full block:
    /// entries + restart array + count), keeping the key buffer's
    /// capacity. Fails on a malformed restart trailer.
    pub fn reset(&mut self, contents: &[u8]) -> Result<()> {
        if contents.len() < 4 {
            return Err(corruption("block too small for restart count"));
        }
        let num_restarts = decode_fixed32(&contents[contents.len() - 4..]);
        let max_restarts = (contents.len() as u64 - 4) / 4;
        if u64::from(num_restarts) > max_restarts {
            return Err(corruption(format!(
                "restart count {num_restarts} exceeds block capacity"
            )));
        }
        self.entries_end = contents.len() - 4 - num_restarts as usize * 4;
        self.next = 0;
        self.key.clear();
        self.value_range = (0, 0);
        self.valid = false;
        self.corrupt = false;
        Ok(())
    }

    /// True when positioned on an entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// True if the cursor hit a malformed entry.
    pub fn corrupted(&self) -> bool {
        self.corrupt
    }

    /// Moves to the next entry of `contents` (the slice `reset` saw).
    /// Returns false at the end of the block or on corruption.
    pub fn advance(&mut self, contents: &[u8]) -> bool {
        let end = self.entries_end.min(contents.len());
        if self.next >= end {
            self.valid = false;
            return false;
        }
        let Some(value) = decode_entry(&contents[..end], self.next, &mut self.key) else {
            return self.fail();
        };
        self.value_range = value;
        self.next = self.value_range.1;
        self.valid = true;
        true
    }

    fn fail(&mut self) -> bool {
        self.corrupt = true;
        self.valid = false;
        false
    }

    /// Current key (full, reconstructed from prefixes).
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.key
    }

    /// Current value within `contents` (the slice `reset` saw).
    pub fn value<'a>(&self, contents: &'a [u8]) -> &'a [u8] {
        debug_assert!(self.valid);
        &contents[self.value_range.0..self.value_range.1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_builder::BlockBuilder;
    use crate::ikey::{test_key as ikey, MAX_SEQUENCE_NUMBER as MAX};

    #[allow(clippy::type_complexity)]
    fn sample_block(n: usize, interval: usize) -> (Block, Vec<(Vec<u8>, Vec<u8>)>) {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
            .map(|i| {
                (
                    ikey(format!("key{i:05}").as_bytes(), 1),
                    format!("value-{i}").into_bytes(),
                )
            })
            .collect();
        let mut b = BlockBuilder::new(interval);
        for (k, v) in &entries {
            b.add(k, v);
        }
        (Block::new(b.finish().to_vec().into()).unwrap(), entries)
    }

    #[test]
    fn fill_takes_a_spare_of_its_size_class_only() {
        let spare = |capacity| Some(Spare(std::iter::repeat_n(7u8, capacity).collect()));
        let ones = |out: &mut [u8]| {
            out.fill(1);
            Ok::<_, ()>(())
        };
        let mut fits = spare(4160);
        let c = BlockContents::fill(4100, &mut fits, ones).unwrap();
        assert!(fits.is_none(), "the spare was used");
        assert_eq!((c.buf.len(), &c[..]), (4160, &[1u8; 4100][..]));
        // Too large (over 1/16 wasted) or too small: a fresh buffer, in
        // 64-byte steps, and the spare stays.
        for capacity in [4400, 4096] {
            let mut unused = spare(capacity);
            let c = BlockContents::fill(4100, &mut unused, ones).unwrap();
            assert_eq!(unused.map(|s| s.0.len()), Some(capacity));
            assert_eq!((c.buf.len(), &c[..]), (4160, &[1u8; 4100][..]));
        }
    }

    #[test]
    fn seek_finds_exact_and_between() {
        let (block, entries) = sample_block(100, 16);
        let mut it = block.iter();
        // Exact hits.
        for (k, v) in &entries {
            it.seek(k);
            assert!(it.valid());
            assert_eq!(it.key(), &k[..]);
            assert_eq!(it.value(), &v[..]);
        }
        // Between keys: "key00010x" -> key00011.
        it.seek(&ikey(b"key00010x", MAX));
        assert!(it.valid());
        assert_eq!(it.key(), ikey(b"key00011", 1));
        // Before all.
        it.seek(&ikey(b"aaa", MAX));
        assert!(it.valid());
        assert_eq!(it.key(), ikey(b"key00000", 1));
        // Past all.
        it.seek(&ikey(b"zzz", MAX));
        assert!(!it.valid());
    }

    #[test]
    fn cursor_agrees_with_iterator() {
        let mut cursor = BlockCursor::new();
        for interval in [1usize, 2, 7, 16, 64] {
            let (block, entries) = sample_block(137, interval);
            // Reuse the same cursor across blocks, as the decoder will.
            let contents = block.contents.as_ref();
            cursor.reset(contents).unwrap();
            let mut count = 0;
            while cursor.advance(contents) {
                assert!(cursor.valid());
                assert_eq!(cursor.key(), &entries[count].0[..]);
                assert_eq!(cursor.value(contents), &entries[count].1[..]);
                count += 1;
            }
            assert_eq!(count, entries.len(), "interval {interval}");
            assert!(!cursor.valid());
            assert!(!cursor.corrupted());
        }
    }

    #[test]
    fn cursor_flags_truncated_entry() {
        let (block, _) = sample_block(10, 4);
        let contents = block.contents.as_ref();
        // Rebuild a block whose entry area promises more bytes than exist:
        // keep the first entry header but chop the restart trailer in so
        // the value range runs past the data.
        let mut bad = contents[..6].to_vec();
        bad.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 0]); // restart 0, count 1
        let mut cursor = BlockCursor::new();
        cursor.reset(&bad).unwrap();
        while cursor.advance(&bad) {}
        assert!(cursor.corrupted());
    }

    #[test]
    fn forward_scan_covers_all() {
        for interval in [1usize, 2, 7, 16, 64] {
            let (block, entries) = sample_block(137, interval);
            let mut it = block.iter();
            it.seek_to_first();
            let mut count = 0;
            while it.valid() {
                assert_eq!(it.key(), &entries[count].0[..]);
                count += 1;
                it.next();
            }
            assert_eq!(count, entries.len(), "interval {interval}");
        }
    }

    #[test]
    fn backward_scan_covers_all() {
        let (block, entries) = sample_block(60, 8);
        let mut it = block.iter();
        it.seek_to_last();
        let mut idx = entries.len();
        while it.valid() {
            idx -= 1;
            assert_eq!(it.key(), &entries[idx].0[..]);
            it.prev();
        }
        assert_eq!(idx, 0);
    }

    #[test]
    fn corrupt_restart_count_rejected() {
        // Claims more restarts than the block can hold.
        let mut contents = vec![0u8; 8];
        contents.extend_from_slice(&100u32.to_le_bytes());
        assert!(Block::new(contents.into()).is_err());
        assert!(Block::new(vec![1, 2].into()).is_err());
    }

    #[test]
    fn corrupt_entry_sets_flag_not_panic() {
        // restart array says entry at 0, but entry bytes are garbage
        // varints pointing past the end.
        let mut contents = vec![0x05, 0xff, 0xff];
        contents.extend_from_slice(&0u32.to_le_bytes()); // restart[0] = 0
        contents.extend_from_slice(&1u32.to_le_bytes()); // num_restarts = 1
        let block = Block::new(contents.into()).unwrap();
        let mut it = block.iter();
        it.seek_to_first();
        assert!(!it.valid());
        assert!(it.corrupted());
    }

    /// A key too short to hold the trailer is corruption wherever the
    /// order would meet it: as the only entry, as a restart key the
    /// binary search reads, and after a good key.
    #[test]
    fn a_key_shorter_than_the_trailer_is_corruption() {
        let (good, after) = (ikey(b"key", 1), ikey(b"zzz", 1));
        for (keys, interval) in [
            (vec![&b"abc"[..]], 16),
            (vec![&good[..], b"abc", &after[..]], 1),
            (vec![&good[..], b"abc"], 16),
        ] {
            let mut b = BlockBuilder::new(interval);
            for k in keys {
                b.add(k, b"v");
            }
            let block = Block::new(b.finish().to_vec().into()).unwrap();
            let probe = ikey(b"yyy", MAX);
            assert!(block.seek(&probe, &mut Vec::new()).is_err());
            let mut it = block.iter();
            it.seek(&probe);
            assert!(!it.valid() && it.corrupted());
            let mut it = block.iter();
            it.seek_to_first();
            while it.valid() {
                it.next();
            }
            assert!(it.corrupted());
            let mut cursor = BlockCursor::new();
            cursor.reset(block.contents()).unwrap();
            while cursor.advance(block.contents()) {}
            assert!(cursor.corrupted());
        }
    }

    #[test]
    fn seek_on_single_entry_block() {
        let (block, _) = sample_block(1, 16);
        let mut it = block.iter();
        it.seek(&ikey(b"key00000", MAX));
        assert!(it.valid());
        it.seek(&ikey(b"key00001", MAX));
        assert!(!it.valid());
        it.seek_to_last();
        assert!(it.valid());
        assert_eq!(it.key(), ikey(b"key00000", 1));
    }
}
