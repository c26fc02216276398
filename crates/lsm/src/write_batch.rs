//! Atomic multi-operation writes, binary-compatible with LevelDB's
//! `WriteBatch` representation:
//!
//! `fixed64 sequence | fixed32 count | records...` where each record is
//! `kTypeValue(1) key value` or `kTypeDeletion(0) key` with
//! length-prefixed slices.

use sstable::coding::{
    decode_fixed32, decode_fixed64, get_length_prefixed_slice, put_length_prefixed_slice,
};
use sstable::ikey::{SequenceNumber, ValueType};

use crate::{Error, Result};

const HEADER_SIZE: usize = 12;
/// Most a record adds to its key and value: the tag and two length
/// prefixes of up to five bytes each.
const RECORD_OVERHEAD: usize = 11;

/// A batch of updates applied atomically.
#[derive(Clone, Debug)]
pub struct WriteBatch {
    rep: Vec<u8>,
}

impl Default for WriteBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Creates an empty batch with room for `ops` operations whose keys
    /// and values total `bytes`, so filling it allocates nothing more.
    pub fn with_capacity(ops: usize, bytes: usize) -> Self {
        let mut rep = Vec::with_capacity(HEADER_SIZE + ops * RECORD_OVERHEAD + bytes);
        rep.resize(HEADER_SIZE, 0);
        WriteBatch { rep }
    }

    /// Queues a `put`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.rep.reserve(RECORD_OVERHEAD + key.len() + value.len());
        self.set_count(self.count() + 1);
        self.rep.push(ValueType::Value as u8);
        put_length_prefixed_slice(&mut self.rep, key);
        put_length_prefixed_slice(&mut self.rep, value);
    }

    /// Queues a deletion.
    pub fn delete(&mut self, key: &[u8]) {
        self.rep.reserve(RECORD_OVERHEAD + key.len());
        self.set_count(self.count() + 1);
        self.rep.push(ValueType::Deletion as u8);
        put_length_prefixed_slice(&mut self.rep, key);
    }

    /// Clears all queued operations.
    pub fn clear(&mut self) {
        self.rep.clear();
        self.rep.resize(HEADER_SIZE, 0);
    }

    /// Number of queued operations.
    pub fn count(&self) -> u32 {
        decode_fixed32(&self.rep[8..])
    }

    fn set_count(&mut self, n: u32) {
        self.rep[8..12].copy_from_slice(&n.to_le_bytes());
    }

    /// Base sequence number recorded in the header.
    pub fn sequence(&self) -> SequenceNumber {
        decode_fixed64(&self.rep)
    }

    /// Sets the base sequence number (done by the write path).
    pub fn set_sequence(&mut self, seq: SequenceNumber) {
        self.rep[..8].copy_from_slice(&seq.to_le_bytes());
    }

    /// Serialized representation (what goes into the WAL).
    pub fn data(&self) -> &[u8] {
        &self.rep
    }

    /// Approximate in-memory footprint.
    pub fn approximate_size(&self) -> usize {
        self.rep.len()
    }

    /// Reconstructs a batch from its WAL representation.
    pub fn from_data(data: &[u8]) -> Result<WriteBatch> {
        if data.len() < HEADER_SIZE {
            return Err(Error::Corruption("write batch header too small".into()));
        }
        let batch = WriteBatch { rep: data.to_vec() };
        // Validate structure eagerly so corrupt batches fail loudly.
        batch.iterate(|_, _| {})?;
        Ok(batch)
    }

    /// Invokes `f(op, sequence)` for each operation, in order.
    pub fn iterate<F>(&self, mut f: F) -> Result<()>
    where
        F: FnMut(BatchOp<'_>, SequenceNumber),
    {
        let mut pos = HEADER_SIZE;
        let mut seq = self.sequence();
        let mut found = 0u32;
        while pos < self.rep.len() {
            let tag = self.rep[pos];
            pos += 1;
            let ty = ValueType::from_u8(tag)
                .ok_or_else(|| Error::Corruption(format!("unknown write batch tag {tag}")))?;
            let (key, used) = get_length_prefixed_slice(&self.rep[pos..])
                .ok_or_else(|| Error::Corruption("bad batch key".into()))?;
            pos += used;
            match ty {
                ValueType::Value => {
                    let (value, used) = get_length_prefixed_slice(&self.rep[pos..])
                        .ok_or_else(|| Error::Corruption("bad batch value".into()))?;
                    pos += used;
                    f(BatchOp::Put { key, value }, seq);
                }
                ValueType::Deletion => {
                    f(BatchOp::Delete { key }, seq);
                }
            }
            seq += 1;
            found += 1;
        }
        if found != self.count() {
            return Err(Error::Corruption(format!(
                "batch count mismatch: header {} actual {found}",
                self.count()
            )));
        }
        Ok(())
    }
}

/// One operation inside a batch.
#[derive(Debug, PartialEq, Eq)]
pub enum BatchOp<'a> {
    /// Insert or overwrite.
    Put {
        /// User key.
        key: &'a [u8],
        /// Value bytes.
        value: &'a [u8],
    },
    /// Tombstone.
    Delete {
        /// User key.
        key: &'a [u8],
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(batch: &WriteBatch) -> Vec<(String, Option<String>, u64)> {
        let mut out = Vec::new();
        batch
            .iterate(|op, seq| match op {
                BatchOp::Put { key, value } => out.push((
                    String::from_utf8_lossy(key).into_owned(),
                    Some(String::from_utf8_lossy(value).into_owned()),
                    seq,
                )),
                BatchOp::Delete { key } => {
                    out.push((String::from_utf8_lossy(key).into_owned(), None, seq));
                }
            })
            .unwrap();
        out
    }

    #[test]
    fn batch_records_ops_in_order_with_sequences() {
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.delete(b"b");
        b.put(b"c", b"3");
        b.set_sequence(100);
        assert_eq!(b.count(), 3);
        let got = collect(&b);
        assert_eq!(
            got,
            vec![
                ("a".into(), Some("1".into()), 100),
                ("b".into(), None, 101),
                ("c".into(), Some("3".into()), 102),
            ]
        );
    }

    #[test]
    fn roundtrip_through_wal_representation() {
        let mut b = WriteBatch::new();
        b.put(b"key", &[0u8; 1000]);
        b.delete(b"gone");
        b.set_sequence(7);
        let restored = WriteBatch::from_data(b.data()).unwrap();
        assert_eq!(restored.count(), 2);
        assert_eq!(restored.sequence(), 7);
        assert_eq!(collect(&restored).len(), 2);
    }

    #[test]
    fn clear_resets() {
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.clear();
        assert_eq!(b.count(), 0);
        assert_eq!(b.data().len(), 12);
    }

    #[test]
    fn corrupt_batches_rejected() {
        assert!(WriteBatch::from_data(&[0u8; 5]).is_err());
        // Header claims 1 record but body is empty.
        let mut rep = vec![0u8; 12];
        rep[8] = 1;
        assert!(WriteBatch::from_data(&rep).is_err());
        // Unknown tag.
        let mut rep = vec![0u8; 12];
        rep[8] = 1;
        rep.push(9);
        rep.push(0);
        assert!(WriteBatch::from_data(&rep).is_err());
    }

    #[test]
    fn empty_keys_and_values_are_fine() {
        let mut b = WriteBatch::new();
        b.put(b"", b"");
        b.delete(b"");
        assert_eq!(collect(&b).len(), 2);
    }
}
