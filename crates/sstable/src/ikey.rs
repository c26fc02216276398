//! Internal keys: `user_key ++ fixed64(sequence << 8 | type)`.
//!
//! The 8-byte trailer is what the paper calls the key's "mark fields"
//! (§V-A, footnote 1: `L_key = 16 real key + 8 mark`). The FPGA Comparer's
//! *Validity Check* inspects exactly these bytes: the type byte decides
//! whether the entry is a live value or a deletion tombstone, and the
//! sequence number decides which of several versions of a user key wins.

use crate::coding::{decode_fixed64, put_fixed64};

/// Monotonic version counter assigned by the write path.
pub type SequenceNumber = u64;

/// Sequence numbers use 56 bits; the low 8 bits of the trailer hold the type.
pub const MAX_SEQUENCE_NUMBER: SequenceNumber = (1 << 56) - 1;

/// Entry kind stored in the trailer's low byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ValueType {
    /// Deletion tombstone (the paper's *Delete flag*).
    Deletion = 0,
    /// Live value.
    Value = 1,
}

impl ValueType {
    /// Parses the trailer's type byte.
    pub fn from_u8(v: u8) -> Option<ValueType> {
        match v {
            0 => Some(ValueType::Deletion),
            1 => Some(ValueType::Value),
            _ => None,
        }
    }
}

/// Type used when constructing seek targets: `Value` is the highest type
/// value, so seeks find the freshest entry for a sequence number.
pub const VALUE_TYPE_FOR_SEEK: ValueType = ValueType::Value;

/// Packs sequence + type into the 8-byte trailer value.
#[inline]
pub fn pack_sequence_and_type(seq: SequenceNumber, t: ValueType) -> u64 {
    debug_assert!(seq <= MAX_SEQUENCE_NUMBER);
    (seq << 8) | t as u64
}

/// The maximal trailer, used for separator keys.
#[inline]
pub fn pack_tag_max() -> u64 {
    pack_sequence_and_type(MAX_SEQUENCE_NUMBER, VALUE_TYPE_FOR_SEEK)
}

/// Appends `user_key ++ trailer` to `dst`.
pub fn append_internal_key(dst: &mut Vec<u8>, user_key: &[u8], seq: SequenceNumber, t: ValueType) {
    dst.extend_from_slice(user_key);
    put_fixed64(dst, pack_sequence_and_type(seq, t));
}

/// A borrowed, decomposed view of an internal key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedInternalKey<'a> {
    /// The user-visible key bytes.
    pub user_key: &'a [u8],
    /// Sequence number extracted from the trailer.
    pub sequence: SequenceNumber,
    /// Entry kind extracted from the trailer.
    pub value_type: ValueType,
}

/// Splits an internal key into its parts; `None` if it is too short or has
/// an unknown type byte.
pub fn parse_internal_key(ikey: &[u8]) -> Option<ParsedInternalKey<'_>> {
    if ikey.len() < 8 {
        return None;
    }
    let tag = decode_fixed64(&ikey[ikey.len() - 8..]);
    let value_type = ValueType::from_u8((tag & 0xff) as u8)?;
    Some(ParsedInternalKey {
        user_key: &ikey[..ikey.len() - 8],
        sequence: tag >> 8,
        value_type,
    })
}

/// Extracts the user-key prefix of an internal key.
///
/// # Panics
/// Panics if `ikey` is shorter than the 8-byte trailer.
#[inline]
pub fn extract_user_key(ikey: &[u8]) -> &[u8] {
    assert!(ikey.len() >= 8, "internal key too short");
    &ikey[..ikey.len() - 8]
}

/// An owned internal key.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InternalKey(Vec<u8>);

impl InternalKey {
    /// Builds an internal key from parts.
    pub fn new(user_key: &[u8], seq: SequenceNumber, t: ValueType) -> Self {
        let mut buf = Vec::with_capacity(user_key.len() + 8);
        append_internal_key(&mut buf, user_key, seq, t);
        InternalKey(buf)
    }

    /// Wraps already-encoded internal key bytes.
    pub fn from_encoded(bytes: Vec<u8>) -> Self {
        debug_assert!(bytes.is_empty() || bytes.len() >= 8);
        InternalKey(bytes)
    }

    /// The encoded bytes.
    pub fn encoded(&self) -> &[u8] {
        &self.0
    }

    /// The user-key portion.
    pub fn user_key(&self) -> &[u8] {
        extract_user_key(&self.0)
    }

    /// True for a default-constructed (empty) key.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// `user_key` at `seq` as a live entry's encoded internal key; at
/// [`MAX_SEQUENCE_NUMBER`] it probes before every stored version.
#[cfg(test)]
pub(crate) fn test_key(user_key: &[u8], seq: SequenceNumber) -> Vec<u8> {
    InternalKey::new(user_key, seq, ValueType::Value).0
}

/// A point-lookup seek key: `user_key` at a snapshot sequence, encoded
/// as the internal key that sorts before every version of `user_key`
/// visible at that snapshot.
pub struct LookupKey(Vec<u8>);

impl LookupKey {
    /// Builds a lookup key for `user_key` at snapshot `seq`.
    pub fn new(user_key: &[u8], seq: SequenceNumber) -> Self {
        let mut buf = Vec::with_capacity(user_key.len() + 8);
        append_internal_key(&mut buf, user_key, seq, VALUE_TYPE_FOR_SEEK);
        LookupKey(buf)
    }

    /// Bare internal key.
    pub fn internal_key(&self) -> &[u8] {
        &self.0
    }

    /// User-key portion only.
    pub fn user_key(&self) -> &[u8] {
        extract_user_key(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_parse_roundtrip() {
        for seq in [0u64, 1, 255, 256, MAX_SEQUENCE_NUMBER] {
            for t in [ValueType::Deletion, ValueType::Value] {
                let k = InternalKey::new(b"user", seq, t);
                let p = parse_internal_key(k.encoded()).unwrap();
                assert_eq!(p.user_key, b"user");
                assert_eq!(p.sequence, seq);
                assert_eq!(p.value_type, t);
            }
        }
    }

    #[test]
    fn parse_rejects_short_and_bad_type() {
        assert!(parse_internal_key(b"short").is_none());
        let mut k = Vec::new();
        append_internal_key(&mut k, b"u", 7, ValueType::Value);
        let last = k.len() - 8;
        k[last] = 9; // invalid type byte
        assert!(parse_internal_key(&k).is_none());
    }

    #[test]
    fn trailer_is_exactly_eight_bytes() {
        // The paper's L_key arithmetic depends on this: 16-byte user keys
        // yield 24-byte internal keys.
        let k = InternalKey::new(&[0xabu8; 16], 42, ValueType::Value);
        assert_eq!(k.encoded().len(), 24);
    }

    #[test]
    fn lookup_key_views_agree() {
        let lk = LookupKey::new(b"needle", 77);
        assert_eq!(lk.user_key(), b"needle");
        let p = parse_internal_key(lk.internal_key()).unwrap();
        assert_eq!(p.sequence, 77);
        assert_eq!(p.value_type, VALUE_TYPE_FOR_SEEK);
    }
}
