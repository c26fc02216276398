//! The internal-key model the block and table property suites share.

use std::cmp::Reverse;

use proptest::prelude::*;
use sstable::ikey::pack_tag_max;

/// An internal key as the store orders it: user key ascending, then the
/// 8-byte trailer (sequence << 8 | type) descending.
pub type ModelKey = (Vec<u8>, Reverse<u64>);

/// The key's bytes: the user key, then the trailer.
pub fn encode((user, Reverse(tag)): &ModelKey) -> Vec<u8> {
    [&user[..], &tag.to_le_bytes()].concat()
}

/// A user key under `max_user` bytes at sequence 0–3, live or deleted,
/// so that one user key often has several versions.
pub fn model_key(max_user: usize) -> impl Strategy<Value = ModelKey> {
    (proptest::collection::vec(any::<u8>(), 0..max_user), 0u64..8)
        .prop_map(|(user, x)| (user, Reverse((x >> 1) << 8 | (x & 1))))
}

/// The empty user key with the maximum trailer: before every key.
pub fn first() -> ModelKey {
    (Vec::new(), Reverse(pack_tag_max()))
}
