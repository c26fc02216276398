//! `InternalKeyComparator` compares user keys a big-endian word at a
//! time. This suite holds it to the order it replaces — user key bytewise
//! ascending, then the 8-byte trailer (sequence << 8 | type) descending —
//! on the keys where a word-wise comparison can go wrong: user keys of 0
//! to 40 bytes whose shared prefix ends on either side of an 8-byte
//! boundary, runs of `0x00` and `0xff` (a zero-padded tail must not tie
//! with a real zero byte), one key a prefix of the other, and equal user
//! keys that differ only in sequence or type.

use std::cmp::Ordering;

use proptest::prelude::*;
use sstable::comparator::InternalKeyComparator;
use sstable::ikey::{append_internal_key, ValueType, MAX_SEQUENCE_NUMBER};

/// Longest user key generated.
const MAX_USER: usize = 40;

/// A byte, biased toward the values word-wise tricks get wrong.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        3 => Just(0x00u8),
        3 => Just(0xffu8),
        1 => Just(0x01u8),
        1 => Just(0xfeu8),
        4 => any::<u8>(),
    ]
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(byte(), 0..=MAX_USER)
}

/// Sequence numbers: mostly small, so equal user keys often share one.
fn sequence() -> impl Strategy<Value = u64> {
    prop_oneof![3 => 0u64..4, 1 => 0u64..=MAX_SEQUENCE_NUMBER]
}

fn value_type() -> impl Strategy<Value = ValueType> {
    prop_oneof![Just(ValueType::Deletion), Just(ValueType::Value)]
}

#[derive(Debug, Clone)]
struct Entry {
    user: Vec<u8>,
    seq: u64,
    value_type: ValueType,
}

impl Entry {
    fn encoded(&self) -> Vec<u8> {
        let mut key = Vec::new();
        append_internal_key(&mut key, &self.user, self.seq, self.value_type);
        key
    }

    /// The reference order.
    fn cmp_model(&self, other: &Entry) -> Ordering {
        let tag = |e: &Entry| (e.seq << 8) | e.value_type as u64;
        self.user
            .cmp(&other.user)
            .then_with(|| tag(other).cmp(&tag(self)))
    }
}

/// Two entries sharing a prefix of any length, each continued by its own
/// tail and cut to [`MAX_USER`]; a quarter of the pairs share the whole
/// user key.
fn pair() -> impl Strategy<Value = (Entry, Entry)> {
    (
        (bytes(), bytes(), bytes(), 0u8..4),
        (sequence(), value_type(), sequence(), value_type()),
    )
        .prop_map(
            |((prefix, tail_a, tail_b, same), (seq_a, type_a, seq_b, type_b))| {
                let user = |tail: &[u8]| {
                    let mut user = [&prefix[..], tail].concat();
                    user.truncate(MAX_USER);
                    user
                };
                let user_a = user(&tail_a);
                let user_b = if same == 0 {
                    user_a.clone()
                } else {
                    user(&tail_b)
                };
                (
                    Entry {
                        user: user_a,
                        seq: seq_a,
                        value_type: type_a,
                    },
                    Entry {
                        user: user_b,
                        seq: seq_b,
                        value_type: type_b,
                    },
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn word_wise_order_is_the_bytewise_internal_order(pair in pair()) {
        let (a, b) = pair;
        let icmp = InternalKeyComparator;
        let (ka, kb) = (a.encoded(), b.encoded());
        let expected = a.cmp_model(&b);
        prop_assert_eq!(icmp.compare(&ka, &kb), expected, "{:?} vs {:?}", ka, kb);
        prop_assert_eq!(icmp.compare(&kb, &ka), expected.reverse());
        prop_assert_eq!(icmp.compare(&ka, &ka), Ordering::Equal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Sorting many keys at once also checks transitivity.
    #[test]
    fn sorting_agrees_with_the_model(pairs in proptest::collection::vec(pair(), 0..32)) {
        let icmp = InternalKeyComparator;
        let mut entries: Vec<Entry> = pairs.into_iter().flat_map(|(a, b)| [a, b]).collect();
        let mut keys: Vec<Vec<u8>> = entries.iter().map(Entry::encoded).collect();
        keys.sort_by(|x, y| icmp.compare(x, y));
        entries.sort_by(Entry::cmp_model);
        let expected: Vec<Vec<u8>> = entries.iter().map(Entry::encoded).collect();
        prop_assert_eq!(keys, expected);
    }
}
