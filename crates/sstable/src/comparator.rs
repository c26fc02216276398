//! Key ordering, including LevelDB's internal-key ordering (user key
//! ascending, then sequence number *descending* so newer entries sort
//! first).

use std::cmp::Ordering;

use crate::coding::decode_fixed64;

/// A total order over keys, plus the two key-shortening hooks the table
/// format uses to keep index blocks small.
pub trait Comparator: Send + Sync {
    /// Name persisted in table metadata; mismatched comparators must not
    /// silently read each other's tables.
    fn name(&self) -> &'static str;

    /// Three-way comparison.
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering;

    /// Returns a key `k` with `start <= k < limit` that is as short as
    /// possible; used for index-block separator keys.
    fn find_shortest_separator(&self, start: &[u8], limit: &[u8]) -> Vec<u8>;

    /// Returns a short key `k >= key`; used for the final index entry.
    fn find_short_successor(&self, key: &[u8]) -> Vec<u8>;
}

/// Plain lexicographic byte ordering (LevelDB's default user comparator).
#[derive(Debug, Clone, Copy, Default)]
pub struct BytewiseComparator;

impl Comparator for BytewiseComparator {
    fn name(&self) -> &'static str {
        "leveldb.BytewiseComparator"
    }

    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }

    fn find_shortest_separator(&self, start: &[u8], limit: &[u8]) -> Vec<u8> {
        let min_len = start.len().min(limit.len());
        let mut diff = 0;
        while diff < min_len && start[diff] == limit[diff] {
            diff += 1;
        }
        if diff >= min_len {
            // One is a prefix of the other; no shortening possible.
            return start.to_vec();
        }
        let byte = start[diff];
        if byte < 0xff && byte + 1 < limit[diff] {
            let mut sep = start[..=diff].to_vec();
            sep[diff] += 1;
            debug_assert!(self.compare(&sep, limit) == Ordering::Less);
            return sep;
        }
        start.to_vec()
    }

    fn find_short_successor(&self, key: &[u8]) -> Vec<u8> {
        for (i, &b) in key.iter().enumerate() {
            if b != 0xff {
                let mut succ = key[..=i].to_vec();
                succ[i] += 1;
                return succ;
            }
        }
        // All 0xff: key is its own successor-bound.
        key.to_vec()
    }
}

/// Orders internal keys: user key ascending, bytewise, then the 8-byte
/// trailer descending, so that for one user key the freshest sequence
/// number is encountered first. User keys are compared a big-endian word
/// at a time; the workspace has no other user order.
#[derive(Debug, Clone, Default)]
pub struct InternalKeyComparator(());

/// An 8-byte chunk as a big-endian word: words compare as their bytes do.
#[inline(always)]
fn word(chunk: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(chunk);
    u64::from_be_bytes(word)
}

/// Bytewise order, eight bytes per step while both keys have eight left.
#[inline(always)]
fn compare_user_keys(a: &[u8], b: &[u8]) -> Ordering {
    let words = a.len().min(b.len()) / 8 * 8;
    for (x, y) in a[..words].chunks_exact(8).zip(b[..words].chunks_exact(8)) {
        let (x, y) = (word(x), word(y));
        if x != y {
            return x.cmp(&y);
        }
    }
    a[words..].cmp(&b[words..])
}

impl Comparator for InternalKeyComparator {
    fn name(&self) -> &'static str {
        "leveldb.InternalKeyComparator"
    }

    #[inline]
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        debug_assert!(a.len() >= 8, "internal key too short: {a:?}");
        debug_assert!(b.len() >= 8, "internal key too short: {b:?}");
        let (user_a, tag_a) = a.split_at(a.len() - 8);
        let (user_b, tag_b) = b.split_at(b.len() - 8);
        // Higher sequence number sorts first.
        compare_user_keys(user_a, user_b)
            .then_with(|| decode_fixed64(tag_b).cmp(&decode_fixed64(tag_a)))
    }

    fn find_shortest_separator(&self, start: &[u8], limit: &[u8]) -> Vec<u8> {
        let user_start = &start[..start.len() - 8];
        let user_limit = &limit[..limit.len() - 8];
        let tmp = BytewiseComparator.find_shortest_separator(user_start, user_limit);
        if tmp.len() < user_start.len() && user_start < tmp.as_slice() {
            // Shortened physically; tag it with the maximal trailer so it
            // still sorts before all real entries for that user key.
            let mut out = tmp;
            out.extend_from_slice(&crate::ikey::pack_tag_max().to_le_bytes());
            debug_assert!(self.compare(start, &out) == Ordering::Less);
            debug_assert!(self.compare(&out, limit) == Ordering::Less);
            return out;
        }
        start.to_vec()
    }

    fn find_short_successor(&self, key: &[u8]) -> Vec<u8> {
        let user_key = &key[..key.len() - 8];
        let tmp = BytewiseComparator.find_short_successor(user_key);
        if tmp.len() < user_key.len() && user_key < tmp.as_slice() {
            let mut out = tmp;
            out.extend_from_slice(&crate::ikey::pack_tag_max().to_le_bytes());
            debug_assert!(self.compare(key, &out) == Ordering::Less);
            return out;
        }
        key.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ikey::{append_internal_key, ValueType};

    fn ikey(user: &[u8], seq: u64, t: ValueType) -> Vec<u8> {
        let mut k = Vec::new();
        append_internal_key(&mut k, user, seq, t);
        k
    }

    #[test]
    fn bytewise_orders_lexicographically() {
        let c = BytewiseComparator;
        assert_eq!(c.compare(b"a", b"b"), Ordering::Less);
        assert_eq!(c.compare(b"abc", b"ab"), Ordering::Greater);
        assert_eq!(c.compare(b"", b""), Ordering::Equal);
    }

    #[test]
    fn shortest_separator_shrinks() {
        let c = BytewiseComparator;
        let sep = c.find_shortest_separator(b"abcdefghij", b"abzzzz");
        assert_eq!(sep, b"abd");
        assert!(c.compare(b"abcdefghij", &sep) != Ordering::Greater);
        assert_eq!(c.compare(&sep, b"abzzzz"), Ordering::Less);
    }

    #[test]
    fn shortest_separator_prefix_case() {
        let c = BytewiseComparator;
        // start is a prefix of limit: unchanged.
        assert_eq!(c.find_shortest_separator(b"ab", b"abc"), b"ab");
        // adjacent bytes: cannot bump.
        assert_eq!(c.find_shortest_separator(b"abc", b"abd"), b"abc");
    }

    #[test]
    fn short_successor() {
        let c = BytewiseComparator;
        assert_eq!(c.find_short_successor(b"abc"), b"b");
        assert_eq!(
            c.find_short_successor(&[0xff, 0xff, 0x01]),
            &[0xff, 0xff, 0x02]
        );
        assert_eq!(c.find_short_successor(&[0xff, 0xff]), &[0xff, 0xff]);
    }

    #[test]
    fn internal_key_ordering() {
        let c = InternalKeyComparator::default();
        let a100 = ikey(b"apple", 100, ValueType::Value);
        let a50 = ikey(b"apple", 50, ValueType::Value);
        let b10 = ikey(b"banana", 10, ValueType::Value);
        // Same user key: higher seq first.
        assert_eq!(c.compare(&a100, &a50), Ordering::Less);
        // User key dominates sequence.
        assert_eq!(c.compare(&a50, &b10), Ordering::Less);
        assert_eq!(c.compare(&a100, &a100), Ordering::Equal);
    }

    #[test]
    fn internal_separator_stays_in_range() {
        let c = InternalKeyComparator::default();
        let start = ikey(b"abcdefghij", 5, ValueType::Value);
        let limit = ikey(b"abzz", 9, ValueType::Value);
        let sep = c.find_shortest_separator(&start, &limit);
        assert!(c.compare(&start, &sep) != Ordering::Greater);
        assert_eq!(c.compare(&sep, &limit), Ordering::Less);
        assert!(sep.len() < start.len());
    }
}
