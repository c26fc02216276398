//! The store's one key order: LevelDB's internal-key order (user key
//! ascending, then sequence number *descending* so newer entries sort
//! first). Every table the store, its CPU engine and its FCAE engine
//! write is in this order.

use std::cmp::Ordering;

use crate::coding::decode_fixed64;

/// Orders internal keys: user key ascending, bytewise, then the 8-byte
/// trailer descending, so that for one user key the freshest sequence
/// number is encountered first. User keys are compared a big-endian word
/// at a time; the workspace has no other user order.
///
/// Both keys must be at least 8 bytes long: block readers report a
/// shorter decoded key as corruption, and `TableBuilder::add` rejects
/// one, before it reaches this order.
#[derive(Debug, Clone, Copy, Default)]
pub struct InternalKeyComparator;

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

/// A user key `k` with `start <= k < limit`, as short as bytewise order
/// allows; `start` itself when no shorter key fits.
fn shortest_user_separator(start: &[u8], limit: &[u8]) -> Vec<u8> {
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
        return sep;
    }
    start.to_vec()
}

/// A short user key `k >= key`: the first byte below 0xff bumped, the
/// rest dropped; `key` itself when every byte is 0xff.
fn short_user_successor(key: &[u8]) -> Vec<u8> {
    match key.iter().position(|&b| b != 0xff) {
        Some(i) => {
            let mut succ = key[..=i].to_vec();
            succ[i] += 1;
            succ
        }
        None => key.to_vec(),
    }
}

impl InternalKeyComparator {
    /// Three-way comparison of two internal keys.
    #[inline]
    pub fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        debug_assert!(a.len() >= 8, "internal key too short: {a:?}");
        debug_assert!(b.len() >= 8, "internal key too short: {b:?}");
        let (user_a, tag_a) = a.split_at(a.len() - 8);
        let (user_b, tag_b) = b.split_at(b.len() - 8);
        // Higher sequence number sorts first.
        compare_user_keys(user_a, user_b)
            .then_with(|| decode_fixed64(tag_b).cmp(&decode_fixed64(tag_a)))
    }

    /// Returns a key `k` with `start <= k < limit` that is as short as
    /// possible; used for index-block separator keys.
    pub fn find_shortest_separator(&self, start: &[u8], limit: &[u8]) -> Vec<u8> {
        let user_start = &start[..start.len() - 8];
        let user_limit = &limit[..limit.len() - 8];
        let tmp = shortest_user_separator(user_start, user_limit);
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

    /// Returns a short key `k >= key`; used for the final index entry.
    pub fn find_short_successor(&self, key: &[u8]) -> Vec<u8> {
        let user_key = &key[..key.len() - 8];
        let tmp = short_user_successor(user_key);
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
    use crate::ikey::{append_internal_key, pack_tag_max, test_key, ValueType};

    fn ikey(user: &[u8], seq: u64, t: ValueType) -> Vec<u8> {
        let mut k = Vec::new();
        append_internal_key(&mut k, user, seq, t);
        k
    }

    /// `user` as an index key carries it once shortened: maximal trailer.
    fn max_tagged(user: &[u8]) -> Vec<u8> {
        [user, &pack_tag_max().to_le_bytes()].concat()
    }

    #[test]
    fn bytewise_orders_lexicographically() {
        // User keys at one sequence number, across a word boundary too.
        let (c, k) = (InternalKeyComparator, |user: &[u8]| test_key(user, 7));
        assert_eq!(c.compare(&k(b"a"), &k(b"b")), Ordering::Less);
        assert_eq!(c.compare(&k(b"abc"), &k(b"ab")), Ordering::Greater);
        assert_eq!(c.compare(&k(b""), &k(b"")), Ordering::Equal);
        assert_eq!(
            c.compare(&k(b"abcdefgh1"), &k(b"abcdefgh")),
            Ordering::Greater
        );
    }

    #[test]
    fn shortest_separator_shrinks() {
        let c = InternalKeyComparator;
        let (start, limit) = (test_key(b"abcdefghij", 5), test_key(b"abzzzz", 9));
        let sep = c.find_shortest_separator(&start, &limit);
        assert_eq!(sep, max_tagged(b"abd"));
        assert!(c.compare(&start, &sep) != Ordering::Greater);
        assert_eq!(c.compare(&sep, &limit), Ordering::Less);
    }

    #[test]
    fn shortest_separator_prefix_case() {
        let c = InternalKeyComparator;
        let k = |user: &[u8]| test_key(user, 5);
        // start is a prefix of limit: unchanged.
        assert_eq!(c.find_shortest_separator(&k(b"ab"), &k(b"abc")), k(b"ab"));
        // adjacent bytes: cannot bump.
        assert_eq!(c.find_shortest_separator(&k(b"abc"), &k(b"abd")), k(b"abc"));
    }

    #[test]
    fn short_successor() {
        let c = InternalKeyComparator;
        let k = |user: &[u8]| test_key(user, 5);
        assert_eq!(c.find_short_successor(&k(b"abc")), max_tagged(b"b"));
        // Bumping the last byte shortens nothing: unchanged.
        assert_eq!(
            c.find_short_successor(&k(&[0xff, 0xff, 0x01])),
            k(&[0xff, 0xff, 0x01])
        );
        assert_eq!(c.find_short_successor(&k(&[0xff, 0xff])), k(&[0xff, 0xff]));
        assert_eq!(
            c.find_short_successor(&k(&[0xff, 0x01, 0x01])),
            max_tagged(&[0xff, 0x02])
        );
    }

    #[test]
    fn internal_key_ordering() {
        let c = InternalKeyComparator;
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
        let c = InternalKeyComparator;
        let start = ikey(b"abcdefghij", 5, ValueType::Value);
        let limit = ikey(b"abzz", 9, ValueType::Value);
        let sep = c.find_shortest_separator(&start, &limit);
        assert!(c.compare(&start, &sep) != Ordering::Greater);
        assert_eq!(c.compare(&sep, &limit), Ordering::Less);
        assert!(sep.len() < start.len());
    }
}
