//! Keys and values every workload writes, and the check every read runs.
//!
//! Keys are `workloads::KeyFormat` 16-byte decimals. A value is a pure
//! function of its key: the first 16 bytes are the key, the other 112
//! come from a seeded half-compressible pool at an offset derived from
//! the key number. Any reader can therefore verify any value without
//! knowing which write produced it, and overwrites never race the check.

use workloads::{KeyFormat, ValueGenerator};

/// Key width in bytes.
pub const KEY_LEN: usize = 16;
/// Value width in bytes.
pub const VALUE_LEN: usize = 128;
/// User bytes one record accounts for (`write_amp`, `space_amp` bases).
pub const RECORD_BYTES: u64 = (KEY_LEN + VALUE_LEN) as u64;

const TAIL_LEN: usize = VALUE_LEN - KEY_LEN;
const KEYS: KeyFormat = KeyFormat { key_len: KEY_LEN };

/// Formats key number `n` into `buf` (cleared first).
pub fn key_into(n: u64, buf: &mut Vec<u8>) {
    KEYS.format_into(n, buf);
}

/// Formats key number `n` into a fresh vector.
pub fn key(n: u64) -> Vec<u8> {
    KEYS.format(n)
}

/// Parses a key written by [`key_into`] back into its number.
pub fn key_number(key: &[u8]) -> Option<u64> {
    if key.len() != KEY_LEN {
        return None;
    }
    key.iter().try_fold(0u64, |acc, b| {
        b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
    })
}

/// The seeded value pool (db_bench's half-compressible generator).
pub struct Values {
    pool: Vec<u8>,
}

impl Values {
    /// Builds the pool for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut generator = ValueGenerator::new(seed, 0.5);
        // The first request for the whole pool returns the whole pool.
        let pool = generator.generate(1 << 20).to_vec();
        Values { pool }
    }

    fn tail(&self, n: u64) -> &[u8] {
        let span = (self.pool.len() - TAIL_LEN) as u64;
        let off = (n.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 24) % span;
        &self.pool[off as usize..off as usize + TAIL_LEN]
    }

    /// Writes the value of key number `n` (whose bytes are `key`) into
    /// `buf` (cleared first).
    pub fn value_into(&self, n: u64, key: &[u8], buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(key);
        buf.extend_from_slice(self.tail(n));
    }

    /// True when `value` is exactly what [`Self::value_into`] writes for
    /// `key`.
    pub fn verify(&self, key: &[u8], value: &[u8]) -> bool {
        let Some(n) = key_number(key) else {
            return false;
        };
        value.len() == VALUE_LEN && &value[..KEY_LEN] == key && &value[KEY_LEN..] == self.tail(n)
    }
}

/// Fixed-size set of key numbers (which keys a workload has written).
pub struct KeySet {
    bits: Vec<u64>,
}

impl KeySet {
    /// An empty set over `[0, space)`.
    pub fn new(space: u64) -> Self {
        KeySet {
            bits: vec![0; space.div_ceil(64) as usize],
        }
    }

    /// Upper bound of the key numbers the set can hold.
    pub fn space(&self) -> u64 {
        self.bits.len() as u64 * 64
    }

    /// Adds `n`.
    pub fn insert(&mut self, n: u64) {
        self.bits[(n / 64) as usize] |= 1 << (n % 64);
    }

    /// True when `n` was inserted.
    pub fn contains(&self, n: u64) -> bool {
        self.bits
            .get((n / 64) as usize)
            .is_some_and(|w| w & (1 << (n % 64)) != 0)
    }

    /// Number of distinct keys inserted.
    pub fn len(&self) -> u64 {
        self.bits.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip_and_tamper_detection() {
        let values = Values::new(7);
        let mut k = Vec::new();
        let mut v = Vec::new();
        for n in [0u64, 1, 999, 123_456_789, 2_999_999] {
            key_into(n, &mut k);
            assert_eq!(key_number(&k), Some(n));
            values.value_into(n, &k, &mut v);
            assert_eq!(v.len(), VALUE_LEN);
            assert!(values.verify(&k, &v));
            let mut bad = v.clone();
            bad[VALUE_LEN - 1] ^= 1;
            assert!(!values.verify(&k, &bad), "flipped tail byte must fail");
            assert!(!values.verify(&key(n + 1), &v), "value of another key");
            assert!(!values.verify(&k, &v[..VALUE_LEN - 1]), "short value");
        }
        assert!(!values.verify(b"not-a-decimal-ky", &v));
    }

    #[test]
    fn key_set_counts_distinct() {
        let mut set = KeySet::new(200);
        for n in [3u64, 3, 64, 199] {
            set.insert(n);
        }
        assert_eq!(set.len(), 3);
        assert!(set.contains(64) && !set.contains(65) && !set.contains(10_000));
    }
}
