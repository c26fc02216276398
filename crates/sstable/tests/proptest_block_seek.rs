//! `Block::seek` — the borrowed binary-search-then-scan a point lookup
//! uses — against `BlockIter::seek`, which positions an iterator with the
//! same code: on random blocks of internal keys they agree on the entry
//! found, and on a damaged block each answers `Err` / `corrupted` or an
//! in-range entry, never a panic or a slice outside the block.

mod common;

use std::cmp::Reverse;
use std::collections::BTreeMap;

use common::{encode, first, model_key, ModelKey};
use proptest::prelude::*;
use sstable::block::Block;
use sstable::block_builder::BlockBuilder;

fn entries_strategy() -> impl Strategy<Value = BTreeMap<ModelKey, Vec<u8>>> {
    proptest::collection::btree_map(
        model_key(16),
        proptest::collection::vec(any::<u8>(), 0..60),
        0..80,
    )
}

fn build(entries: &BTreeMap<ModelKey, Vec<u8>>, restart_interval: usize) -> Vec<u8> {
    let mut b = BlockBuilder::new(restart_interval);
    for (k, v) in entries {
        b.add(&encode(k), v);
    }
    b.finish().to_vec()
}

/// `Block::seek` and `BlockIter::seek` on the same block and target.
/// Returns what both found — they must agree — or `Err` when both report
/// corruption.
#[allow(clippy::type_complexity)]
fn seek_both(
    block: &Block,
    target: &[u8],
    key_buf: &mut Vec<u8>,
) -> Result<Option<(Vec<u8>, Vec<u8>)>, ()> {
    let direct = block.seek(target, key_buf);
    let mut it = block.iter();
    it.seek(target);
    match direct {
        Err(_) => {
            prop_assert!(
                it.corrupted(),
                "Block::seek failed, BlockIter::seek did not"
            );
            Err(())
        }
        Ok(found) => {
            prop_assert!(
                !it.corrupted(),
                "BlockIter::seek failed, Block::seek did not"
            );
            prop_assert_eq!(found.is_some(), it.valid());
            let Some(value_at) = found else {
                return Ok(None);
            };
            // The range is inside the block: indexing cannot panic.
            prop_assert!(value_at.end <= block.contents().len());
            let value = &block.contents()[value_at];
            prop_assert_eq!(&key_buf[..], it.key());
            prop_assert_eq!(value, it.value());
            Ok(Some((key_buf.clone(), value.to_vec())))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Well-formed blocks — empty, one restart point per entry, one per
    /// sixteen: both seeks land on the first entry >= target, for targets
    /// before the first key, after the last, on a key and between two.
    #[test]
    fn block_seek_agrees_with_the_iterator(
        entries in entries_strategy(),
        dense in any::<bool>(),
        probes in proptest::collection::vec(model_key(16), 1..12),
    ) {
        let block = Block::new(build(&entries, if dense { 1 } else { 16 }).into()).unwrap();
        let mut targets = probes;
        targets.push(first()); // before every key
        targets.push((vec![0xff; 25], Reverse(0))); // after every key
        targets.extend(entries.keys().step_by(7).cloned());
        // One buffer for every seek, as a `get` reuses it across tables.
        let mut key_buf = Vec::new();
        for target in &targets {
            let expect = entries
                .range(target.clone()..)
                .next()
                .map(|(k, v)| (encode(k), v.clone()));
            let got = seek_both(&block, &encode(target), &mut key_buf);
            prop_assert_eq!(got, Ok(expect), "target {:?}", target);
        }
    }

    /// Damaged blocks: a block cut short (a new restart trailer is read
    /// from whatever bytes end it), with one bit flipped anywhere —
    /// entries, restart array or count — or holding one key shorter than
    /// the 8-byte trailer, as a file whose CRC was computed over that key
    /// holds it. Whatever survives `Block::new` must seek without
    /// panicking and without reaching outside the block, and the two
    /// seeks must still agree; a scan over the short key ends corrupted.
    #[test]
    fn damaged_blocks_fail_cleanly(
        entries in entries_strategy(),
        dense in any::<bool>(),
        cut in any::<prop::sample::Index>(),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
        damage in 0u8..3,
    ) {
        let interval = if dense { 1 } else { 16 };
        let mut bytes = build(&entries, interval);
        match damage {
            0 => bytes.truncate(cut.index(bytes.len())),
            1 => {
                let at = flip.index(bytes.len());
                bytes[at] ^= 1 << bit;
            }
            _ if entries.is_empty() => return,
            _ => {
                let short = cut.index(entries.len());
                let mut b = BlockBuilder::new(interval);
                for (i, (k, v)) in entries.iter().enumerate() {
                    let key = encode(k);
                    b.add(if i == short { &key[..usize::from(bit)] } else { &key }, v);
                }
                bytes = b.finish().to_vec();
            }
        }
        let Ok(block) = Block::new(bytes.into()) else {
            return;
        };
        let mut key_buf = Vec::new();
        let mut targets = vec![first(), (vec![0xff; 25], Reverse(0))];
        targets.extend(entries.keys().step_by(5).cloned());
        for target in &targets {
            let _ = seek_both(&block, &encode(target), &mut key_buf);
        }
        if damage == 2 {
            let mut it = block.iter();
            it.seek_to_first();
            while it.valid() {
                it.next();
            }
            prop_assert!(it.corrupted(), "a scan passed a {}-byte key", bit);
        }
    }
}
