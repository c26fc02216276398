//! Property test of the block cache's buffer recycling: random loads,
//! lookups, holds and drops over a cache a few blocks per shard in size.
//! Misses read into the spare buffers of evicted blocks, so a block a
//! reader holds across its own eviction must keep its bytes, and every
//! lookup must return the bytes that block was built with.

use std::path::Path;

use proptest::prelude::*;
use sstable::block::Block;
use sstable::block_builder::BlockBuilder;
use sstable::cache::{BlockCache, Lookup};
use sstable::env::{MemEnv, RandomAccessFile, StorageEnv};
use sstable::format::{frame_block, read_block_into, BlockHandle, CompressionType};

/// Blocks in the file.
const BLOCKS: usize = 24;

/// The decoded contents of block `i`: a few entries whose values vary in
/// length from block to block, so spares of several sizes circulate and
/// some fit the next miss while others do not.
fn contents(i: usize) -> Vec<u8> {
    let mut b = BlockBuilder::new(4);
    for e in 0..4 + i % 3 {
        let key = format!("block{i:03}-entry{e}-trailer");
        let value = vec![(i * 7 + e) as u8; 200 + (i * 37) % 300];
        b.add(key.as_bytes(), &value);
    }
    b.finish().to_vec()
}

/// Writes every block, Snappy-compressed or raw, into one file.
fn file(env: &MemEnv) -> (Box<dyn RandomAccessFile>, u64, Vec<BlockHandle>) {
    let mut w = env.create_writable(Path::new("/blocks")).unwrap();
    let (mut handles, mut offset, mut scratch) = (Vec::new(), 0u64, Vec::new());
    for i in 0..BLOCKS {
        let compression = if i % 2 == 0 {
            CompressionType::Snappy
        } else {
            CompressionType::None
        };
        let (_, framed) = frame_block(&contents(i), compression, &mut scratch);
        w.append(&framed).unwrap();
        handles.push(BlockHandle::new(offset, framed.len() as u64 - 5));
        offset += framed.len() as u64;
    }
    w.sync().unwrap();
    let f = env.open_random_access(Path::new("/blocks")).unwrap();
    (f, offset, handles)
}

/// Loads block `i` as a table does: a hit, or a miss read into the spare
/// the lookup took and inserted with whatever spare went unused.
fn load(
    cache: &BlockCache,
    file: &dyn RandomAccessFile,
    size: u64,
    handles: &[BlockHandle],
    i: usize,
) -> Block {
    let handle = &handles[i];
    match cache.lookup(1, handle.offset, true) {
        Lookup::Hit(block) => block,
        Lookup::Miss(mut spare) => {
            let read = read_block_into(file, size, handle, &mut spare).unwrap();
            let block = Block::new(read).unwrap();
            cache.insert(1, handle.offset, block.clone(), spare);
            block
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn recycled_buffers_never_change_a_block_in_use(
        ops in prop::collection::vec((0u8..4, 0usize..BLOCKS), 1..400),
        cache_kib in prop::sample::select(vec![8usize, 16, 48]),
    ) {
        let env = MemEnv::new();
        let (file, size, handles) = file(&env);
        let expected: Vec<Vec<u8>> = (0..BLOCKS).map(contents).collect();
        let cache = BlockCache::new(cache_kib << 10);
        let mut held: Vec<(usize, Block)> = Vec::new();
        for (op, i) in ops {
            match op {
                // Load and let go.
                0 => {
                    let block = load(&cache, file.as_ref(), size, &handles, i);
                    prop_assert_eq!(block.contents(), &expected[i][..]);
                }
                // Load and hold, as an iterator holds its block.
                1 => {
                    let block = load(&cache, file.as_ref(), size, &handles, i);
                    prop_assert_eq!(block.contents(), &expected[i][..]);
                    held.push((i, block));
                }
                // Drop a held block.
                2 if !held.is_empty() => {
                    held.swap_remove(i % held.len());
                }
                // A plain lookup, which takes no spare.
                _ => {
                    if let Some(block) = cache.get(1, handles[i].offset) {
                        prop_assert_eq!(block.contents(), &expected[i][..]);
                    }
                }
            }
            for (i, block) in &held {
                prop_assert_eq!(block.contents(), &expected[*i][..], "held block {} changed", i);
            }
            prop_assert!(cache.bytes() <= (cache_kib << 10) + (2 << 10));
        }
    }
}
