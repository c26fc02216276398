//! A block handle that points past the end of its file is `Corruption`,
//! found before anything is allocated for it. The footer carries no CRC,
//! so a flipped size there used to make `Table::open` allocate whatever
//! it named (a 1 TiB index block aborted the process).

use std::path::Path;

use sstable::env::{MemEnv, StorageEnv};
use sstable::format::{frame_block, BlockHandle, CompressionType, Footer, FOOTER_ENCODED_LENGTH};
use sstable::ikey::{InternalKey, ValueType, MAX_SEQUENCE_NUMBER};
use sstable::iterator::InternalIterator;
use sstable::table::{Table, TableReadOptions};
use sstable::table_builder::{TableBuilder, TableBuilderOptions};
use sstable::{BlockBuilder, Error};

const TIB: u64 = 1 << 40;

fn ikey(user: &[u8], seq: u64) -> Vec<u8> {
    InternalKey::new(user, seq, ValueType::Value)
        .encoded()
        .to_vec()
}

/// A small valid table's bytes.
fn table_bytes(env: &MemEnv) -> Vec<u8> {
    let file = env.create_writable(Path::new("/valid")).unwrap();
    let mut b = TableBuilder::new(TableBuilderOptions::default(), file);
    for i in 0..200 {
        let key = ikey(format!("key{i:06}").as_bytes(), 1);
        b.add(&key, b"value").unwrap();
    }
    b.finish().unwrap();
    env.open_random_access(Path::new("/valid"))
        .unwrap()
        .read_all()
        .unwrap()
}

fn open(env: &MemEnv, name: &str, bytes: &[u8]) -> sstable::Result<std::sync::Arc<Table>> {
    let path = Path::new(name);
    env.create_writable(path).unwrap().append(bytes).unwrap();
    Table::open(
        env.open_random_access(path).unwrap(),
        bytes.len() as u64,
        TableReadOptions::default(),
    )
}

fn assert_corruption<T>(what: &str, r: sstable::Result<T>) {
    match r {
        Err(Error::Corruption(_)) => {}
        Err(e) => panic!("{what}: expected Corruption, got {e}"),
        Ok(_) => panic!("{what}: expected Corruption, got Ok"),
    }
}

#[test]
fn a_footer_naming_a_huge_or_overflowing_block_is_corruption() {
    let env = MemEnv::new();
    let bytes = table_bytes(&env);
    let body = bytes.len() - FOOTER_ENCODED_LENGTH;
    let footer = Footer::decode(&bytes[body..]).unwrap();
    let bad_handles = [
        BlockHandle::new(footer.index_handle.offset, TIB),
        BlockHandle::new(u64::MAX - 2, 10),
        BlockHandle::new(0, u64::MAX),
        BlockHandle::new(footer.index_handle.offset, bytes.len() as u64),
    ];
    for (i, handle) in bad_handles.into_iter().enumerate() {
        for index_side in [true, false] {
            let mut bad = footer;
            if index_side {
                bad.index_handle = handle;
            } else {
                bad.metaindex_handle = handle;
            }
            let mut file = bytes[..body].to_vec();
            file.extend_from_slice(&bad.encode());
            assert_corruption(
                &format!("handle {handle:?}, index {index_side}"),
                open(&env, &format!("/bad{i}{index_side}"), &file),
            );
        }
    }
}

#[test]
fn a_data_handle_past_the_end_is_corruption_on_every_read() {
    let env = MemEnv::new();
    let bytes = table_bytes(&env);
    let body = bytes.len() - FOOTER_ENCODED_LENGTH;
    let footer = Footer::decode(&bytes[body..]).unwrap();
    // Keep the data blocks, replace the index with one naming a 1 TiB
    // block and drop the metaindex (so no filter hides the lookup).
    let mut file = bytes[..footer.metaindex_handle.offset as usize].to_vec();
    let huge = BlockHandle::new(0, TIB);
    let mut index = BlockBuilder::new(1);
    index.add(&ikey(b"key999999", 1), &huge.encode());
    let (_, framed) = frame_block(index.finish(), CompressionType::None, &mut Vec::new());
    let index_handle = BlockHandle::new(file.len() as u64, framed.len() as u64 - 5);
    file.extend_from_slice(&framed);
    let footer = Footer {
        metaindex_handle: BlockHandle::new(0, 0),
        index_handle,
    };
    file.extend_from_slice(&footer.encode());

    let table = open(&env, "/bad", &file).expect("the index block itself is sound");
    let probe = ikey(b"key000100", MAX_SEQUENCE_NUMBER);
    assert_corruption("get", table.get(&probe));
    let mut buf = Vec::new();
    assert_corruption("raw block read", table.read_blocks(&huge, &huge, &mut buf));
    assert_eq!(buf.capacity(), 0, "nothing allocated for a 1 TiB handle");
    let mut it = table.iter();
    it.seek_to_first();
    assert!(!it.valid());
    assert_corruption("scan", it.status());
}

/// A data block whose CRC holds but whose second entry decodes to a key
/// shorter than the internal-key trailer: a point read and a scan both
/// report corruption; neither panics nor steps over the block.
#[test]
fn a_key_shorter_than_the_trailer_is_corruption_on_every_read() {
    let mut file = Vec::new();
    let mut data = BlockBuilder::new(16);
    data.add(&ikey(b"key000000", 1), b"v");
    data.add(b"abc", b"v");
    let (_, framed) = frame_block(data.finish(), CompressionType::None, &mut Vec::new());
    let data_handle = BlockHandle::new(0, framed.len() as u64 - 5);
    file.extend_from_slice(&framed);
    let mut index = BlockBuilder::new(1);
    index.add(&ikey(b"zzz", 1), &data_handle.encode());
    let (_, framed) = frame_block(index.finish(), CompressionType::None, &mut Vec::new());
    let index_handle = BlockHandle::new(file.len() as u64, framed.len() as u64 - 5);
    file.extend_from_slice(&framed);
    let footer = Footer {
        metaindex_handle: BlockHandle::new(0, 0),
        index_handle,
    };
    file.extend_from_slice(&footer.encode());

    let table = open(&MemEnv::new(), "/short", &file).expect("both blocks are sound");
    let probe = ikey(b"key000001", MAX_SEQUENCE_NUMBER);
    assert_corruption("get", table.get(&probe));
    let mut it = table.iter();
    it.seek_to_first();
    assert_eq!(it.key(), ikey(b"key000000", 1));
    it.next();
    assert!(!it.valid());
    assert_corruption("scan", it.status());
}
