//! LevelDB-compatible SSTable format.
//!
//! The paper's FPGA compaction engine is integrated with LevelDB "without
//! modifications on the original storage format" (§I), so this crate
//! implements that format faithfully:
//!
//! * **Data blocks** (`block`, `block_builder`) — prefix-compressed
//!   key/value entries with restart points every
//!   [`block_builder::RESTART_INTERVAL`] (16) entries, followed by the
//!   restart array and its count.
//! * **Block trailer** (`format`) — a one-byte compression tag (none /
//!   Snappy) plus a masked CRC32C over the block contents and tag,
//!   verified on every block read by [`format::check_trailer`].
//! * **Index block** — a data block whose keys are separators between
//!   adjacent data blocks and whose values are [`format::BlockHandle`]s
//!   (offset + size varints). This is the block the paper's *Index Block
//!   Decoder* parses.
//! * **Filter block** (`filter_block`, `bloom`) — LevelDB's bloom-filter
//!   metablock, built over user keys (each internal key minus its
//!   trailer), found in the metaindex by its exact name.
//! * **Footer** — metaindex handle + index handle, padded to 48 bytes,
//!   ending in the 8-byte LevelDB magic number.
//! * **Internal keys** (`ikey`) — user key + the 8-byte trailer packing a
//!   56-bit sequence number and a value type. The trailer is the paper's
//!   "mark fields": with 16-byte user keys, `L_key = 16 + 8 = 24`.
//! * **Key order** (`comparator`) — one order, the paper's Comparer's:
//!   [`InternalKeyComparator`], user key ascending, then sequence
//!   descending. Data and index blocks hold internal keys only; a decoded
//!   key shorter than the trailer is corruption.
//!
//! [`table_builder::TableBuilder`] writes tables through the one tail
//! writer, [`table_builder::TableWriter`], that also finishes the FCAE
//! engine's; [`table::Table`] reads them, and [`iterator`] provides the
//! iterator trait plus the k-way merging iterator compaction is built on.

pub mod block;
pub mod block_builder;
pub mod bloom;
pub mod cache;
pub mod coding;
pub mod comparator;
pub mod crc32c;
pub mod env;
pub mod filter_block;
pub mod format;
pub mod ikey;
pub mod iterator;
pub mod losertree;
pub mod table;
pub mod table_builder;

pub use block::Block;
pub use block_builder::BlockBuilder;
pub use cache::BlockCache;
pub use comparator::InternalKeyComparator;
pub use env::{
    FaultEnv, FaultKind, MemEnv, PowerCutReport, RandomAccessFile, StdEnv, StorageEnv, WritableFile,
};
pub use format::{BlockHandle, CompressionType, Footer};
pub use ikey::{
    append_internal_key, parse_internal_key, InternalKey, LookupKey, ParsedInternalKey,
    SequenceNumber, ValueType, MAX_SEQUENCE_NUMBER,
};
pub use iterator::{InternalIterator, MergingIterator};
pub use losertree::LoserTree;
pub use table::Table;
pub use table_builder::TableBuilder;

/// Errors produced while reading or writing tables.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural corruption (bad magic, CRC mismatch, truncated block...).
    Corruption(String),
    /// Caller misuse (keys out of order, builder reused after finish...).
    InvalidArgument(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Corruption(m) => write!(f, "corruption: {m}"),
            Error::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<snap_codec::Error> for Error {
    fn from(e: snap_codec::Error) -> Self {
        Error::Corruption(format!("snappy: {e}"))
    }
}

/// Result alias for table operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Helper for constructing corruption errors.
pub(crate) fn corruption(msg: impl Into<String>) -> Error {
    Error::Corruption(msg.into())
}
