//! A LevelDB-like LSM-tree key-value store with pluggable compaction
//! execution engines.
//!
//! This is the software half of the paper's system (Fig. 1): main threads
//! serve `put`/`get`/`delete`, a background thread schedules flushes and
//! compactions, and the *execution* of a compaction is delegated to a
//! [`CompactionEngine`] — either the CPU merge
//! ([`compaction::CpuCompactionEngine`]) or, via the `offload` crate's
//! service, the simulated FPGA engine with the paper's software
//! fallback. The on-disk format (WAL, MANIFEST, SSTables) is
//! LevelDB's, unchanged, because the paper integrates "without
//! modifications on the original storage format".
//!
//! ```
//! use lsm::{Db, Options};
//!
//! let dir = std::env::temp_dir().join("lsm-doc-example");
//! let _ = std::fs::remove_dir_all(&dir);
//! let db = Db::open(&dir, Options::default()).unwrap();
//! db.put(b"key", b"value").unwrap();
//! assert_eq!(db.get(b"key").unwrap().as_deref(), Some(&b"value"[..]));
//! db.delete(b"key").unwrap();
//! assert_eq!(db.get(b"key").unwrap(), None);
//! ```

mod background;
pub mod compaction;
mod db;
pub mod db_iter;
pub mod filename;
pub mod memtable;
mod open;
pub mod options;
mod read;
mod read_view;
pub mod repair;
pub mod repl;
mod stats;
pub mod sync_shim;
pub mod table_cache;
pub mod version;
pub mod vlog;
mod vlog_gc;
pub mod wal;
mod write;
pub mod write_batch;

pub use compaction::{
    CompactionEngine, CompactionInput, CompactionOutcome, CompactionRequest, CpuCompactionEngine,
    OutputTableMeta, WritePressure,
};
pub use db::{Db, Snapshot};
pub use db_iter::DbIter;
pub use options::{Options, ReadOptions, WriteOptions};
pub use read::{ScanOutcome, SCAN_PAIR_OVERHEAD};
pub use repair::{repair_db, RepairReport};
pub use repl::{ChunkEnd, ReplChunk, ReplRecord, WalCursor};
pub use stats::{set_level_file_gauges, DbStats, LevelCompactionStats};
pub use vlog_gc::VlogGcReport;
pub use wal::TailState;
pub use write_batch::WriteBatch;

/// Store-level errors.
#[derive(Debug)]
pub enum Error {
    /// Propagated table/format error.
    Table(sstable::Error),
    /// I/O failure.
    Io(std::io::Error),
    /// Corruption detected in a log or manifest.
    Corruption(String),
    /// Caller misuse.
    InvalidArgument(String),
    /// The database is shutting down.
    ShuttingDown,
    /// A background write failure moved the store into read-only mode;
    /// the payload is the original error. Reads still work, writes are
    /// rejected instead of being silently dropped.
    ReadOnly(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Table(e) => write!(f, "table error: {e}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Corruption(m) => write!(f, "corruption: {m}"),
            Error::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            Error::ShuttingDown => write!(f, "database is shutting down"),
            Error::ReadOnly(m) => write!(f, "database is read-only after background error: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Table(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sstable::Error> for Error {
    fn from(e: sstable::Error) -> Self {
        match e {
            sstable::Error::Io(io) => Error::Io(io),
            other => Error::Table(other),
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, Error>;
