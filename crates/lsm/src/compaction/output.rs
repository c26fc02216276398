//! Where the merged pairs go: [`OutputTables`], the one writer of the
//! store's tables. Compactions cut its output at the request's size cap;
//! flush, recovery and repair write their one table through it
//! ([`write_level0_table`]).

use std::path::Path;
use std::sync::Arc;

use sstable::env::{StorageEnv, WritableFile};
use sstable::ikey::InternalKey;
use sstable::iterator::InternalIterator;
use sstable::table_builder::{TableBuilder, TableBuilderOptions};

use super::OutputFileFactory;
use crate::filename::table_file_name;
use crate::memtable::MemTable;
use crate::options::Options;
use crate::version::FileMetaData;
use crate::Result;

/// Metadata of one produced table.
#[derive(Debug, Clone)]
pub struct OutputTableMeta {
    /// File number assigned by the factory.
    pub number: u64,
    /// Final file size.
    pub file_size: u64,
    /// Smallest internal key written.
    pub smallest: InternalKey,
    /// Largest internal key written.
    pub largest: InternalKey,
    /// Entries written.
    pub entries: u64,
}

impl OutputTableMeta {
    /// The version's record of the table: what a flush or a compaction
    /// installs.
    pub(crate) fn file_meta(&self) -> FileMetaData {
        let (smallest, largest) = (self.smallest.clone(), self.largest.clone());
        FileMetaData::new(self.number, self.file_size, smallest, largest)
    }
}

/// The one writer of the store's tables: opens a table on the first
/// pair, closes it at `max_file_size`, and records each table's metadata
/// once it is finished **and synced**.
pub(crate) struct OutputTables<'a> {
    builder_options: &'a TableBuilderOptions,
    max_file_size: u64,
    out: &'a dyn OutputFileFactory,
    /// File number, builder and first key of the table being written.
    open: Option<(u64, TableBuilder, InternalKey)>,
    /// Last key added; materialized as an `InternalKey` only when a table
    /// closes, so adding a pair never allocates for it.
    largest: Vec<u8>,
    outputs: Vec<OutputTableMeta>,
}

impl<'a> OutputTables<'a> {
    /// A writer shaping tables with `builder_options`, cut at
    /// `max_file_size` (`u64::MAX`: one table), on files from `out`.
    pub(crate) fn new(
        builder_options: &'a TableBuilderOptions,
        max_file_size: u64,
        out: &'a dyn OutputFileFactory,
    ) -> Self {
        OutputTables {
            builder_options,
            max_file_size,
            out,
            open: None,
            largest: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Appends one surviving pair; keys must arrive in merged order.
    pub(crate) fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let (_, builder, _) = match &mut self.open {
            Some(open) => open,
            None => {
                let (number, file) = self.out.new_output()?;
                let builder = TableBuilder::new(self.builder_options.clone(), file);
                let smallest = InternalKey::from_encoded(key.to_vec());
                self.open.insert((number, builder, smallest))
            }
        };
        builder.add(key, value)?;
        self.largest.clear();
        self.largest.extend_from_slice(key);
        if builder.file_size() >= self.max_file_size {
            self.close()?;
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        let Some((number, mut builder, smallest)) = self.open.take() else {
            return Ok(());
        };
        let entries = builder.num_entries();
        let file_size = builder.finish()?;
        // Outputs must be durable before the manifest can reference
        // them; a power cut between install and a lazy sync would tear a
        // live table.
        builder.sync()?;
        self.outputs.push(OutputTableMeta {
            number,
            file_size,
            smallest,
            largest: InternalKey::from_encoded(self.largest.clone()),
            entries,
        });
        Ok(())
    }

    /// Closes the last table; returns every table's metadata, in key
    /// order. A writer dropped instead (a source failed) leaves its open
    /// table unfinished and unsynced.
    pub(crate) fn finish(mut self) -> Result<Vec<OutputTableMeta>> {
        self.close()?;
        Ok(self.outputs)
    }
}

/// The factory of a job that writes one table under a number it already
/// allocated. Its writer has no size cap, so it is asked once.
struct OneTable<'a> {
    env: &'a dyn StorageEnv,
    dir: &'a Path,
    number: u64,
}

impl OutputFileFactory for OneTable<'_> {
    fn new_output(&self) -> Result<(u64, Box<dyn WritableFile>)> {
        // DURABILITY-OK: `OutputTables` syncs the table (TableBuilder::sync)
        // before it reports it, and only reported tables are installed.
        let file = self
            .env
            .create_writable(&table_file_name(self.dir, self.number))?;
        Ok((self.number, file))
    }
}

/// Streams `mem` into table `number` in `dir` and syncs it — LevelDB's
/// `WriteLevel0Table`, for flush, recovery and repair. `None` when `mem`
/// is empty (no file is created).
pub(crate) fn write_level0_table(
    options: &Options,
    dir: &Path,
    number: u64,
    mem: &Arc<MemTable>,
) -> Result<Option<FileMetaData>> {
    let builder_options = options.table_builder_options();
    let factory = OneTable {
        env: options.env.as_ref(),
        dir,
        number,
    };
    let mut tables = OutputTables::new(&builder_options, u64::MAX, &factory);
    let mut it = mem.iter();
    it.seek_to_first();
    while it.valid() {
        tables.add(it.key(), it.value())?;
        it.next();
    }
    Ok(tables.finish()?.first().map(OutputTableMeta::file_meta))
}
