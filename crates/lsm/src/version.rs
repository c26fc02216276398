//! Versions and the MANIFEST: which SSTables live at which level, how
//! compactions are picked (LevelDB's size/score-driven leveled policy),
//! and how metadata changes are made durable as `VersionEdit` records.

use std::cmp::Ordering;
use std::path::PathBuf;
use std::sync::{Arc, Weak};

use sstable::coding::{
    get_length_prefixed_slice, get_varint32, get_varint64, put_length_prefixed_slice, put_varint32,
    put_varint64,
};
use sstable::comparator::InternalKeyComparator;
use sstable::ikey::InternalKey;

use crate::filename::{current_file_name, manifest_file_name, temp_file_name};
use crate::options::{Options, L0_COMPACTION_TRIGGER, NUM_LEVELS};
use crate::table_cache::TableSlot;
use crate::wal::{LogReader, LogWriter};
use crate::{Error, Result};

/// Metadata for one SSTable file.
#[derive(Debug, Clone)]
pub struct FileMetaData {
    /// File number (names the `.ldb` file).
    pub number: u64,
    /// File size in bytes.
    pub file_size: u64,
    /// Smallest internal key in the file.
    pub smallest: InternalKey,
    /// Largest internal key in the file.
    pub largest: InternalKey,
    /// The file's open reader, once something has probed it.
    pub table: TableSlot,
}

impl FileMetaData {
    /// Metadata for a file nothing has opened yet.
    pub fn new(number: u64, file_size: u64, smallest: InternalKey, largest: InternalKey) -> Self {
        FileMetaData {
            number,
            file_size,
            smallest,
            largest,
            table: TableSlot::default(),
        }
    }
}

/// A durable, incremental change to the version state.
#[derive(Debug, Default, Clone)]
pub struct VersionEdit {
    /// New WAL number (older logs are obsolete).
    pub log_number: Option<u64>,
    /// Next file number to allocate.
    pub next_file_number: Option<u64>,
    /// Last sequence number used.
    pub last_sequence: Option<u64>,
    /// Per-level compaction cursors.
    pub compact_pointers: Vec<(usize, InternalKey)>,
    /// Files removed, as (level, file number).
    pub deleted_files: Vec<(usize, u64)>,
    /// Files added, as (level, meta).
    pub new_files: Vec<(usize, FileMetaData)>,
}

// Manifest record tags (LevelDB-compatible numbering).
const TAG_LOG_NUMBER: u32 = 2;
const TAG_NEXT_FILE_NUMBER: u32 = 3;
const TAG_LAST_SEQUENCE: u32 = 4;
const TAG_COMPACT_POINTER: u32 = 5;
const TAG_DELETED_FILE: u32 = 6;
const TAG_NEW_FILE: u32 = 7;

impl VersionEdit {
    /// Serializes the edit for the manifest log.
    pub fn encode(&self) -> Vec<u8> {
        let mut dst = Vec::new();
        if let Some(n) = self.log_number {
            put_varint32(&mut dst, TAG_LOG_NUMBER);
            put_varint64(&mut dst, n);
        }
        if let Some(n) = self.next_file_number {
            put_varint32(&mut dst, TAG_NEXT_FILE_NUMBER);
            put_varint64(&mut dst, n);
        }
        if let Some(n) = self.last_sequence {
            put_varint32(&mut dst, TAG_LAST_SEQUENCE);
            put_varint64(&mut dst, n);
        }
        for (level, key) in &self.compact_pointers {
            put_varint32(&mut dst, TAG_COMPACT_POINTER);
            put_varint32(&mut dst, *level as u32);
            put_length_prefixed_slice(&mut dst, key.encoded());
        }
        for (level, number) in &self.deleted_files {
            put_varint32(&mut dst, TAG_DELETED_FILE);
            put_varint32(&mut dst, *level as u32);
            put_varint64(&mut dst, *number);
        }
        for (level, f) in &self.new_files {
            put_varint32(&mut dst, TAG_NEW_FILE);
            put_varint32(&mut dst, *level as u32);
            put_varint64(&mut dst, f.number);
            put_varint64(&mut dst, f.file_size);
            put_length_prefixed_slice(&mut dst, f.smallest.encoded());
            put_length_prefixed_slice(&mut dst, f.largest.encoded());
        }
        dst
    }

    /// Parses an edit from a manifest record. A level past the tree or a
    /// key shorter than its 8-byte trailer is corruption: the record's
    /// CRC held, but applying it would index past the levels or compare
    /// a key with no trailer.
    pub fn decode(mut src: &[u8]) -> Result<VersionEdit> {
        let mut edit = VersionEdit::default();
        let bad = |m: &str| Error::Corruption(format!("version edit: {m}"));
        let level = |l: u32, m: &str| match l as usize {
            l if l < NUM_LEVELS => Ok(l),
            _ => Err(bad(&format!("{m} {l}"))),
        };
        let key = |k: &[u8], m: &str| match k.len() {
            n if n >= 8 => Ok(InternalKey::from_encoded(k.to_vec())),
            n => Err(bad(&format!("{m} of {n} bytes"))),
        };
        while !src.is_empty() {
            let (tag, n) = get_varint32(src).ok_or_else(|| bad("tag"))?;
            src = &src[n..];
            match tag {
                TAG_LOG_NUMBER => {
                    let (v, n) = get_varint64(src).ok_or_else(|| bad("log number"))?;
                    src = &src[n..];
                    edit.log_number = Some(v);
                }
                TAG_NEXT_FILE_NUMBER => {
                    let (v, n) = get_varint64(src).ok_or_else(|| bad("next file"))?;
                    src = &src[n..];
                    edit.next_file_number = Some(v);
                }
                TAG_LAST_SEQUENCE => {
                    let (v, n) = get_varint64(src).ok_or_else(|| bad("last seq"))?;
                    src = &src[n..];
                    edit.last_sequence = Some(v);
                }
                TAG_COMPACT_POINTER => {
                    let (l, n) = get_varint32(src).ok_or_else(|| bad("cp level"))?;
                    src = &src[n..];
                    let (k, n) = get_length_prefixed_slice(src).ok_or_else(|| bad("cp key"))?;
                    src = &src[n..];
                    edit.compact_pointers
                        .push((level(l, "cp level")?, key(k, "cp key")?));
                }
                TAG_DELETED_FILE => {
                    let (l, n) = get_varint32(src).ok_or_else(|| bad("del level"))?;
                    src = &src[n..];
                    let (num, n) = get_varint64(src).ok_or_else(|| bad("del num"))?;
                    src = &src[n..];
                    edit.deleted_files.push((level(l, "del level")?, num));
                }
                TAG_NEW_FILE => {
                    let (l, n) = get_varint32(src).ok_or_else(|| bad("nf level"))?;
                    src = &src[n..];
                    let (number, n) = get_varint64(src).ok_or_else(|| bad("nf num"))?;
                    src = &src[n..];
                    let (file_size, n) = get_varint64(src).ok_or_else(|| bad("nf size"))?;
                    src = &src[n..];
                    let (sk, n) =
                        get_length_prefixed_slice(src).ok_or_else(|| bad("nf smallest"))?;
                    src = &src[n..];
                    let (lk, n) =
                        get_length_prefixed_slice(src).ok_or_else(|| bad("nf largest"))?;
                    src = &src[n..];
                    edit.new_files.push((
                        level(l, "nf level")?,
                        FileMetaData::new(
                            number,
                            file_size,
                            key(sk, "nf smallest")?,
                            key(lk, "nf largest")?,
                        ),
                    ));
                }
                other => return Err(bad(&format!("unknown tag {other}"))),
            }
        }
        Ok(edit)
    }
}

/// An immutable snapshot of the file layout across levels.
pub struct Version {
    /// Files per level. L0 is ordered newest-first; L1+ are ordered by
    /// smallest key and non-overlapping.
    pub files: Vec<Vec<Arc<FileMetaData>>>,
}

impl Version {
    /// An empty version.
    pub fn empty() -> Self {
        Version {
            files: vec![Vec::new(); NUM_LEVELS],
        }
    }

    /// Total bytes at `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.files[level].iter().map(|f| f.file_size).sum()
    }

    /// Number of files at `level`.
    pub fn num_files(&self, level: usize) -> usize {
        self.files[level].len()
    }

    /// Files in `level` whose range overlaps `[smallest_user, largest_user]`.
    /// For L0 the search is iterative because L0 files may mutually overlap
    /// (LevelDB's `GetOverlappingInputs` expansion).
    pub fn overlapping_inputs(
        &self,
        level: usize,
        smallest_user: &[u8],
        largest_user: &[u8],
    ) -> Vec<Arc<FileMetaData>> {
        let mut begin = smallest_user.to_vec();
        let mut end = largest_user.to_vec();
        let mut inputs: Vec<Arc<FileMetaData>> = Vec::new();
        'restart: loop {
            inputs.clear();
            for f in &self.files[level] {
                let fstart = f.smallest.user_key();
                let flimit = f.largest.user_key();
                if flimit < begin.as_slice() || fstart > end.as_slice() {
                    continue; // disjoint
                }
                if level == 0 {
                    // Expand the range and restart, since other L0 files
                    // may overlap the enlarged range.
                    let mut expanded = false;
                    if fstart < begin.as_slice() {
                        begin = fstart.to_vec();
                        expanded = true;
                    }
                    if flimit > end.as_slice() {
                        end = flimit.to_vec();
                        expanded = true;
                    }
                    if expanded {
                        continue 'restart;
                    }
                }
                inputs.push(Arc::clone(f));
            }
            return inputs;
        }
    }

    /// Files possibly containing `user_key`, in the order the read path
    /// must consult them: all overlapping L0 files newest-first, then at
    /// most one file per deeper level. Lazy: a `get` answered by the
    /// first candidate never looks for the second.
    pub fn files_for_get<'a>(
        &'a self,
        user_key: &'a [u8],
    ) -> impl Iterator<Item = (usize, &'a Arc<FileMetaData>)> + 'a {
        let level0 = self.files[0]
            .iter()
            .filter(move |f| f.smallest.user_key() <= user_key && user_key <= f.largest.user_key());
        let deeper = (1..NUM_LEVELS).filter_map(move |level| {
            let files = &self.files[level];
            // Binary search: first file whose largest >= user_key.
            let idx = files.partition_point(|f| f.largest.user_key() < user_key);
            let file = files.get(idx)?;
            (file.smallest.user_key() <= user_key).then_some((level, file))
        });
        level0.map(|f| (0, f)).chain(deeper)
    }
}

/// A picked compaction: `inputs[0]` from `level`, `inputs[1]` from
/// `level + 1`.
pub struct Compaction {
    /// Source level.
    pub level: usize,
    /// Input files: `[level files, level+1 files]`.
    pub inputs: [Vec<Arc<FileMetaData>>; 2],
    /// Largest key of the level-`level` inputs (becomes the compact
    /// pointer for round-robin cursor advancement).
    pub largest_input_key: InternalKey,
}

impl Compaction {
    /// Total input bytes.
    pub fn input_bytes(&self) -> u64 {
        self.inputs.iter().flatten().map(|f| f.file_size).sum()
    }

    /// Total number of input files.
    pub fn num_input_files(&self) -> usize {
        self.inputs[0].len() + self.inputs[1].len()
    }

    /// The merge's sorted inputs: each level-0 file alone (they overlap,
    /// newest first), a deeper level's files as one run, then the next
    /// level's files as one run. Empty runs are skipped.
    pub(crate) fn input_runs(&self) -> impl Iterator<Item = &[Arc<FileMetaData>]> {
        let [upper, lower] = &self.inputs;
        let files_per_run = if self.level == 0 {
            1
        } else {
            upper.len().max(1)
        };
        upper
            .chunks(files_per_run)
            .chain([lower.as_slice()])
            .filter(|run| !run.is_empty())
    }

    /// A move-only compaction: one input file, nothing to merge with.
    /// LevelDB just relinks the file to the next level.
    pub fn is_trivial_move(&self) -> bool {
        self.inputs[0].len() == 1 && self.inputs[1].is_empty()
    }
}

/// Owns the current [`Version`], file-number allocation, and the MANIFEST.
pub struct VersionSet {
    options: Options,
    dir: PathBuf,
    current: Arc<Version>,
    /// Next file number to hand out.
    next_file_number: u64,
    /// Highest sequence number used.
    pub last_sequence: u64,
    /// WAL number currently in use.
    pub log_number: u64,
    manifest: Option<LogWriter>,
    manifest_number: u64,
    /// Per-level cursor for round-robin compaction picking.
    compact_pointers: Vec<Vec<u8>>,
    /// Weak handles to every version ever installed; pruned lazily. Files
    /// referenced by *any* still-alive version must not be deleted, since
    /// in-flight readers hold `Arc<Version>` snapshots.
    live_versions: Vec<Weak<Version>>,
}

impl VersionSet {
    /// Creates a fresh version set (empty DB) — `recover` populates state
    /// for existing databases.
    pub fn new(dir: PathBuf, options: Options) -> Self {
        VersionSet {
            options,
            dir,
            current: Arc::new(Version::empty()),
            next_file_number: 2,
            last_sequence: 0,
            log_number: 0,
            manifest: None,
            manifest_number: 1,
            compact_pointers: vec![Vec::new(); NUM_LEVELS],
            live_versions: Vec::new(),
        }
    }

    /// The live version.
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current)
    }

    /// Allocates a new file number.
    pub fn new_file_number(&mut self) -> u64 {
        let n = self.next_file_number;
        self.next_file_number += 1;
        n
    }

    /// Ensures future allocations start at `floor` or above. Recovery
    /// uses this for files the MANIFEST does not track (value-log
    /// segments), so a reopened store never reissues a live segment's
    /// number and truncates it with a fresh `create_writable`.
    pub fn bump_file_number(&mut self, floor: u64) {
        if self.next_file_number < floor {
            self.next_file_number = floor;
        }
    }

    /// Applies `edit` to the current version, writes it to the MANIFEST,
    /// and installs the result as current.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<()> {
        if edit.log_number.is_none() {
            edit.log_number = Some(self.log_number);
        }
        edit.next_file_number = Some(self.next_file_number);
        edit.last_sequence = Some(self.last_sequence);

        let new_version = self.build_version(&edit)?;

        if self.manifest.is_none() {
            self.create_manifest()?;
        }
        if !edit.new_files.is_empty() {
            // New table files must be durable — content *and* directory
            // entry — before the manifest references them, or a power cut
            // leaves a manifest pointing at files that no longer exist.
            self.options.env.sync_dir(&self.dir)?;
        }
        let record = edit.encode();
        // PANIC-OK: create_manifest() just ran for the None case.
        let manifest = self.manifest.as_mut().expect("manifest created above");
        manifest.add_record(&record)?;
        manifest.flush()?;
        // The edit may obsolete a WAL (log_number advance) whose deletion
        // happens right after; the manifest record must hit disk first.
        manifest.sync()?;

        if let Some(n) = edit.log_number {
            self.log_number = n;
        }
        for (level, key) in &edit.compact_pointers {
            self.compact_pointers[*level] = key.encoded().to_vec();
        }
        self.current = Arc::new(new_version);
        self.live_versions.retain(|w| w.strong_count() > 0);
        self.live_versions.push(Arc::downgrade(&self.current));
        Ok(())
    }

    /// Builds a new version = current + edit.
    fn build_version(&self, edit: &VersionEdit) -> Result<Version> {
        let mut files: Vec<Vec<Arc<FileMetaData>>> = self.current.files.clone();
        for (level, number) in &edit.deleted_files {
            files[*level].retain(|f| f.number != *number);
        }
        for (level, meta) in &edit.new_files {
            files[*level].push(Arc::new(meta.clone()));
        }
        // L0: newest file first (higher number = newer). L1+: by smallest.
        files[0].sort_by_key(|f| std::cmp::Reverse(f.number));
        for level_files in files.iter_mut().skip(1) {
            level_files.sort_by(|a, b| {
                InternalKeyComparator.compare(a.smallest.encoded(), b.smallest.encoded())
            });
        }
        // Invariant: no overlap within levels >= 1.
        for (level, level_files) in files.iter().enumerate().skip(1) {
            for pair in level_files.windows(2) {
                if InternalKeyComparator
                    .compare(pair[0].largest.encoded(), pair[1].smallest.encoded())
                    != Ordering::Less
                {
                    return Err(Error::Corruption(format!(
                        "overlapping files {} and {} at level {level}",
                        pair[0].number, pair[1].number
                    )));
                }
            }
        }
        Ok(Version { files })
    }

    fn create_manifest(&mut self) -> Result<()> {
        let path = manifest_file_name(&self.dir, self.manifest_number);
        let file = self.options.env.create_writable(&path)?;
        let mut writer = LogWriter::new(file);
        // Snapshot record: the full current state.
        let mut snapshot = VersionEdit {
            next_file_number: Some(self.next_file_number),
            last_sequence: Some(self.last_sequence),
            log_number: Some(self.log_number),
            ..Default::default()
        };
        for (level, files) in self.current.files.iter().enumerate() {
            for f in files {
                snapshot.new_files.push((level, (**f).clone()));
            }
        }
        writer.add_record(&snapshot.encode())?;
        writer.flush()?;
        // The snapshot and the manifest's directory entry must both be
        // durable before CURRENT can point at it.
        writer.sync()?;
        self.manifest = Some(writer);
        self.options.env.sync_dir(&self.dir)?;
        self.set_current_file(self.manifest_number)?;
        // Make the CURRENT swap itself durable.
        self.options.env.sync_dir(&self.dir)?;
        Ok(())
    }

    /// Atomically points CURRENT at manifest `number`.
    fn set_current_file(&self, number: u64) -> Result<()> {
        let tmp = temp_file_name(&self.dir, number);
        let mut f = self.options.env.create_writable(&tmp)?;
        f.append(format!("MANIFEST-{number:06}\n").as_bytes())?;
        f.sync()?;
        drop(f);
        self.options
            .env
            .rename(&tmp, &current_file_name(&self.dir))?;
        Ok(())
    }

    /// Recovers version state from CURRENT + MANIFEST. Returns `false` if
    /// no database exists yet.
    pub fn recover(&mut self) -> Result<bool> {
        let current_path = current_file_name(&self.dir);
        if !self.options.env.file_exists(&current_path) {
            return Ok(false);
        }
        let content = self
            .options
            .env
            .open_random_access(&current_path)?
            .read_all()?;
        let name = String::from_utf8_lossy(&content);
        let name = name.trim();
        let manifest_number = name
            .strip_prefix("MANIFEST-")
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| Error::Corruption(format!("bad CURRENT contents: {name}")))?;

        let manifest_path = manifest_file_name(&self.dir, manifest_number);
        let file = self.options.env.open_random_access(&manifest_path)?;
        let mut reader = LogReader::new(file.as_ref())?;
        let mut version = Version::empty();
        while let Some(record) = reader.read_record() {
            let edit = VersionEdit::decode(&record)?;
            // Apply onto the accumulating version.
            self.current = Arc::new(version);
            version = self.build_version(&edit)?;
            if let Some(n) = edit.log_number {
                self.log_number = n;
            }
            if let Some(n) = edit.next_file_number {
                self.next_file_number = n;
            }
            if let Some(n) = edit.last_sequence {
                self.last_sequence = n;
            }
            for (level, key) in &edit.compact_pointers {
                self.compact_pointers[*level] = key.encoded().to_vec();
            }
        }
        if reader.corruption_detected() {
            // A checksum-failed record mid-manifest means later edits may
            // have been applied on top of a hole; surface it so the
            // caller can route the store through `repair_db` instead of
            // serving a silently wrong file layout.
            return Err(Error::Corruption(format!(
                "MANIFEST-{manifest_number:06} contains corrupt records"
            )));
        }
        self.current = Arc::new(version);
        // Continue appending to a fresh manifest on next log_and_apply.
        self.start_new_manifest();
        Ok(true)
    }

    /// Makes the next [`VersionSet::log_and_apply`] write a fresh MANIFEST
    /// under a newly allocated file number (never over an existing one),
    /// and returns that number.
    pub(crate) fn start_new_manifest(&mut self) -> u64 {
        self.manifest_number = self.new_file_number();
        self.manifest = None;
        self.manifest_number
    }

    /// Every level whose score reaches 1.0, most urgent first; equal
    /// scores keep the shallower level first (LevelDB `Finalize`: L0
    /// scores by file count against its trigger, deeper levels by bytes
    /// against their budget). A multi-worker scheduler walks this list
    /// and starts the first candidate that does not conflict with
    /// in-flight work; [`VersionSet::pick_compaction`] is the
    /// single-worker special case (first candidate only).
    pub fn candidate_levels(&self) -> Vec<usize> {
        let mut scored: Vec<(usize, f64)> = Vec::new();
        let l0 = self.current.num_files(0) as f64 / L0_COMPACTION_TRIGGER as f64;
        if l0 >= 1.0 {
            scored.push((0, l0));
        }
        for level in 1..NUM_LEVELS - 1 {
            let score = self.current.level_bytes(level) as f64
                / self.options.max_bytes_for_level(level) as f64;
            if score >= 1.0 {
                scored.push((level, score));
            }
        }
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
        scored.into_iter().map(|(level, _)| level).collect()
    }

    /// Picks the next compaction, or `None` if nothing is needed.
    pub fn pick_compaction(&self) -> Option<Compaction> {
        self.pick_compaction_at(*self.candidate_levels().first()?)
    }

    /// Builds a compaction for `level` regardless of its score (manual
    /// compaction); `None` if the level is empty or is the last level.
    pub fn pick_compaction_at(&self, level: usize) -> Option<Compaction> {
        if level + 1 >= NUM_LEVELS || self.current.files[level].is_empty() {
            return None;
        }
        let version = &self.current;

        // Seed with the first file after the compact pointer (round robin).
        let mut seed: Option<Arc<FileMetaData>> = None;
        let pointer = &self.compact_pointers[level];
        for f in &version.files[level] {
            if pointer.is_empty()
                || InternalKeyComparator.compare(f.largest.encoded(), pointer) == Ordering::Greater
            {
                seed = Some(Arc::clone(f));
                break;
            }
        }
        let seed = seed.or_else(|| version.files[level].first().map(Arc::clone))?;

        // Expand within the level (mandatory for L0 where ranges overlap).
        let mut inputs0 = if level == 0 {
            version.overlapping_inputs(0, seed.smallest.user_key(), seed.largest.user_key())
        } else {
            vec![seed]
        };
        if inputs0.is_empty() {
            return None;
        }
        // Order L0 inputs oldest-first so the merging iterator's
        // "earlier child wins ties" rule sees newest first; we instead
        // sort newest-first to match that rule.
        inputs0.sort_by_key(|f| std::cmp::Reverse(f.number));

        let (smallest, largest) = self.key_range(&inputs0);
        let inputs1 =
            version.overlapping_inputs(level + 1, smallest.user_key(), largest.user_key());

        let largest_input_key = InternalKey::from_encoded(largest.encoded().to_vec());
        Some(Compaction {
            level,
            inputs: [inputs0, inputs1],
            largest_input_key,
        })
    }

    /// Smallest/largest internal keys across `files`.
    fn key_range(&self, files: &[Arc<FileMetaData>]) -> (InternalKey, InternalKey) {
        let mut smallest = files[0].smallest.clone();
        let mut largest = files[0].largest.clone();
        for f in &files[1..] {
            if InternalKeyComparator.compare(f.smallest.encoded(), smallest.encoded())
                == Ordering::Less
            {
                smallest = f.smallest.clone();
            }
            if InternalKeyComparator.compare(f.largest.encoded(), largest.encoded())
                == Ordering::Greater
            {
                largest = f.largest.clone();
            }
        }
        (smallest, largest)
    }

    /// All file numbers referenced by the current version or any version
    /// an in-flight reader still holds (for obsolete-file GC).
    pub fn live_files(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .current
            .files
            .iter()
            .flatten()
            .map(|f| f.number)
            .collect();
        for weak in &self.live_versions {
            if let Some(v) = weak.upgrade() {
                out.extend(v.files.iter().flatten().map(|f| f.number));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::env::MemEnv;
    use sstable::ikey::ValueType;

    fn ikey(user: &str, seq: u64) -> InternalKey {
        InternalKey::new(user.as_bytes(), seq, ValueType::Value)
    }

    fn meta(number: u64, smallest: &str, largest: &str) -> FileMetaData {
        FileMetaData::new(number, 1000, ikey(smallest, 100), ikey(largest, 1))
    }

    fn mem_options() -> Options {
        Options {
            env: Arc::new(MemEnv::new()),
            ..Default::default()
        }
    }

    #[test]
    fn version_edit_roundtrip() {
        let mut e = VersionEdit {
            log_number: Some(9),
            next_file_number: Some(42),
            last_sequence: Some(12345),
            ..Default::default()
        };
        e.compact_pointers.push((2, ikey("cp", 7)));
        e.deleted_files.push((1, 8));
        e.new_files.push((3, meta(10, "aaa", "zzz")));
        let enc = e.encode();
        let d = VersionEdit::decode(&enc).unwrap();
        assert_eq!(d.log_number, Some(9));
        assert_eq!(d.next_file_number, Some(42));
        assert_eq!(d.last_sequence, Some(12345));
        assert_eq!(d.compact_pointers.len(), 1);
        assert_eq!(d.deleted_files, vec![(1, 8)]);
        assert_eq!(d.new_files.len(), 1);
        assert_eq!(d.new_files[0].1.number, 10);
        assert!(VersionEdit::decode(&[250, 250]).is_err());
    }

    #[test]
    fn log_and_apply_installs_files() {
        let mut vs = VersionSet::new(PathBuf::from("/db"), mem_options());
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, meta(5, "a", "m")));
        edit.new_files.push((1, meta(6, "a", "f")));
        edit.new_files.push((1, meta(7, "g", "z")));
        vs.log_and_apply(edit).unwrap();
        let v = vs.current();
        assert_eq!(v.num_files(0), 1);
        assert_eq!(v.num_files(1), 2);
        // Level 1 sorted by smallest.
        assert_eq!(v.files[1][0].number, 6);
        assert_eq!(v.files[1][1].number, 7);
    }

    #[test]
    fn build_rejects_overlap_in_deep_levels() {
        let mut vs = VersionSet::new(PathBuf::from("/db"), mem_options());
        let mut edit = VersionEdit::default();
        edit.new_files.push((1, meta(5, "a", "m")));
        edit.new_files.push((1, meta(6, "k", "z"))); // overlaps "a".."m"
        assert!(vs.log_and_apply(edit).is_err());
    }

    #[test]
    fn recovery_restores_state() {
        let env = Arc::new(MemEnv::new());
        let opts = Options {
            env: Arc::clone(&env) as Arc<dyn sstable::env::StorageEnv>,
            ..Default::default()
        };
        let dir = PathBuf::from("/db");
        {
            let mut vs = VersionSet::new(dir.clone(), opts.clone());
            let mut edit = VersionEdit::default();
            edit.new_files.push((1, meta(5, "a", "m")));
            vs.last_sequence = 77;
            vs.log_and_apply(edit).unwrap();
            let mut edit2 = VersionEdit::default();
            edit2.new_files.push((2, meta(6, "a", "b")));
            edit2.deleted_files.push((1, 5));
            vs.log_and_apply(edit2).unwrap();
        }
        let mut vs = VersionSet::new(dir, opts);
        assert!(vs.recover().unwrap());
        let v = vs.current();
        assert_eq!(v.num_files(1), 0);
        assert_eq!(v.num_files(2), 1);
        assert_eq!(v.files[2][0].number, 6);
        assert_eq!(vs.last_sequence, 77);
    }

    #[test]
    fn recover_on_empty_dir_returns_false() {
        let mut vs = VersionSet::new(PathBuf::from("/nodb"), mem_options());
        assert!(!vs.recover().unwrap());
    }

    #[test]
    fn files_for_get_order() {
        let mut vs = VersionSet::new(PathBuf::from("/db"), mem_options());
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, meta(10, "a", "z"))); // newer L0
        edit.new_files.push((0, meta(9, "a", "z"))); // older L0
        edit.new_files.push((1, meta(5, "a", "k")));
        edit.new_files.push((1, meta(6, "l", "z")));
        vs.log_and_apply(edit).unwrap();
        let v = vs.current();
        let hits: Vec<_> = v.files_for_get(b"m").collect();
        let numbers: Vec<u64> = hits.iter().map(|(_, f)| f.number).collect();
        // L0 newest first (10 then 9), then the single overlapping L1 file.
        assert_eq!(numbers, vec![10, 9, 6]);
        // Key beyond every file's range hits nothing.
        let hits: Vec<_> = v.files_for_get(b"zz").collect();
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn pick_compaction_l0_collects_overlaps() {
        let mut vs = VersionSet::new(PathBuf::from("/db"), mem_options());
        let mut edit = VersionEdit::default();
        for n in 0..4u64 {
            edit.new_files.push((0, meta(10 + n, "a", "m")));
        }
        edit.new_files.push((1, meta(20, "a", "f")));
        edit.new_files.push((1, meta(21, "g", "z")));
        vs.log_and_apply(edit).unwrap();
        let c = vs.pick_compaction().expect("L0 at trigger should compact");
        assert_eq!(c.level, 0);
        assert_eq!(c.inputs[0].len(), 4);
        assert_eq!(c.inputs[1].len(), 2);
        assert_eq!(c.num_input_files(), 6);
        assert!(!c.is_trivial_move());
        // L0 inputs newest-first.
        assert!(c.inputs[0][0].number > c.inputs[0][1].number);
    }

    #[test]
    fn no_compaction_when_below_triggers() {
        let mut vs = VersionSet::new(PathBuf::from("/db"), mem_options());
        let mut edit = VersionEdit::default();
        edit.new_files.push((0, meta(10, "a", "m")));
        vs.log_and_apply(edit).unwrap();
        assert!(vs.pick_compaction().is_none());
    }

    /// Equal scores go to the shallower level, L0 included.
    #[test]
    fn tied_scores_pick_the_shallower_level() {
        let opts = || Options {
            level1_max_bytes: 10_000,
            ..mem_options()
        };
        let sized = |number, smallest, largest, file_size| {
            let mut f = meta(number, smallest, largest);
            f.file_size = file_size;
            f
        };
        // L0 at twice its trigger, L1 at twice its budget: both score 2.0.
        let mut vs = VersionSet::new(PathBuf::from("/db"), opts());
        let mut edit = VersionEdit::default();
        for n in 0..2 * L0_COMPACTION_TRIGGER as u64 {
            edit.new_files.push((0, meta(10 + n, "a", "m")));
        }
        edit.new_files.push((1, sized(30, "a", "z", 20_000)));
        vs.log_and_apply(edit).unwrap();
        assert_eq!(vs.candidate_levels(), vec![0, 1]);
        assert_eq!(vs.pick_compaction().map(|c| c.level), Some(0));

        // L1 and L2 both at three times their budgets.
        let mut vs = VersionSet::new(PathBuf::from("/db"), opts());
        let mut edit = VersionEdit::default();
        edit.new_files.push((1, sized(40, "a", "m", 30_000)));
        edit.new_files.push((2, sized(41, "n", "z", 300_000)));
        vs.log_and_apply(edit).unwrap();
        assert_eq!(vs.candidate_levels(), vec![1, 2]);
        assert_eq!(vs.pick_compaction().map(|c| c.level), Some(1));
    }

    #[test]
    fn trivial_move_detected() {
        let mut vs = VersionSet::new(PathBuf::from("/db"), mem_options());
        let mut edit = VersionEdit::default();
        // Oversized L1, nothing in L2 overlapping.
        let mut big = meta(10, "a", "b");
        big.file_size = 100 << 20;
        edit.new_files.push((1, big));
        vs.log_and_apply(edit).unwrap();
        let c = vs
            .pick_compaction()
            .expect("oversized level should compact");
        assert_eq!(c.level, 1);
        assert!(c.is_trivial_move());
    }
}
