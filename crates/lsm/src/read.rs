//! The read path: point lookups, iterators and scans. Everything here
//! reads through the published [`ReadView`] (see [`crate::read_view`])
//! and the tables pinned in its version's slots
//! ([`crate::table_cache`]); nothing here takes `db.state`.

use std::sync::Arc;

use sstable::ikey::{parse_internal_key, LookupKey, ValueType};
use sstable::iterator::InternalIterator;
use sstable::table::GetStats;

use crate::db::{Db, DbInner};
use crate::memtable::MemGet;
use crate::options::ReadOptions;
use crate::read_view::ReadView;
use crate::{Error, Result};

/// Per-pair accounting overhead used by [`Db::scan_with`]'s byte budget
/// (covers the length prefixes and framing a serving layer adds around
/// each key/value).
pub const SCAN_PAIR_OVERHEAD: usize = 16;

/// Result of a budgeted range scan.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Collected pairs, in key order.
    pub pairs: Vec<(Vec<u8>, Vec<u8>)>,
    /// `true` when the requested range was exhausted; `false` when the
    /// scan stopped early at the pair limit or the byte budget.
    pub complete: bool,
}

impl Db {
    /// Point lookup at the latest (or a snapshot) sequence.
    pub fn get_with(&self, key: &[u8], opts: ReadOptions) -> Result<Option<Vec<u8>>> {
        let t0 = self.inner.obs.now_micros();
        let result = self.get_with_inner(key, opts);
        self.inner
            .metrics
            .get_micros
            .record(self.inner.obs.now_micros().saturating_sub(t0));
        result
    }

    fn get_with_inner(&self, key: &[u8], opts: ReadOptions) -> Result<Option<Vec<u8>>> {
        let inner = &self.inner;
        // Reads run at the *visible* sequence, which a group commit
        // stores only once its whole group is applied, so a concurrent
        // commit can never expose a batch prefix.
        let seq = opts.snapshot.unwrap_or_else(|| inner.visible());
        let Some(stored) = inner.get_stored(key, seq)? else {
            return Ok(None);
        };
        let Some(v) = &inner.vlog else {
            return Ok(Some(stored));
        };
        match v.resolve(&stored) {
            Ok(value) => Ok(Some(value)),
            // A GC pass may retire a segment between the lookup above and
            // this dereference. The rewrite that replaced the pointer is
            // already visible (GC installs it before the segment goes
            // away), so one retry at a fresh sequence reads through the
            // new copy. Snapshot reads never race this way: GC defers
            // segment removal while any snapshot is registered.
            Err(Error::Corruption(_)) if opts.snapshot.is_none() => {
                match inner.get_stored(key, inner.visible())? {
                    Some(stored) => v.resolve(&stored).map(Some),
                    None => Ok(None),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Creates a streaming iterator over the live contents of the store,
    /// frozen at the current (or a snapshot) sequence. The iterator pins
    /// the memtables and version it was opened on and takes a memtable's
    /// lock only per step, so writes proceed concurrently.
    pub fn iter_with(&self, opts: ReadOptions) -> Result<crate::db_iter::DbIter> {
        let seq = opts.snapshot.unwrap_or_else(|| self.inner.visible());
        let view = self.inner.view();
        // No lower than the compaction horizon: see `crate::read_view`.
        let seq = seq.max(view.horizon);
        let tables = &self.inner.tables;
        // The memtable iterators are lazy and pin their `Arc`s; the
        // sequence cutoff inside DbIter hides any entries applied after
        // `seq` was sampled.
        let mut children: Vec<Box<dyn InternalIterator>> = vec![Box::new(view.mem.iter())];
        if let Some(imm) = &view.imm {
            children.push(Box::new(imm.iter()));
        }
        for f in &view.version.files[0] {
            children.push(Box::new(tables.pinned(f)?.iter()));
        }
        for files in &view.version.files[1..] {
            if files.is_empty() {
                continue;
            }
            let level: Result<Vec<_>> = files
                .iter()
                .map(|f| tables.pinned(f).map(Arc::clone))
                .collect();
            children.push(Box::new(crate::compaction::ChainIterator::level(
                level?,
                files.clone(),
                true,
            )));
        }
        Ok(crate::db_iter::DbIter::new(
            children,
            seq,
            self.inner.vlog.clone(),
        ))
    }

    /// Range scan with an additional byte budget: collection stops before
    /// a pair would push the accumulated cost (key + value +
    /// [`SCAN_PAIR_OVERHEAD`] each) past `byte_budget`, and
    /// [`ScanOutcome::complete`] reports whether the range was exhausted.
    /// Serving layers use the budget to keep one scan reply under their
    /// frame cap. A first pair larger than the whole budget yields an
    /// empty, incomplete outcome — the caller must fall back to a point
    /// read for that key.
    pub fn scan_with(
        &self,
        opts: ReadOptions,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        byte_budget: usize,
    ) -> Result<ScanOutcome> {
        // Short scans usually fill their limit; unbounded ones grow.
        let mut pairs = Vec::with_capacity(limit.min(256));
        let (_, complete) = self.scan_each(opts, start, end, limit, byte_budget, &mut |k, v| {
            pairs.push((k.to_vec(), v.to_vec()));
        })?;
        Ok(ScanOutcome { pairs, complete })
    }

    /// The scan loop under [`Db::scan`] and [`Db::scan_with`]: calls
    /// `visit` with each live pair of `[start, end)` in key order, lent
    /// straight from the iterator, until the range, `limit` pairs or
    /// `byte_budget` (see [`Db::scan_with`]) runs out. Returns the
    /// number of pairs visited and whether the range was exhausted. On
    /// an error, pairs already visited stay visited.
    pub fn scan_each(
        &self,
        opts: ReadOptions,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        byte_budget: usize,
        visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<(usize, bool)> {
        let t0 = self.inner.obs.now_micros();
        let mut it = self.iter_with(opts)?;
        it.seek(start);
        let (mut count, mut used, mut complete) = (0usize, 0usize, true);
        while it.valid() {
            let (key, value) = (it.key(), it.value());
            if end.is_some_and(|end| key >= end) {
                break;
            }
            let cost = key.len() + value.len() + SCAN_PAIR_OVERHEAD;
            if count >= limit || used.saturating_add(cost) > byte_budget {
                complete = false;
                break;
            }
            used += cost;
            count += 1;
            visit(key, value);
            it.next();
        }
        self.inner
            .metrics
            .scan_micros
            .record(self.inner.obs.now_micros().saturating_sub(t0));
        it.status()?;
        Ok((count, complete))
    }
}

impl DbInner {
    /// Raw stored bytes for `key` at `seq` — the tagged encoding when
    /// separation is on, the plain value otherwise. `None` covers both
    /// absent and deleted.
    pub(crate) fn get_stored(&self, key: &[u8], seq: u64) -> Result<Option<Vec<u8>>> {
        self.get_stored_in(key, seq, &self.view())
    }

    /// Lookup against one view, at `seq` or the view's compaction
    /// horizon, whichever is later (see [`crate::read_view`]). The
    /// value-log GC calls this while holding the state and epoch locks;
    /// no lock is taken inside but a memtable's skiplist lock, which
    /// ranks above both.
    pub(crate) fn get_stored_in(
        &self,
        key: &[u8],
        seq: u64,
        view: &ReadView,
    ) -> Result<Option<Vec<u8>>> {
        let lookup = LookupKey::new(key, seq.max(view.horizon));
        for mem in std::iter::once(&view.mem).chain(&view.imm) {
            match mem.get(&lookup) {
                MemGet::Value(v) => return Ok(Some(v)),
                MemGet::Deleted => return Ok(None),
                MemGet::NotFound => {}
            }
        }

        let mut probes = 0u32;
        let mut stats = GetStats::default();
        let mut answer = None;
        // Every block seek of every probe decodes into this one buffer.
        let mut found_key = Vec::with_capacity(lookup.internal_key().len());
        for (_, meta) in view.version.files_for_get(key) {
            probes += 1;
            let table = self.tables.pinned(meta)?;
            let Some(value) =
                table.get_counted(lookup.internal_key(), &mut found_key, &mut stats)?
            else {
                continue;
            };
            if let Some(parsed) = parse_internal_key(&found_key) {
                if parsed.user_key == key {
                    // The newest version decides: a value, or a tombstone.
                    if matches!(parsed.value_type, ValueType::Value) {
                        answer = Some(value);
                    }
                    break;
                }
            }
        }
        self.metrics.record_table_probes(probes, &stats);
        Ok(answer)
    }
}
