//! What a read sees, published as one immutable value.
//!
//! A point read or an iterator needs three things that change under it:
//! the active memtable, the immutable memtable being flushed (if any),
//! and the current [`Version`]. They used to be cloned one by one under
//! `db.state` — the mutex writers, flushes and compaction installs also
//! take. Instead the places that change any of the three (open, memtable
//! rotation, and the one version install every flush, trivial move and
//! compaction goes through) build a fresh [`ReadView`] while they hold
//! `db.state` and [`ViewCell::publish`] it; a reader [`ViewCell::load`]s
//! the current one — a leaf lock held for one `Arc` clone — and never
//! touches `db.state` (RocksDB's SuperVersion).
//!
//! **Order against the write path.** A reader samples the visible
//! sequence *first* and loads the view *second*. Rotation publishes the
//! view that names the fresh memtable inside the WAL epoch section,
//! before the epoch lock is released — no group can reserve a sequence
//! against the fresh memtable until then. So a sequence the reader
//! sampled was either applied into a memtable the loaded view names, or
//! that memtable was flushed and the view names the table it became (a
//! flush publishes table and dropped `imm` together). The loom model
//! below checks the first half on the primitives production runs.
//!
//! **What a view pins.** The `Arc<Version>` keeps every table file it
//! names on disk (`VersionSet::live_files` counts any version still
//! referenced), and each file's [`crate::table_cache::TableSlot`] keeps
//! the opened reader from its first probe for as long as some version
//! names the file.

use std::sync::Arc;

use crate::memtable::MemTable;
use crate::sync_shim::{self, lock};
use crate::version::Version;

/// One consistent capture of everything a read consults.
pub(crate) struct ReadView {
    /// The memtable taking writes when the view was published.
    pub(crate) mem: Arc<MemTable>,
    /// The memtable being flushed, until its table is installed.
    pub(crate) imm: Option<Arc<MemTable>>,
    /// The table files, level by level.
    pub(crate) version: Arc<Version>,
}

/// Holds the current [`ReadView`]. Built on [`crate::sync_shim`] so the
/// loom model explores exactly this code.
pub(crate) struct ViewCell {
    current: sync_shim::Mutex<Arc<ReadView>>,
}

impl ViewCell {
    pub(crate) fn new(view: ReadView) -> Self {
        ViewCell {
            current: sync_shim::Mutex::new(Arc::new(view)),
        }
    }

    /// The view to read through. Sample the visible sequence before
    /// calling this, not after.
    pub(crate) fn load(&self) -> Arc<ReadView> {
        Arc::clone(&lock(&self.current)) // LOCK-ORDER: db.view 45
    }

    /// Replaces the view. The replaced one is dropped after the lock is
    /// released: it may be the last reference to a version, whose tables
    /// close with it.
    // LOCK-HELD: db.state -- publication is ordered by the state lock.
    pub(crate) fn publish(&self, view: ReadView) {
        let mut view = Arc::new(view);
        std::mem::swap(
            &mut *lock(&self.current), // LOCK-ORDER: db.view 45
            &mut view,
        );
    }
}

/// Loom model of publish-at-rotation against a reader, run under
/// `RUSTFLAGS="--cfg loom"` beside the write-path models.
#[cfg(all(loom, test))]
mod loom_models {
    use super::*;
    use crate::sync_shim::Mutex;
    use crate::write_path::{ApplyLedger, SeqReserver};
    use sstable::ikey::{LookupKey, ValueType};

    use crate::memtable::MemGet;

    fn memtable() -> Arc<MemTable> {
        Arc::new(MemTable::with_shards(1))
    }

    fn holds(mem: &MemTable, seq: u64) -> bool {
        let key = format!("k{seq}");
        matches!(
            mem.get(&LookupKey::new(key.as_bytes(), seq)),
            MemGet::Value(_)
        )
    }

    /// Two writers commit single-sequence groups through the epoch lock
    /// while a rotator swaps the memtable and publishes the new view
    /// inside the epoch section, as `rotate_memtable` does. A reader
    /// samples `ledger.visible()` and *then* loads the view: every
    /// sequence at or below the sample must be in a memtable that view
    /// names. (Publishing after the epoch lock is released fails this
    /// model: a write lands in the fresh memtable and becomes visible
    /// while the cell still names only the old one.)
    #[test]
    fn loaded_view_holds_every_visible_sequence() {
        struct Epoch {
            mem: Arc<MemTable>,
        }
        loom::model(|| {
            let reserver = Arc::new(SeqReserver::new(0));
            let ledger = Arc::new(ApplyLedger::new(0));
            let first = memtable();
            let epoch = Arc::new(Mutex::new(Epoch {
                mem: Arc::clone(&first),
            }));
            let cell = Arc::new(ViewCell::new(ReadView {
                mem: first,
                imm: None,
                version: Arc::new(Version::empty()),
            }));

            let writers: Vec<_> = (0..2)
                .map(|_| {
                    let (reserver, ledger, epoch) = (
                        Arc::clone(&reserver),
                        Arc::clone(&ledger),
                        Arc::clone(&epoch),
                    );
                    loom::thread::spawn(move || {
                        let (seq, group, mem) = {
                            let ep = lock(&epoch);
                            let seq = reserver.reserve(1);
                            let group = ledger.register(seq, 1);
                            (seq, group, Arc::clone(&ep.mem))
                        };
                        mem.add(seq, ValueType::Value, format!("k{seq}").as_bytes(), b"v");
                        ledger.finish_members(group, 1);
                    })
                })
                .collect();
            let rotator = {
                let (epoch, cell) = (Arc::clone(&epoch), Arc::clone(&cell));
                loom::thread::spawn(move || {
                    let fresh = memtable();
                    let mut ep = lock(&epoch);
                    let old = std::mem::replace(&mut ep.mem, Arc::clone(&fresh));
                    cell.publish(ReadView {
                        mem: fresh,
                        imm: Some(old),
                        version: Arc::new(Version::empty()),
                    });
                })
            };
            let reader = {
                let (ledger, cell) = (Arc::clone(&ledger), Arc::clone(&cell));
                loom::thread::spawn(move || {
                    for _ in 0..3 {
                        let visible = ledger.visible();
                        let view = cell.load();
                        for seq in 1..=visible {
                            assert!(
                                holds(&view.mem, seq)
                                    || view.imm.as_ref().is_some_and(|imm| holds(imm, seq)),
                                "sequence {seq} visible but in no memtable of the loaded view"
                            );
                        }
                    }
                })
            };
            for w in writers {
                w.join().unwrap();
            }
            rotator.join().unwrap();
            reader.join().unwrap();
        });
    }
}
