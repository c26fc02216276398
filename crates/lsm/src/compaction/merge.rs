//! What is merged: the [`DropFilter`]'s drop rules, the [`Merger`]'s
//! N-way selection over [`MergeSource`]s, and [`merge_sources`], the CPU
//! merge that drains them into one `OutputTables` writer.

use std::cmp::Ordering;

use sstable::comparator::InternalKeyComparator;
use sstable::ikey::{parse_internal_key, SequenceNumber, ValueType};
use sstable::losertree::LoserTree;

use super::output::OutputTables;
use super::{CompactionOutcome, CompactionRequest, OutputFileFactory};
use crate::Result;

/// Decides, entry by entry, whether a merged internal key survives
/// compaction. This implements LevelDB's `DoCompactionWork` drop rules and
/// is the exact contract the paper's *Validity Check* module enforces in
/// hardware, so both engines share it.
#[derive(Clone)]
pub struct DropFilter {
    smallest_snapshot: SequenceNumber,
    bottommost: bool,
    /// Previous entry's user key, in a buffer reused across entries so
    /// the per-entry path never allocates (only grows capacity when a
    /// longer key than any before arrives).
    last_user_key: Vec<u8>,
    has_last_user_key: bool,
    /// Sequence of the previous (newer) entry for the current user key;
    /// `None` on the first occurrence of a key.
    prev_sequence_for_key: Option<SequenceNumber>,
}

impl DropFilter {
    /// Creates the filter for one compaction.
    pub fn new(smallest_snapshot: SequenceNumber, bottommost: bool) -> Self {
        DropFilter {
            smallest_snapshot,
            bottommost,
            last_user_key: Vec::new(),
            has_last_user_key: false,
            prev_sequence_for_key: None,
        }
    }

    /// Returns true if the entry with internal key `ikey` must be dropped.
    /// Must be called in merged key order.
    pub fn should_drop(&mut self, ikey: &[u8]) -> bool {
        let Some(parsed) = parse_internal_key(ikey) else {
            // Unparseable keys are passed through so corruption stays
            // visible downstream rather than silently vanishing.
            self.has_last_user_key = false;
            self.prev_sequence_for_key = None;
            return false;
        };
        let first_occurrence =
            !self.has_last_user_key || self.last_user_key.as_slice() != parsed.user_key;
        if first_occurrence {
            self.last_user_key.clear();
            self.last_user_key.extend_from_slice(parsed.user_key);
            self.has_last_user_key = true;
            self.prev_sequence_for_key = None;
        }

        let drop = match self.prev_sequence_for_key {
            // A newer entry for this user key is already visible at the
            // oldest snapshot: this one is shadowed.
            Some(prev) if prev <= self.smallest_snapshot => true,
            _ => {
                parsed.value_type == ValueType::Deletion
                    && parsed.sequence <= self.smallest_snapshot
                    && self.bottommost
            }
        };
        self.prev_sequence_for_key = Some(parsed.sequence);
        drop
    }
}

/// A positioned stream of key-value pairs in internal-key order: one
/// input of the merge, as the [`Merger`] sees it.
pub trait MergeSource {
    /// Moves to the next pair (the first one on the first call);
    /// `Ok(true)` while pairs remain. An `Err` is final: the input could
    /// not be read, and what it yielded so far must not be installed.
    fn advance(&mut self) -> Result<bool>;
    /// True when positioned on a pair.
    fn valid(&self) -> bool;
    /// Current internal key. Panics when invalid.
    fn key(&self) -> &[u8];
    /// Current value. Panics when invalid.
    fn value(&self) -> &[u8];
}

/// The merger's per-selection output: which input holds the smallest
/// key, and whether the validity check passed (paper: the `Input No.` and
/// `Drop` flags sent to Key-Value Transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// Index of the winning input.
    pub input_no: usize,
    /// True if the entry must be dropped.
    pub drop: bool,
}

/// `a` beats `b`: valid before exhausted, then smaller internal key,
/// then lower input index — the same user key at the same sequence is
/// taken from the earlier (newer) input first, and the tie-break keeps
/// the ordering strict on arbitrary inputs.
fn beats<S: MergeSource>(sources: &[S], a: usize, b: usize) -> bool {
    match (sources[a].valid(), sources[b].valid()) {
        (true, false) => true,
        (false, _) => false,
        (true, true) => match InternalKeyComparator.compare(sources[a].key(), sources[b].key()) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a < b,
        },
    }
}

/// N-way smallest-key selection (loser tree) with validity checking: the
/// paper's Comparer (Key Compare + Validity Check, §V-A), and the merge
/// step of every engine in the workspace.
///
/// Each selection after the first costs O(log N) comparisons. Contract:
/// between two `select` calls, only the stream returned by the previous
/// selection may have advanced — exactly how Key-Value Transfer drains
/// the winner. The tree replays just that leaf's path; violating the
/// contract yields stale selections (use a fresh merger instead).
pub struct Merger {
    filter: DropFilter,
    tree: LoserTree,
    /// Winner of the previous selection, whose leaf must be replayed.
    last_winner: Option<usize>,
    /// Selections made (for stats).
    pub selections: u64,
    /// Entries flagged invalid.
    pub dropped: u64,
}

impl Merger {
    /// Creates a merger with the given drop rules.
    pub fn new(filter: DropFilter) -> Self {
        Merger {
            filter,
            tree: LoserTree::new(0),
            last_winner: None,
            selections: 0,
            dropped: 0,
        }
    }

    /// Selects the input with the smallest current key and checks its
    /// validity. Returns `None` when every stream is exhausted.
    pub fn select<S: MergeSource>(&mut self, sources: &[S]) -> Option<Selection> {
        if self.tree.len() != sources.len() {
            // First selection (the tree starts with no players).
            self.tree = LoserTree::new(sources.len());
            self.tree.rebuild(|a, b| beats(sources, a, b));
        } else if let Some(w) = self.last_winner {
            self.tree.update(w, |a, b| beats(sources, a, b));
        }
        if sources.is_empty() {
            return None;
        }
        let input_no = self.tree.winner();
        if !sources[input_no].valid() {
            // The best stream is exhausted, so all are.
            self.last_winner = None;
            return None;
        }
        self.last_winner = Some(input_no);
        self.selections += 1;
        let drop = self.filter.should_drop(sources[input_no].key());
        if drop {
            self.dropped += 1;
        }
        Some(Selection { input_no, drop })
    }
}

/// The CPU merge: drains `sources` through one [`Merger`] into one
/// `OutputTables` writer. The first source error ends the job at once — no
/// further pair is written and the open table is never synced.
pub fn merge_sources<S: MergeSource>(
    mut sources: Vec<S>,
    req: &CompactionRequest,
    out: &dyn OutputFileFactory,
) -> Result<CompactionOutcome> {
    for source in &mut sources {
        source.advance()?;
    }
    let mut merger = Merger::new(DropFilter::new(req.smallest_snapshot, req.bottommost));
    let mut tables = OutputTables::new(&req.builder_options, req.max_output_file_size, out);
    while let Some(sel) = merger.select(&sources) {
        let source = &mut sources[sel.input_no];
        if !sel.drop {
            tables.add(source.key(), source.value())?;
        }
        source.advance()?;
    }
    let outputs = tables.finish()?;
    Ok(CompactionOutcome {
        bytes_read: req.input_bytes(),
        bytes_written: outputs.iter().map(|t| t.file_size).sum(),
        outputs,
        entries_dropped: merger.dropped,
        entries_written: merger.selections - merger.dropped,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::ikey::{InternalKey, MAX_SEQUENCE_NUMBER};

    fn ik(user: &str, seq: u64, t: ValueType) -> Vec<u8> {
        InternalKey::new(user.as_bytes(), seq, t).encoded().to_vec()
    }

    #[test]
    fn drop_filter_keeps_newest_visible_version() {
        let mut f = DropFilter::new(MAX_SEQUENCE_NUMBER, false);
        // Two versions of "a": newest kept, older shadowed.
        assert!(!f.should_drop(&ik("a", 10, ValueType::Value)));
        assert!(f.should_drop(&ik("a", 5, ValueType::Value)));
        assert!(f.should_drop(&ik("a", 1, ValueType::Value)));
        // New user key resets.
        assert!(!f.should_drop(&ik("b", 3, ValueType::Value)));
    }

    #[test]
    fn drop_filter_respects_snapshots() {
        // Snapshot at sequence 7: versions above 7 do not shadow those
        // at/below 7 until one at/below 7 is seen.
        let mut f = DropFilter::new(7, false);
        assert!(!f.should_drop(&ik("a", 10, ValueType::Value))); // visible now
        assert!(!f.should_drop(&ik("a", 6, ValueType::Value))); // visible at snapshot 7
        assert!(f.should_drop(&ik("a", 2, ValueType::Value))); // shadowed by seq 6
    }

    #[test]
    fn tombstones_dropped_only_at_bottom() {
        let mut f = DropFilter::new(MAX_SEQUENCE_NUMBER, false);
        assert!(!f.should_drop(&ik("a", 5, ValueType::Deletion)));

        let mut f = DropFilter::new(MAX_SEQUENCE_NUMBER, true);
        assert!(f.should_drop(&ik("a", 5, ValueType::Deletion)));
        // The value under the tombstone is shadowed regardless.
        assert!(f.should_drop(&ik("a", 3, ValueType::Value)));
    }

    #[test]
    fn tombstone_above_snapshot_survives_even_at_bottom() {
        let mut f = DropFilter::new(4, true);
        assert!(!f.should_drop(&ik("a", 9, ValueType::Deletion)));
        // Version visible at the snapshot survives under it.
        assert!(!f.should_drop(&ik("a", 3, ValueType::Value)));
    }
}
