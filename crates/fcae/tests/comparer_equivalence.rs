//! Property test for the loser-tree Comparer: on arbitrary N-way merges —
//! duplicate user keys across streams, tombstones, exhausted and empty
//! streams — the O(log N) tree must produce exactly the selection sequence
//! of a stable sort of every stream's keys, concatenated in input order
//! (so equal keys go to the lower input first), with the drop rules
//! applied in that order: drop decisions and stats included.

use fcae::comparer::{Comparer, DropFilter};
use fcae::decoder::MergeSource;
use proptest::prelude::*;
use sstable::comparator::InternalKeyComparator;
use sstable::ikey::{InternalKey, ValueType};

/// In-memory merge stream: a sorted run of encoded internal keys.
#[derive(Clone)]
struct VecSource {
    entries: Vec<Vec<u8>>,
    pos: usize,
}

impl MergeSource for VecSource {
    fn advance(&mut self) -> fcae::Result<bool> {
        self.pos += 1;
        Ok(self.pos < self.entries.len())
    }

    fn valid(&self) -> bool {
        self.pos < self.entries.len()
    }

    fn key(&self) -> &[u8] {
        &self.entries[self.pos]
    }

    fn value(&self) -> &[u8] {
        b"v"
    }
}

/// One raw entry: (user-key id, sequence, is-deletion).
type RawEntry = (u8, u64, bool);

fn streams_strategy() -> impl Strategy<Value = Vec<Vec<RawEntry>>> {
    // 1..=8 streams, each 0..=24 entries drawn from a small user-key
    // alphabet so duplicates across (and within) streams are common.
    prop::collection::vec(
        prop::collection::vec((0u8..12, 0u64..64, any::<bool>()), 0..=24),
        1..=8,
    )
}

fn build_sources(raw: &[Vec<RawEntry>]) -> Vec<VecSource> {
    let icmp = InternalKeyComparator;
    raw.iter()
        .map(|entries| {
            let mut keys: Vec<Vec<u8>> = entries
                .iter()
                .map(|&(uk, seq, del)| {
                    let t = if del {
                        ValueType::Deletion
                    } else {
                        ValueType::Value
                    };
                    InternalKey::new(format!("key{uk:02}").as_bytes(), seq, t)
                        .encoded()
                        .to_vec()
                })
                .collect();
            keys.sort_by(|a, b| icmp.compare(a, b));
            VecSource {
                entries: keys,
                pos: 0,
            }
        })
        .collect()
}

/// A selection: (input, dropped, key).
type Trace = Vec<(usize, bool, Vec<u8>)>;

/// Drains the sources through the tree, advancing only the winner —
/// exactly the Key-Value Transfer discipline the tree's contract requires.
fn drain(mut sources: Vec<VecSource>, tree: &mut Comparer) -> Trace {
    let mut trace = Vec::new();
    while let Some(sel) = tree.select(&sources) {
        trace.push((sel.input_no, sel.drop, sources[sel.input_no].key().to_vec()));
        sources[sel.input_no].advance().unwrap();
    }
    trace
}

/// The oracle: every stream's keys in input order, stably sorted, then
/// the drop rules in that order. Returns the trace and the drop count.
fn sorted(sources: Vec<VecSource>, mut filter: DropFilter) -> (Trace, u64) {
    let mut keys: Vec<(usize, Vec<u8>)> = sources
        .into_iter()
        .enumerate()
        .flat_map(|(i, s)| s.entries.into_iter().map(move |k| (i, k)))
        .collect();
    keys.sort_by(|a, b| InternalKeyComparator.compare(&a.1, &b.1));
    let trace: Trace = keys
        .into_iter()
        .map(|(i, k)| (i, filter.should_drop(&k), k))
        .collect();
    let dropped = trace.iter().filter(|t| t.1).count() as u64;
    (trace, dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tree_matches_a_stable_sort(
        raw in streams_strategy(),
        snapshot in 0u64..80,
        bottommost in any::<bool>(),
    ) {
        let filter = DropFilter::new(snapshot, bottommost);

        let mut tree = Comparer::new(filter.clone());
        let tree_trace = drain(build_sources(&raw), &mut tree);

        let (sorted_trace, sorted_dropped) = sorted(build_sources(&raw), filter);

        prop_assert_eq!(&tree_trace, &sorted_trace);
        prop_assert_eq!(tree.selections, sorted_trace.len() as u64);
        prop_assert_eq!(tree.dropped, sorted_dropped);
        let total: usize = raw.iter().map(|s| s.len()).sum();
        prop_assert_eq!(tree_trace.len(), total, "every entry selected exactly once");
    }
}
