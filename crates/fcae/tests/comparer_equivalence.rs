//! Property test for the loser-tree Comparer: on arbitrary N-way merges —
//! duplicate user keys across streams, tombstones, exhausted and empty
//! streams — the O(log N) tree must produce exactly the selection sequence
//! of the O(N) linear rescan, including drop decisions and stats.

use fcae::comparer::{Comparer, DropFilter, LinearComparer};
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

/// Drains the sources through a comparer, advancing only the winner —
/// exactly the Key-Value Transfer discipline the tree's contract requires.
/// Returns (selection trace, selections, dropped).
fn drain<C>(mut sources: Vec<VecSource>, mut select: C) -> Vec<(usize, bool, Vec<u8>)>
where
    C: FnMut(&[VecSource]) -> Option<fcae::comparer::Selection>,
{
    let mut trace = Vec::new();
    while let Some(sel) = select(&sources) {
        trace.push((sel.input_no, sel.drop, sources[sel.input_no].key().to_vec()));
        sources[sel.input_no].advance().unwrap();
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tree_matches_linear_comparer(
        raw in streams_strategy(),
        snapshot in 0u64..80,
        bottommost in any::<bool>(),
    ) {
        let filter = DropFilter::new(snapshot, bottommost);

        let mut tree = Comparer::new(filter.clone());
        let tree_trace = drain(build_sources(&raw), |s| tree.select(s));

        let mut linear = LinearComparer::new(filter);
        let linear_trace = drain(build_sources(&raw), |s| linear.select(s));

        prop_assert_eq!(&tree_trace, &linear_trace);
        prop_assert_eq!(tree.selections, linear.selections);
        prop_assert_eq!(tree.dropped, linear.dropped);
        let total: usize = raw.iter().map(|s| s.len()).sum();
        prop_assert_eq!(tree_trace.len(), total, "every entry selected exactly once");
    }
}
