//! Comparer stage: Key Compare + Validity Check (paper §V-A).
//!
//! Key Compare selects the smallest internal key across the N decoded
//! streams. Validity Check inspects the selected key's mark fields: an
//! entry shadowed by a newer version of the same user key, or a deletion
//! tombstone compacting into the bottom level, is flagged `Drop`; the
//! Key-Value Transfer stage then discards its streams instead of
//! forwarding them to the Encoder. The drop rules are shared with the
//! software engine via [`lsm::compaction::DropFilter`] — by construction
//! both engines keep exactly the same entries.
//!
//! [`Comparer`] is [`lsm::compaction::Merger`] under the paper's name —
//! the one loser-tree selection every engine in the workspace runs, the
//! software analogue of the hardware comparison network: each selection
//! after the first costs O(log N) comparisons instead of an O(N) rescan.
//! Its selection sequence is property-tested against a stable sort of
//! every stream's keys; the cycle model is charged per *pair*, so the
//! software algorithm leaves timing results bit-identical.

pub use lsm::compaction::{DropFilter, Merger as Comparer, Selection};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::build_input_image;
    use lsm::compaction::{CompactionInput, MergeSource};
    use sstable::env::{MemEnv, StorageEnv};
    use sstable::ikey::{parse_internal_key, InternalKey, ValueType};
    use sstable::table::{Table, TableReadOptions};
    use sstable::table_builder::{TableBuilder, TableBuilderOptions};
    use std::path::Path;
    use std::sync::Arc;

    fn build_table(
        env: &MemEnv,
        path: &str,
        entries: &[(&str, u64, ValueType, &str)],
    ) -> Arc<Table> {
        let opts = TableBuilderOptions::default();
        let f = env.create_writable(Path::new(path)).unwrap();
        let mut b = TableBuilder::new(opts, f);
        for (k, seq, t, v) in entries {
            let key = InternalKey::new(k.as_bytes(), *seq, *t);
            b.add(key.encoded(), v.as_bytes()).unwrap();
        }
        let size = b.finish().unwrap();
        let file = env.open_random_access(Path::new(path)).unwrap();
        let read_opts = TableReadOptions::default();
        Table::open(file, size, read_opts).unwrap()
    }

    fn run_selection(
        decoders: &mut [crate::decoder::InputDecoder<'_>],
    ) -> (Vec<String>, Vec<String>, u64, u64) {
        let mut tree = Comparer::new(DropFilter::new(1000, true));
        let mut kept = Vec::new();
        let mut dropped = Vec::new();
        while let Some(sel) = tree.select(&*decoders) {
            let key = decoders[sel.input_no].key().to_vec();
            let parsed = parse_internal_key(&key).unwrap();
            let label = format!(
                "{}@{}",
                String::from_utf8_lossy(parsed.user_key),
                parsed.sequence
            );
            if sel.drop {
                dropped.push(label);
            } else {
                kept.push(label);
            }
            decoders[sel.input_no].advance().unwrap();
        }
        (kept, dropped, tree.selections, tree.dropped)
    }

    #[test]
    fn selects_global_order_and_drops_shadowed() {
        let env = MemEnv::new();
        // Newer input: a@10 (update), c@11 (delete).
        let t_new = build_table(
            &env,
            "/new",
            &[
                ("a", 10, ValueType::Value, "new-a"),
                ("c", 11, ValueType::Deletion, ""),
            ],
        );
        // Older input: a@3, b@4, c@5.
        let t_old = build_table(
            &env,
            "/old",
            &[
                ("a", 3, ValueType::Value, "old-a"),
                ("b", 4, ValueType::Value, "old-b"),
                ("c", 5, ValueType::Value, "old-c"),
            ],
        );
        let inputs = [
            CompactionInput {
                tables: vec![t_new],
            },
            CompactionInput {
                tables: vec![t_old],
            },
        ];
        let images: Vec<_> = inputs
            .iter()
            .map(|i| build_input_image(i, 64).unwrap())
            .collect();

        let mut decoders: Vec<_> = images
            .iter()
            .map(|im| crate::decoder::InputDecoder::new(im, 64))
            .collect();
        for d in &mut decoders {
            d.advance().unwrap();
        }
        // Bottom-level compaction, everything older than snapshot.
        let (kept, dropped, selections, dropped_n) = run_selection(&mut decoders);
        assert_eq!(kept, ["a@10", "b@4"]);
        // a@3 shadowed; c@11 tombstone at bottom; c@5 under tombstone.
        assert_eq!(dropped, ["a@3", "c@11", "c@5"]);
        assert_eq!(selections, 5);
        assert_eq!(dropped_n, 3);
    }
}
