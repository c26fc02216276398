//! Property tests for the skiplist memtable: it must agree with a
//! reference `BTreeMap` keyed by (user key, reverse sequence) under
//! arbitrary insert sequences, for point lookups at arbitrary snapshots
//! and for iteration: full walks, bounded seek-then-walk, and arbitrary
//! cursor movement (both directions).

use std::collections::BTreeMap;
use std::sync::Arc;

use lsm::memtable::{MemGet, MemTable};
use proptest::prelude::*;
use sstable::comparator::InternalKeyComparator;
use sstable::ikey::{
    append_internal_key, parse_internal_key, LookupKey, ValueType, MAX_SEQUENCE_NUMBER,
};
use sstable::iterator::InternalIterator;

#[derive(Debug, Clone)]
struct Ins {
    key_id: u8,
    delete: bool,
    value: Vec<u8>,
}

fn inserts() -> impl Strategy<Value = Vec<Ins>> {
    proptest::collection::vec(
        (
            0u8..20,
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..40),
        )
            .prop_map(|(key_id, delete, value)| Ins {
                key_id,
                delete,
                value,
            }),
        1..200,
    )
}

fn user_key(id: u8) -> Vec<u8> {
    format!("key{id:03}").into_bytes()
}

#[derive(Debug, Clone, Copy)]
enum Move {
    First,
    Last,
    /// Seek to (user key id, sequence).
    Seek(u8, u64),
    Next,
    Prev,
}

fn cursor_move() -> impl Strategy<Value = Move> {
    prop_oneof![
        1 => Just(Move::First),
        1 => Just(Move::Last),
        2 => (0u8..21, 0u64..220).prop_map(|(k, s)| Move::Seek(k, s)),
        4 => Just(Move::Next),
        4 => Just(Move::Prev),
    ]
}

/// `(internal key, value)` pairs in internal-key order.
type Model = Vec<(Vec<u8>, Vec<u8>)>;

/// Inserts `ops` (sequence = position + 1) into a memtable; returns it
/// with the model of its contents.
fn build(ops: &[Ins]) -> (Arc<MemTable>, Model) {
    let mem = MemTable::new(InternalKeyComparator);
    let mut model = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let ty = if op.delete {
            ValueType::Deletion
        } else {
            ValueType::Value
        };
        let uk = user_key(op.key_id);
        mem.add(i as u64 + 1, ty, &uk, &op.value);
        let mut ik = Vec::new();
        append_internal_key(&mut ik, &uk, i as u64 + 1, ty);
        model.push((ik, op.value.clone()));
    }
    model.sort_by(|a, b| InternalKeyComparator.compare(&a.0, &b.0));
    (Arc::new(mem), model)
}

/// history[key] = Vec<(seq, Option<value>)>, newest last.
type History = BTreeMap<Vec<u8>, Vec<(u64, Option<Vec<u8>>)>>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Point lookups at every snapshot agree with the reference history.
    #[test]
    fn get_matches_reference(ops in inserts(), probe_seqs in proptest::collection::vec(0u64..260, 1..12)) {
        let mem = MemTable::new(InternalKeyComparator);
        let mut history: History = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            let seq = i as u64 + 1;
            let uk = user_key(op.key_id);
            if op.delete {
                mem.add(seq, ValueType::Deletion, &uk, &[]);
                history.entry(uk).or_default().push((seq, None));
            } else {
                mem.add(seq, ValueType::Value, &uk, &op.value);
                history.entry(uk).or_default().push((seq, Some(op.value.clone())));
            }
        }

        for &snap in &probe_seqs {
            for id in 0u8..20 {
                let uk = user_key(id);
                let expected = history
                    .get(&uk)
                    .and_then(|h| h.iter().rev().find(|(s, _)| *s <= snap))
                    .map(|(_, v)| v.clone());
                let got = mem.get(&LookupKey::new(&uk, snap));
                match (expected, got) {
                    (None, MemGet::NotFound) => {}
                    (Some(None), MemGet::Deleted) => {}
                    (Some(Some(v)), MemGet::Value(g)) => prop_assert_eq!(v, g),
                    (e, g) => prop_assert!(
                        false,
                        "key {id} snap {snap}: expected {e:?}, got {g:?}"
                    ),
                }
            }
        }
    }

    /// Iteration yields internal keys in exact comparator order, covering
    /// every inserted entry.
    #[test]
    fn iteration_is_sorted_and_complete(ops in inserts()) {
        let mem = MemTable::new(InternalKeyComparator);
        for (i, op) in ops.iter().enumerate() {
            let ty = if op.delete { ValueType::Deletion } else { ValueType::Value };
            mem.add(i as u64 + 1, ty, &user_key(op.key_id), &op.value);
        }
        let mem = Arc::new(mem);
        let mut it = mem.iter();
        it.seek_to_first();
        let mut count = 0usize;
        let mut last: Option<(Vec<u8>, u64)> = None;
        while it.valid() {
            let p = parse_internal_key(it.key()).unwrap();
            if let Some((lk, ls)) = &last {
                // user key ascending; same user key -> seq descending.
                let cur = (p.user_key.to_vec(), p.sequence);
                prop_assert!(
                    lk < &cur.0 || (lk == &cur.0 && *ls > cur.1),
                    "order violated: ({lk:?},{ls}) then {cur:?}"
                );
            }
            last = Some((p.user_key.to_vec(), p.sequence));
            count += 1;
            it.next();
        }
        prop_assert_eq!(count, ops.len());
    }

    /// Seeking to a user key and walking to an end bound yields exactly
    /// the model's entries inside `[start, end)`, in model order.
    #[test]
    fn seek_then_walk_matches_model(
        ops in inserts(),
        lo in 0u8..20,
        span in 1u8..10,
    ) {
        let (mem, model) = build(&ops);
        let start = user_key(lo);
        let end = user_key(lo.saturating_add(span));
        let mut it = mem.iter();
        it.seek(LookupKey::new(&start, MAX_SEQUENCE_NUMBER).internal_key());
        let mut got = Vec::new();
        while it.valid() && parse_internal_key(it.key()).unwrap().user_key < &end[..] {
            got.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        let expected: Vec<_> = model
            .iter()
            .filter(|(ik, _)| {
                let uk = parse_internal_key(ik).unwrap().user_key;
                uk >= &start[..] && uk < &end[..]
            })
            .cloned()
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Any mix of seek / seek_to_first / seek_to_last / next / prev —
    /// direction switches included — tracks an index into the model.
    #[test]
    fn cursor_moves_match_model(
        ops in inserts(),
        moves in proptest::collection::vec(cursor_move(), 1..80),
    ) {
        let (mem, model) = build(&ops);
        let mut it = mem.iter();
        // `model.len()` stands for "not valid".
        let mut pos = model.len();
        for mv in &moves {
            match *mv {
                Move::First => {
                    it.seek_to_first();
                    pos = 0;
                }
                Move::Last => {
                    it.seek_to_last();
                    pos = model.len() - 1;
                }
                Move::Seek(key_id, seq) => {
                    let lk = LookupKey::new(&user_key(key_id), seq);
                    it.seek(lk.internal_key());
                    pos = model.partition_point(|(ik, _)| {
                        InternalKeyComparator.compare(ik, lk.internal_key())
                            == std::cmp::Ordering::Less
                    });
                }
                // Stepping an invalid iterator is a contract violation.
                Move::Next | Move::Prev if pos == model.len() => continue,
                Move::Next => {
                    it.next();
                    pos += 1;
                }
                Move::Prev => {
                    it.prev();
                    pos = pos.checked_sub(1).unwrap_or(model.len());
                }
            }
            prop_assert_eq!(it.valid(), pos < model.len(), "after {:?}", mv);
            if it.valid() {
                prop_assert_eq!(it.key(), &model[pos].0[..], "after {:?}", mv);
                prop_assert_eq!(it.value(), &model[pos].1[..], "after {:?}", mv);
            }
        }
    }
}
