//! The internal iterator abstraction and the k-way merging iterator that
//! CPU compaction and reads are built on.
//!
//! The merging iterator is the software equivalent of the paper's
//! *Comparer* stage: it repeatedly selects the smallest internal key
//! across N decoded input streams.

use std::cmp::Ordering;

use crate::comparator::InternalKeyComparator;
use crate::Result;

/// A cursor over ordered key/value entries.
///
/// Unlike `std::iter::Iterator`, it is seekable and exposes borrowed
/// key/value views of the current entry, mirroring LevelDB's `Iterator`.
pub trait InternalIterator {
    /// True when positioned on an entry.
    fn valid(&self) -> bool;
    /// Positions on the first entry.
    fn seek_to_first(&mut self);
    /// Positions on the last entry.
    fn seek_to_last(&mut self);
    /// Positions on the first entry with key >= `target`.
    fn seek(&mut self, target: &[u8]);
    /// Advances; requires `valid()`.
    fn next(&mut self);
    /// Retreats; requires `valid()`.
    fn prev(&mut self);
    /// Current key; requires `valid()`.
    fn key(&self) -> &[u8];
    /// Current value; requires `valid()`.
    fn value(&self) -> &[u8];
    /// First error encountered, if any.
    fn status(&self) -> Result<()>;
}

/// Merges N child iterators over internal keys into one stream in
/// internal-key order.
///
/// Selection is a linear scan over children (LevelDB does the same for
/// its typical small N); ties between children are broken by child index,
/// so earlier (newer) sources win — the property compaction's
/// deduplication relies on.
pub struct MergingIterator {
    children: Vec<Box<dyn InternalIterator>>,
    /// Index of the child currently holding the smallest key.
    current: Option<usize>,
    /// Direction of the last movement (affects how re-seeks happen).
    forward: bool,
}

impl MergingIterator {
    /// Creates a merging iterator over `children`.
    pub fn new(children: Vec<Box<dyn InternalIterator>>) -> Self {
        MergingIterator {
            children,
            current: None,
            forward: true,
        }
    }

    fn find_smallest(&mut self) {
        let mut smallest: Option<usize> = None;
        for (i, child) in self.children.iter().enumerate() {
            if !child.valid() {
                continue;
            }
            match smallest {
                None => smallest = Some(i),
                Some(s) => {
                    if InternalKeyComparator.compare(child.key(), self.children[s].key())
                        == Ordering::Less
                    {
                        smallest = Some(i);
                    }
                }
            }
        }
        self.current = smallest;
    }

    fn find_largest(&mut self) {
        let mut largest: Option<usize> = None;
        for (i, child) in self.children.iter().enumerate() {
            if !child.valid() {
                continue;
            }
            match largest {
                None => largest = Some(i),
                Some(l) => {
                    if InternalKeyComparator.compare(child.key(), self.children[l].key())
                        != Ordering::Less
                    {
                        largest = Some(i);
                    }
                }
            }
        }
        self.current = largest;
    }
}

impl InternalIterator for MergingIterator {
    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn seek_to_first(&mut self) {
        for child in &mut self.children {
            child.seek_to_first();
        }
        self.forward = true;
        self.find_smallest();
    }

    fn seek_to_last(&mut self) {
        for child in &mut self.children {
            child.seek_to_last();
        }
        self.forward = false;
        self.find_largest();
    }

    fn seek(&mut self, target: &[u8]) {
        for child in &mut self.children {
            child.seek(target);
        }
        self.forward = true;
        self.find_smallest();
    }

    fn next(&mut self) {
        // PANIC-OK: InternalIterator contract — next() only when valid().
        let cur = self.current.expect("next on invalid merging iterator");
        if !self.forward {
            // Children other than `cur` sit at entries <= key(); move them
            // all to the first entry after the current key.
            let key = self.children[cur].key().to_vec();
            for (i, child) in self.children.iter_mut().enumerate() {
                if i == cur {
                    continue;
                }
                child.seek(&key);
                if child.valid()
                    && InternalKeyComparator.compare(child.key(), &key) == Ordering::Equal
                {
                    child.next();
                }
            }
            self.forward = true;
        }
        // PANIC-OK: current was Some at entry and is untouched above.
        self.children[self.current.unwrap()].next();
        self.find_smallest();
    }

    fn prev(&mut self) {
        // PANIC-OK: InternalIterator contract — prev() only when valid().
        let cur = self.current.expect("prev on invalid merging iterator");
        if self.forward {
            let key = self.children[cur].key().to_vec();
            for (i, child) in self.children.iter_mut().enumerate() {
                if i == cur {
                    continue;
                }
                child.seek(&key);
                if child.valid() {
                    child.prev();
                } else {
                    child.seek_to_last();
                }
            }
            self.forward = false;
        }
        // PANIC-OK: current was Some at entry and is untouched above.
        self.children[self.current.unwrap()].prev();
        self.find_largest();
    }

    fn key(&self) -> &[u8] {
        // PANIC-OK: InternalIterator contract — key() only when valid().
        self.children[self.current.expect("key on invalid iterator")].key()
    }

    fn value(&self) -> &[u8] {
        // PANIC-OK: InternalIterator contract — value() only when valid().
        self.children[self.current.expect("value on invalid iterator")].value()
    }

    fn status(&self) -> Result<()> {
        for child in &self.children {
            child.status()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ikey::{test_key as ikey, MAX_SEQUENCE_NUMBER as MAX};

    /// An iterator over an in-memory vector of (internal key, value)
    /// pairs, sorted by the caller.
    struct VecIterator {
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        /// `entries.len()` means invalid.
        pos: usize,
    }

    impl InternalIterator for VecIterator {
        fn valid(&self) -> bool {
            self.pos < self.entries.len()
        }

        fn seek_to_first(&mut self) {
            self.pos = 0;
        }

        fn seek_to_last(&mut self) {
            self.pos = self.entries.len().saturating_sub(1);
            if self.entries.is_empty() {
                self.pos = 0;
            }
        }

        fn seek(&mut self, target: &[u8]) {
            self.pos = self.entries.partition_point(|(k, _)| {
                InternalKeyComparator.compare(k, target) == Ordering::Less
            });
        }

        fn next(&mut self) {
            debug_assert!(self.valid());
            self.pos += 1;
        }

        fn prev(&mut self) {
            debug_assert!(self.valid());
            if self.pos == 0 {
                self.pos = self.entries.len();
            } else {
                self.pos -= 1;
            }
        }

        fn key(&self) -> &[u8] {
            &self.entries[self.pos].0
        }

        fn value(&self) -> &[u8] {
            &self.entries[self.pos].1
        }

        fn status(&self) -> Result<()> {
            Ok(())
        }
    }

    /// A child holding `pairs`, each user key at sequence 1.
    fn vec_iter(pairs: &[(&str, &str)]) -> Box<dyn InternalIterator> {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = pairs
            .iter()
            .map(|(k, v)| (ikey(k.as_bytes(), 1), v.as_bytes().to_vec()))
            .collect();
        let pos = entries.len();
        Box::new(VecIterator { entries, pos })
    }

    /// (user key, value) of every entry, first to last.
    fn collect_forward(it: &mut dyn InternalIterator) -> Vec<(String, String)> {
        let mut out = Vec::new();
        it.seek_to_first();
        while it.valid() {
            out.push((
                String::from_utf8(it.key()[..it.key().len() - 8].to_vec()).unwrap(),
                String::from_utf8(it.value().to_vec()).unwrap(),
            ));
            it.next();
        }
        out
    }

    #[test]
    fn merge_interleaved_sources() {
        let mut m = MergingIterator::new(vec![
            vec_iter(&[("a", "1"), ("d", "4"), ("g", "7")]),
            vec_iter(&[("b", "2"), ("e", "5")]),
            vec_iter(&[("c", "3"), ("f", "6"), ("h", "8")]),
        ]);
        let got = collect_forward(&mut m);
        let keys: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "c", "d", "e", "f", "g", "h"]);
    }

    #[test]
    fn ties_prefer_earlier_child() {
        let mut m =
            MergingIterator::new(vec![vec_iter(&[("k", "new")]), vec_iter(&[("k", "old")])]);
        m.seek_to_first();
        assert_eq!(m.value(), b"new");
        m.next();
        assert!(m.valid());
        assert_eq!(m.value(), b"old");
    }

    #[test]
    fn seek_lands_on_lower_bound() {
        let mut m = MergingIterator::new(vec![
            vec_iter(&[("a", "1"), ("e", "5")]),
            vec_iter(&[("c", "3")]),
        ]);
        m.seek(&ikey(b"b", MAX));
        assert!(m.valid());
        assert_eq!(m.key(), ikey(b"c", 1));
        m.seek(&ikey(b"e", MAX));
        assert_eq!(m.key(), ikey(b"e", 1));
        m.seek(&ikey(b"z", MAX));
        assert!(!m.valid());
        // A version older than the stored one lies past it.
        m.seek(&ikey(b"c", 0));
        assert_eq!(m.key(), ikey(b"e", 1));
    }

    #[test]
    fn empty_children_are_fine() {
        let mut m =
            MergingIterator::new(vec![vec_iter(&[]), vec_iter(&[("x", "1")]), vec_iter(&[])]);
        let got = collect_forward(&mut m);
        assert_eq!(got, [("x".to_string(), "1".to_string())]);
        let mut all_empty = MergingIterator::new(vec![vec_iter(&[])]);
        all_empty.seek_to_first();
        assert!(!all_empty.valid());
    }

    #[test]
    fn backward_scan_and_direction_switch() {
        let mut m = MergingIterator::new(vec![
            vec_iter(&[("a", "1"), ("c", "3")]),
            vec_iter(&[("b", "2"), ("d", "4")]),
        ]);
        m.seek_to_last();
        assert_eq!(m.key(), ikey(b"d", 1));
        m.prev();
        assert_eq!(m.key(), ikey(b"c", 1));
        m.prev();
        assert_eq!(m.key(), ikey(b"b", 1));
        // Switch direction: next should return to "c".
        m.next();
        assert_eq!(m.key(), ikey(b"c", 1));
        m.next();
        assert_eq!(m.key(), ikey(b"d", 1));
        m.next();
        assert!(!m.valid());
    }
}
