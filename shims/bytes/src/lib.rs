//! Offline stand-in for the `bytes` crate.
//!
//! The workspace only needs an immutable, cheaply-clonable byte buffer
//! (`Bytes`), so that is all this shim provides: an `Arc<[u8]>` with the
//! same constructors and `Deref`-to-slice ergonomics as the real crate.

use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable contiguous slice of memory.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes {
            data: Arc::from(data),
        }
    }

    /// Builds a `len`-byte buffer in place: the final allocation is made
    /// once, zero-filled, and lent to `fill` as `&mut [u8]` while this
    /// is its only owner — a decoder writes its output where it will
    /// stay instead of into a `Vec` that `From<Vec<u8>>` copies again.
    /// Shim-only: the published crate spells this `BytesMut` + `freeze`.
    pub fn try_init<E>(
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Bytes, E> {
        // `RepeatN` reports an exact length, so `collect` allocates the
        // `Arc<[u8]>` once and fills it; no `Vec` first.
        let mut data: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        // Not yet shared, so `get_mut` lends the bytes; were that ever
        // to fail, `fill` sees an empty slice and reports its own error.
        fill(Arc::get_mut(&mut data).unwrap_or(&mut []))?;
        Ok(Bytes { data })
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns a new `Bytes` holding a copy of the given subrange.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.data.len(),
        };
        Bytes::copy_from_slice(&self.data[start..end])
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { data: Arc::from(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Bytes {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.data
    }
}

impl std::iter::FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_slice() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        assert_eq!(&b[..], &[1, 2, 3, 4]);
        assert_eq!(b.len(), 4);
        assert_eq!(&b.slice(1..3)[..], &[2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
    }

    #[test]
    fn try_init_fills_in_place_and_passes_errors_through() {
        let b = Bytes::try_init(4, |out| {
            out.copy_from_slice(&[9, 8, 7, 6]);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(&b[..], &[9, 8, 7, 6]);
        assert_eq!(Bytes::try_init(0, |_| Ok::<(), ()>(())).unwrap().len(), 0);
        assert_eq!(Bytes::try_init(3, |_| Err("bad")), Err("bad"));
    }
}
