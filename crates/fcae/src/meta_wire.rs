//! Byte-level wire format for MetaIn / MetaOut (paper Fig. 8).
//!
//! The paper specifies these as raw memory regions the host and device
//! exchange, not as host data structures; this module provides the
//! encoding used across the simulated PCIe boundary, so the "device" side
//! parses exactly what the host laid out.
//!
//! ```text
//! MetaIn  region:  u32 sstable_count
//!                  per sstable: u64 index_offset | u64 index_len |
//!                               u64 data_offset
//! MetaOut region:  u32 table_count
//!                  per table:   u64 data_bytes | u64 entries |
//!                               u32 smallest_len | smallest bytes |
//!                               u32 largest_len  | largest bytes
//! ```
//!
//! All integers little-endian, matching the AXI bus convention.

use crate::memory::{MetaIn, MetaOutTable, SstableMeta};
use crate::Result;

fn corruption(msg: &str) -> lsm::Error {
    lsm::Error::Corruption(format!("meta region: {msg}"))
}

fn take<'a>(src: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
    if src.len() < n {
        return Err(corruption(what));
    }
    let (head, rest) = src.split_at(n);
    *src = rest;
    Ok(head)
}

fn read_u32(src: &mut &[u8], what: &str) -> Result<u32> {
    Ok(u32::from_le_bytes(
        // PANIC-OK: take() returned exactly 4 bytes or erred already.
        take(src, 4, what)?.try_into().expect("4 bytes"),
    ))
}

fn read_u64(src: &mut &[u8], what: &str) -> Result<u64> {
    Ok(u64::from_le_bytes(
        // PANIC-OK: take() returned exactly 8 bytes or erred already.
        take(src, 8, what)?.try_into().expect("8 bytes"),
    ))
}

/// A length-prefixed internal key: a user key and its 8-byte trailer. A
/// shorter one is corruption, not a key the host can order.
fn read_key(src: &mut &[u8], what: &str) -> Result<Vec<u8>> {
    let len = read_u32(src, what)? as usize;
    match take(src, len, what)? {
        key if key.len() >= 8 => Ok(key.to_vec()),
        _ => Err(corruption(&format!("{what} of {len} bytes"))),
    }
}

/// Encodes a MetaIn region.
pub fn encode_meta_in(meta: &MetaIn) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + meta.sstables.len() * 24);
    out.extend_from_slice(&(meta.sstables.len() as u32).to_le_bytes());
    for s in &meta.sstables {
        out.extend_from_slice(&s.index_offset.to_le_bytes());
        out.extend_from_slice(&s.index_len.to_le_bytes());
        out.extend_from_slice(&s.data_offset.to_le_bytes());
    }
    out
}

/// Decodes a MetaIn region.
pub fn decode_meta_in(mut src: &[u8]) -> Result<MetaIn> {
    let count = read_u32(&mut src, "sstable count")? as usize;
    // A device image never holds more tables than fit in its DRAM.
    if count > 1 << 20 {
        return Err(corruption("implausible sstable count"));
    }
    let mut sstables = Vec::with_capacity(count);
    for _ in 0..count {
        sstables.push(SstableMeta {
            index_offset: read_u64(&mut src, "index offset")?,
            index_len: read_u64(&mut src, "index len")?,
            data_offset: read_u64(&mut src, "data offset")?,
        });
    }
    if !src.is_empty() {
        return Err(corruption("trailing bytes"));
    }
    Ok(MetaIn { sstables })
}

/// Encodes a MetaOut region. Accepts any borrowing iterator (e.g.
/// `tables.iter().map(|t| &t.meta)`) so callers need not clone metas
/// into a temporary slice.
pub fn encode_meta_out<'a, I>(tables: I) -> Vec<u8>
where
    I: IntoIterator<Item = &'a MetaOutTable>,
    I::IntoIter: ExactSizeIterator,
{
    let tables = tables.into_iter();
    let mut out = Vec::new();
    out.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for t in tables {
        out.extend_from_slice(&t.data_bytes.to_le_bytes());
        out.extend_from_slice(&t.entries.to_le_bytes());
        out.extend_from_slice(&(t.smallest.len() as u32).to_le_bytes());
        out.extend_from_slice(&t.smallest);
        out.extend_from_slice(&(t.largest.len() as u32).to_le_bytes());
        out.extend_from_slice(&t.largest);
    }
    out
}

/// Decodes a MetaOut region. Its keys are internal keys: one shorter
/// than its trailer is corruption.
pub fn decode_meta_out(mut src: &[u8]) -> Result<Vec<MetaOutTable>> {
    let count = read_u32(&mut src, "table count")? as usize;
    if count > 1 << 20 {
        return Err(corruption("implausible table count"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let data_bytes = read_u64(&mut src, "data bytes")?;
        let entries = read_u64(&mut src, "entries")?;
        out.push(MetaOutTable {
            smallest: read_key(&mut src, "smallest key")?,
            largest: read_key(&mut src, "largest key")?,
            entries,
            data_bytes,
        });
    }
    if !src.is_empty() {
        return Err(corruption("trailing bytes"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstable::ikey::{InternalKey, ValueType};

    fn ikey(user_key: &[u8]) -> Vec<u8> {
        InternalKey::new(user_key, 1, ValueType::Value)
            .encoded()
            .to_vec()
    }

    fn sample_in() -> MetaIn {
        MetaIn {
            sstables: vec![
                SstableMeta {
                    index_offset: 0,
                    index_len: 512,
                    data_offset: 0,
                },
                SstableMeta {
                    index_offset: 512,
                    index_len: 4096,
                    data_offset: 65536,
                },
            ],
        }
    }

    #[test]
    fn meta_in_roundtrip() {
        let m = sample_in();
        let enc = encode_meta_in(&m);
        let dec = decode_meta_in(&enc).unwrap();
        assert_eq!(dec.sstables.len(), 2);
        assert_eq!(dec.sstables[1].index_len, 4096);
        assert_eq!(dec.sstables[1].data_offset, 65536);

        let empty = decode_meta_in(&encode_meta_in(&MetaIn::default())).unwrap();
        assert!(empty.sstables.is_empty());
    }

    #[test]
    fn meta_out_roundtrip() {
        let tables = vec![
            MetaOutTable {
                smallest: ikey(b"aaa"),
                largest: ikey(b"mmm"),
                entries: 1000,
                data_bytes: 2 << 20,
            },
            MetaOutTable {
                smallest: ikey(b"n"),
                largest: vec![0xffu8; 300],
                entries: 7,
                data_bytes: 4096,
            },
        ];
        let dec = decode_meta_out(&encode_meta_out(&tables)).unwrap();
        assert_eq!(dec.len(), 2);
        assert_eq!(dec[0].entries, 1000);
        assert_eq!(dec[1].largest.len(), 300);
    }

    #[test]
    fn truncation_is_detected() {
        let enc = encode_meta_in(&sample_in());
        for cut in 0..enc.len() {
            assert!(decode_meta_in(&enc[..cut]).is_err(), "cut {cut}");
        }
        let tables = vec![MetaOutTable {
            smallest: ikey(b"k"),
            largest: ikey(b"z"),
            entries: 1,
            data_bytes: 10,
        }];
        let enc = encode_meta_out(&tables);
        for cut in 0..enc.len() {
            assert!(decode_meta_out(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn a_meta_out_key_shorter_than_its_trailer_is_corruption() {
        let short = |smallest: &[u8], largest: &[u8]| {
            let tables = [MetaOutTable {
                smallest: smallest.to_vec(),
                largest: largest.to_vec(),
                entries: 1,
                data_bytes: 10,
            }];
            decode_meta_out(&encode_meta_out(&tables))
        };
        assert!(matches!(
            short(b"abc", &ikey(b"z")),
            Err(lsm::Error::Corruption(_))
        ));
        assert!(matches!(
            short(&ikey(b"a"), &[0u8; 7]),
            Err(lsm::Error::Corruption(_))
        ));
        assert!(short(&[0u8; 8], &ikey(b"z")).is_ok());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = encode_meta_in(&sample_in());
        enc.push(0);
        assert!(decode_meta_in(&enc).is_err());
    }

    #[test]
    fn implausible_counts_rejected() {
        let mut enc = Vec::new();
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_meta_in(&enc).is_err());
        assert!(decode_meta_out(&enc).is_err());
    }
}
