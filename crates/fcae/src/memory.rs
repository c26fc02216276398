//! The host/device memory interface of the paper's §VI-B (Fig. 7 and 8).
//!
//! For each input the host lays out three regions before the DMA:
//!
//! * **Index Block Memory** — the index blocks of the input's SSTables,
//!   placed back to back;
//! * **Data Block Memory** — every data block *exactly as stored on disk*
//!   (contents + 5-byte trailer), each block padded to a `W_in`-byte
//!   boundary so the AXI reader can fetch whole beats;
//! * **MetaIn** — per-SSTable offsets of its index block and first data
//!   block, plus the SSTable count.
//!
//! Because blocks are relocated, the offsets inside index-block values no
//! longer point at the data; the Index Block Decoder instead walks blocks
//! in index order, deriving each block's aligned position from the
//! cumulative (aligned) sizes — which only requires the `size` field of
//! each handle, available in the index entries.

use std::sync::Arc;

use lsm::compaction::CompactionInput;
use sstable::format::{BlockHandle, BLOCK_TRAILER_SIZE};
use sstable::table::Table;

use crate::Result;

/// Rounds `n` up to a multiple of `align`.
#[inline]
pub fn align_up(n: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (n + align - 1) & !(align - 1)
}

/// Per-SSTable entry in MetaIn (Fig. 8): where this table's index block
/// and data blocks live within the input's memory regions.
#[derive(Debug, Clone, Copy)]
pub struct SstableMeta {
    /// Offset of the index block in Index Block Memory.
    pub index_offset: u64,
    /// Length of the index block contents.
    pub index_len: u64,
    /// Offset of the first data block in Data Block Memory.
    pub data_offset: u64,
}

/// MetaIn for one input: SSTable count + per-SSTable offsets.
#[derive(Debug, Clone, Default)]
pub struct MetaIn {
    /// Per-SSTable layout records, in key order.
    pub sstables: Vec<SstableMeta>,
}

/// One input's complete device image.
pub struct InputImage {
    /// MetaIn region.
    pub meta: MetaIn,
    /// Index Block Memory: concatenated decoded index blocks.
    pub index_memory: Vec<u8>,
    /// Data Block Memory: framed data blocks, W_in-aligned.
    pub data_memory: Vec<u8>,
    /// Raw SSTable bytes represented (for the paper's "size of input
    /// SSTables" speed metric).
    pub source_bytes: u64,
}

impl InputImage {
    /// Bytes that cross PCIe for this input (all three regions).
    pub fn transfer_bytes(&self) -> u64 {
        (self.index_memory.len()
            + self.data_memory.len()
            + self.meta.sstables.len() * std::mem::size_of::<SstableMeta>()) as u64
    }
}

/// Builds the device image for one merge input (a run of tables).
pub fn build_input_image(input: &CompactionInput, w_in: u32) -> Result<InputImage> {
    let mut image = InputImage {
        meta: MetaIn::default(),
        index_memory: Vec::new(),
        data_memory: Vec::new(),
        source_bytes: input.bytes(),
    };
    for table in &input.tables {
        append_table(&mut image, table, w_in)?;
    }
    Ok(image)
}

fn append_table(image: &mut InputImage, table: &Arc<Table>, w_in: u32) -> Result<()> {
    let index_contents = table.index_block().contents();
    let meta = SstableMeta {
        index_offset: image.index_memory.len() as u64,
        index_len: index_contents.len() as u64,
        data_offset: image.data_memory.len() as u64,
    };
    image.index_memory.extend_from_slice(index_contents);

    for handle in table.data_block_handles()? {
        let framed = table.read_raw_framed_block(&handle)?;
        image.data_memory.extend_from_slice(&framed);
        let padded = align_up(framed.len() as u64, u64::from(w_in));
        image.data_memory.resize(
            image.data_memory.len() + (padded as usize - framed.len()),
            0,
        );
    }
    image.meta.sstables.push(meta);
    Ok(())
}

/// Builds images for all inputs.
pub fn build_input_images(inputs: &[CompactionInput], w_in: u32) -> Result<Vec<InputImage>> {
    inputs.iter().map(|i| build_input_image(i, w_in)).collect()
}

/// MetaOut entry (Fig. 8): one produced SSTable's key range and size, as
/// returned to the host.
#[derive(Debug, Clone)]
pub struct MetaOutTable {
    /// Smallest internal key written.
    pub smallest: Vec<u8>,
    /// Largest internal key written.
    pub largest: Vec<u8>,
    /// Number of entries.
    pub entries: u64,
    /// Unpadded bytes of framed data blocks (= final file data section).
    pub data_bytes: u64,
}

/// One produced SSTable, device side: its (padded) data block region, the
/// index entries the Index Block Encoder emitted and the filter block the
/// Filter Block Encoder built. The host combines these into a standard
/// `.ldb` file (§V-B "the host is in charge of combining data blocks with
/// index blocks into new formatted SSTables").
pub struct OutputTableImage {
    /// Framed data blocks, W_out-aligned in device DRAM.
    pub data_memory: Vec<u8>,
    /// `(last key of block, handle)` pairs; handle offsets are cumulative
    /// *unpadded* positions, i.e. final-file offsets.
    pub index_entries: Vec<(Vec<u8>, BlockHandle)>,
    /// Filter block contents; `None` when the store writes no filters.
    pub filter_block: Option<Vec<u8>>,
    /// MetaOut record.
    pub meta: MetaOutTable,
}

impl OutputTableImage {
    /// Bytes that cross PCIe back to the host.
    pub fn transfer_bytes(&self) -> u64 {
        let index_bytes: usize = self
            .index_entries
            .iter()
            .map(|(k, _)| k.len() + BlockHandle::MAX_ENCODED_LENGTH)
            .sum();
        let filter_bytes = self.filter_block.as_ref().map_or(0, Vec::len);
        (self.data_memory.len() + index_bytes + filter_bytes) as u64
    }

    /// The framed bytes of every data block in index order, without the
    /// alignment padding between them.
    pub fn framed_blocks(&self, w_out: u32) -> impl Iterator<Item = &[u8]> {
        let mut padded_offset = 0usize;
        self.index_entries.iter().map(move |(_, h)| {
            let len = h.size as usize + BLOCK_TRAILER_SIZE;
            let framed = &self.data_memory[padded_offset..padded_offset + len];
            padded_offset = align_up((padded_offset + len) as u64, u64::from(w_out)) as usize;
            framed
        })
    }
}

/// Convenience: parse an index block region back into a
/// [`sstable::block::Block`] (used by the decoder and by tests).
pub fn index_block_from_region(
    index_memory: &[u8],
    meta: &SstableMeta,
) -> Result<sstable::block::Block> {
    let start = meta.index_offset as usize;
    let end = start + meta.index_len as usize;
    let contents = bytes::Bytes::copy_from_slice(&index_memory[start..end]);
    sstable::block::Block::new(contents).map_err(lsm::Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 8), 72);
        assert_eq!(align_up(4101, 64), 4160);
    }
}
