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
//!
//! The card's DRAM is *accounted, not allocated*. MetaIn and Index Block
//! Memory are held whole, but Data Block Memory is a block list: each
//! block's place in its table file and its aligned offset on the card.
//! Its bytes reach a decoder through a `DataWindow` of
//! [`DATA_WINDOW_BYTES`], refilled by one read of the table's next
//! whole blocks laid out at their aligned offsets — so decoder
//! addressing, block fetches, [`InputImage::transfer_bytes`], the DRAM
//! check and the cycle and PCIe models see the numbers the whole region
//! would give, while a job holds one window per input.

use std::ops::Range;
use std::sync::Arc;

use lsm::compaction::CompactionInput;
use sstable::format::{check_trailer, BlockHandle, CompressionType, BLOCK_TRAILER_SIZE};
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

/// One framed data block of Data Block Memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DataBlock {
    /// The input table (MetaIn position) the block belongs to.
    table: usize,
    /// Where the block lies in its table file.
    handle: BlockHandle,
    /// Its `W_in`-aligned offset in Data Block Memory.
    device_offset: u64,
}

impl DataBlock {
    /// Contents plus trailer.
    fn framed_len(&self) -> u64 {
        self.handle.size + BLOCK_TRAILER_SIZE as u64
    }

    /// Data Block Memory offset just past the block (before padding).
    fn device_end(&self) -> u64 {
        self.device_offset + self.framed_len()
    }
}

/// One input's device image: MetaIn and Index Block Memory whole, Data
/// Block Memory as the list of its blocks.
pub struct InputImage {
    /// MetaIn region.
    pub meta: MetaIn,
    /// Index Block Memory: concatenated decoded index blocks.
    pub index_memory: Vec<u8>,
    /// Data Block Memory as a block list, in Data Block Memory order.
    pub(crate) data_blocks: Vec<DataBlock>,
    /// Bytes Data Block Memory spans, every block padded to `W_in`.
    data_bytes: u64,
    /// Raw SSTable bytes represented (for the paper's "size of input
    /// SSTables" speed metric).
    pub source_bytes: u64,
    /// The tables the data blocks are read from, in MetaIn order.
    tables: Vec<Arc<Table>>,
}

impl InputImage {
    /// Bytes that cross PCIe for this input (all three regions).
    pub fn transfer_bytes(&self) -> u64 {
        self.index_memory.len() as u64
            + self.data_bytes
            + (self.meta.sstables.len() * std::mem::size_of::<SstableMeta>()) as u64
    }
}

/// Builds the device image for one merge input (a run of tables).
pub fn build_input_image(input: &CompactionInput, w_in: u32) -> Result<InputImage> {
    let mut image = InputImage {
        meta: MetaIn::default(),
        index_memory: Vec::new(),
        data_blocks: Vec::new(),
        data_bytes: 0,
        source_bytes: input.bytes(),
        tables: input.tables.clone(),
    };
    for (table_no, table) in input.tables.iter().enumerate() {
        let index_contents = table.index_block().contents();
        image.meta.sstables.push(SstableMeta {
            index_offset: image.index_memory.len() as u64,
            index_len: index_contents.len() as u64,
            data_offset: image.data_bytes,
        });
        image.index_memory.extend_from_slice(index_contents);
        for handle in table.data_block_handles()? {
            let framed = handle.framed_len_within(table.file_size())?;
            image.data_blocks.push(DataBlock {
                table: table_no,
                handle,
                device_offset: image.data_bytes,
            });
            image.data_bytes = align_up(image.data_bytes + framed as u64, u64::from(w_in));
        }
    }
    Ok(image)
}

/// Builds images for all inputs.
pub fn build_input_images(inputs: &[CompactionInput], w_in: u32) -> Result<Vec<InputImage>> {
    inputs.iter().map(|i| build_input_image(i, w_in)).collect()
}

/// Bytes of Data Block Memory a decoder's read window holds: one read of
/// a table's consecutive blocks refills it.
pub const DATA_WINDOW_BYTES: usize = 256 << 10;

/// A decoder's window onto its input's Data Block Memory: the bytes of
/// up to [`DATA_WINDOW_BYTES`] of consecutive blocks at their aligned
/// offsets (one block when a single block is larger), and the data cursor
/// — the aligned offset of the next block the decoder fetches.
pub(crate) struct DataWindow {
    buf: Vec<u8>,
    /// Data Block Memory offset of `buf[0]`.
    start: u64,
    cursor: u64,
    w_in: u32,
}

impl DataWindow {
    /// An empty window over Data Block Memory laid out at `w_in` bytes.
    pub(crate) fn new(w_in: u32) -> Self {
        DataWindow {
            buf: Vec::new(),
            start: 0,
            cursor: 0,
            w_in,
        }
    }

    /// Points the data cursor at a table's first data block (its MetaIn
    /// `data_offset`).
    pub(crate) fn seek(&mut self, data_offset: u64) {
        self.cursor = data_offset;
    }

    /// The window's bytes; [`DataWindow::next_block`] ranges index into
    /// them.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Fetches the block `handle` (its index entry) names at the data
    /// cursor, refilling the window from `image`'s tables when the block
    /// is not in it, checks the block's CRC and moves the cursor to the
    /// next aligned block. Returns where the block's contents lie in
    /// [`DataWindow::bytes`] and how they are compressed.
    pub(crate) fn next_block(
        &mut self,
        image: &InputImage,
        handle: &BlockHandle,
    ) -> Result<(Range<usize>, CompressionType)> {
        let offset = self.cursor;
        let len = handle.size.saturating_add(BLOCK_TRAILER_SIZE as u64);
        if !self.holds(offset, len) {
            self.fill(image, offset)?;
            if !self.holds(offset, len) {
                return Err(corruption(format!(
                    "data block at {offset} (+{len}) exceeds data memory ({})",
                    image.data_bytes
                )));
            }
        }
        self.cursor = align_up(offset + len, u64::from(self.w_in));
        let start = (offset - self.start) as usize;
        let n = handle.size as usize;
        let (_, compression) = check_trailer(&self.buf[start..start + n + BLOCK_TRAILER_SIZE])?;
        Ok((start..start + n, compression))
    }

    fn holds(&self, offset: u64, len: u64) -> bool {
        offset >= self.start
            && offset
                .checked_add(len)
                .is_some_and(|end| end <= self.start + self.buf.len() as u64)
    }

    /// Refills the window with the block at `offset` and the blocks after
    /// it that are stored next to it in the same table and end within the
    /// window: one read, then each block moved (last first, so none is
    /// overwritten before it moves) to its aligned place, zero-padded.
    fn fill(&mut self, image: &InputImage, offset: u64) -> Result<()> {
        let blocks = &image.data_blocks;
        let first = blocks.partition_point(|b| b.device_offset < offset);
        let head = match blocks.get(first) {
            Some(b) if b.device_offset == offset => *b,
            _ => {
                return Err(corruption(format!(
                    "no data block at {offset} in data memory ({})",
                    image.data_bytes
                )))
            }
        };
        let mut last = first;
        while let Some(next) = blocks.get(last + 1) {
            let prev = &blocks[last];
            if next.table != head.table
                || next.handle.offset != prev.handle.offset + prev.framed_len()
                || next.device_end() - offset > DATA_WINDOW_BYTES as u64
            {
                break;
            }
            last += 1;
        }
        let window_len = (blocks[last].device_end() - offset) as usize;
        self.buf.clear();
        self.buf.reserve(window_len.max(DATA_WINDOW_BYTES));
        image.tables[head.table].read_blocks(&head.handle, &blocks[last].handle, &mut self.buf)?;
        self.buf.resize(window_len, 0);
        let mut end = window_len;
        for b in blocks[first..=last].iter().rev() {
            let src = (b.handle.offset - head.handle.offset) as usize;
            let dst = (b.device_offset - offset) as usize;
            let len = b.framed_len() as usize;
            self.buf.copy_within(src..src + len, dst);
            self.buf[dst + len..end].fill(0);
            end = dst;
        }
        self.start = offset;
        Ok(())
    }
}

fn corruption(msg: String) -> lsm::Error {
    lsm::Error::Corruption(msg)
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

/// Parses the index block a MetaIn record names in Index Block Memory.
/// A record naming bytes outside the region is corruption: MetaIn
/// crosses the PCIe boundary, and the decoder trusts nothing that does.
pub fn index_block_from_region(
    index_memory: &[u8],
    meta: &SstableMeta,
) -> Result<sstable::block::Block> {
    let region = usize::try_from(meta.index_offset)
        .ok()
        .zip(usize::try_from(meta.index_len).ok())
        .and_then(|(start, len)| Some(start..start.checked_add(len)?))
        .and_then(|range| index_memory.get(range))
        .ok_or_else(|| {
            corruption(format!(
                "index block at {} (+{}) exceeds index memory ({})",
                meta.index_offset,
                meta.index_len,
                index_memory.len()
            ))
        })?;
    sstable::block::Block::new(region.into()).map_err(lsm::Error::from)
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

    /// Index Block Memory of 64 bytes holding whatever `index_offset` and
    /// `index_len` a MetaIn record off the wire names.
    fn index_region(index_offset: u64, index_len: u64) -> Result<sstable::block::Block> {
        let meta = SstableMeta {
            index_offset,
            index_len,
            data_offset: 0,
        };
        index_block_from_region(&[0u8; 64], &meta)
    }

    #[test]
    fn a_meta_in_record_past_index_memory_is_corruption() {
        assert!(matches!(
            index_region(40, 32),
            Err(lsm::Error::Corruption(_))
        ));
        assert!(matches!(
            index_region(65, 0),
            Err(lsm::Error::Corruption(_))
        ));
    }

    #[test]
    fn a_meta_in_record_whose_end_overflows_is_corruption() {
        assert!(matches!(
            index_region(8, u64::MAX),
            Err(lsm::Error::Corruption(_))
        ));
        assert!(matches!(
            index_region(u64::MAX, 1),
            Err(lsm::Error::Corruption(_))
        ));
    }
}
