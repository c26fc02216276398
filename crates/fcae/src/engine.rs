//! The engine: functional N-way merge through the decoder → comparer →
//! transfer → encoder pipeline, host-side image construction and output
//! SSTable assembly, and the timing/transfer accounting — a drop-in
//! [`lsm::CompactionEngine`].

use std::time::{Duration, Instant};

use lsm::compaction::{
    CompactionEngine, CompactionOutcome, CompactionRequest, DropFilter, OutputFileFactory,
    OutputTableMeta,
};
use lsm::sync_shim::Mutex;
use sstable::block_builder::BlockBuilder;
use sstable::bloom::BloomFilterPolicy;
use sstable::format::{frame_block_into, BlockHandle, CompressionType, Footer, BLOCK_TRAILER_SIZE};
use sstable::ikey::InternalKey;

use crate::basic_decoder::BasicInputDecoder;
use crate::comparer::Comparer;
use crate::config::FcaeConfig;
use crate::decoder::{DecoderSource, InputDecoder};
use crate::encoder::OutputEncoder;
use crate::memory::{build_input_images, OutputTableImage};
use crate::timing::PipelineModel;
use crate::Result;

/// Detailed kernel accounting for one offloaded compaction, beyond what
/// [`CompactionOutcome`] carries.
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    /// Kernel cycles at the configured clock.
    pub cycles: f64,
    /// Kernel time in seconds.
    pub kernel_time_sec: f64,
    /// Input bytes (paper's speed numerator).
    pub input_bytes: u64,
    /// The paper's compaction speed metric, MB/s.
    pub compaction_speed_mb_s: f64,
    /// Host→device bytes.
    pub bytes_to_device: u64,
    /// Device→host bytes.
    pub bytes_from_device: u64,
    /// Modeled PCIe time in seconds.
    pub pcie_time_sec: f64,
    /// Pairs the comparer examined.
    pub pairs_compared: u64,
    /// Pairs dropped by the validity check.
    pub pairs_dropped: u64,
    /// Per-module attribution of `cycles` (decoder/comparer/transfer/
    /// encoder/AXI bottleneck shares plus overhead and memory stalls).
    pub breakdown: crate::timing::ModuleBreakdown,
}

/// The simulated FPGA compaction engine.
pub struct FcaeEngine {
    config: FcaeConfig,
    /// Last kernel report, for benches that want the detail.
    last_report: Mutex<KernelReport>,
}

impl FcaeEngine {
    /// Creates an engine; panics on invalid configurations (they are
    /// programmer errors, caught in tests).
    pub fn new(config: FcaeConfig) -> Self {
        if let Err(e) = config.validate() {
            // PANIC-OK: documented contract of new(); misconfiguration is
            // a programmer error, not a runtime condition to propagate.
            panic!("invalid FCAE configuration: {e}");
        }
        FcaeEngine {
            config,
            last_report: Mutex::new(KernelReport::default()),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &FcaeConfig {
        &self.config
    }

    /// Kernel accounting of the most recent compaction.
    pub fn last_report(&self) -> KernelReport {
        self.last_report.lock().clone()
    }

    /// Runs the device pipeline over prepared images, returning the output
    /// table images plus the populated timing model. Exposed for kernel
    /// benchmarks that bypass the store; filters are built as a store with
    /// default `Options` asks for them (10 bits per user key), so the
    /// benchmarked kernel is the one that ships.
    pub fn run_kernel(
        &self,
        images: &[crate::memory::InputImage],
        smallest_snapshot: u64,
        bottommost: bool,
        compression: CompressionType,
        block_size: usize,
        table_size: u64,
    ) -> Result<(Vec<OutputTableImage>, PipelineModel, KernelReport)> {
        let encoder = self.bench_encoder(compression, block_size, table_size);
        self.run_optimized(images, smallest_snapshot, bottommost, encoder)
    }

    /// Same kernel, decoding with the **basic** (Algorithm 1) decoder
    /// instead of the optimized one. The output images must be
    /// byte-identical; only decoder-side counters differ.
    pub fn run_kernel_basic(
        &self,
        images: &[crate::memory::InputImage],
        smallest_snapshot: u64,
        bottommost: bool,
        compression: CompressionType,
        block_size: usize,
        table_size: u64,
    ) -> Result<(Vec<OutputTableImage>, PipelineModel, KernelReport)> {
        let decoders: Vec<BasicInputDecoder<'_>> = images
            .iter()
            .map(|im| BasicInputDecoder::new(im, self.config.w_in))
            .collect();
        let encoder = self.bench_encoder(compression, block_size, table_size);
        self.run_kernel_with(decoders, images, smallest_snapshot, bottommost, encoder)
    }

    /// The encoder of the store-bypassing kernel entry points.
    fn bench_encoder(
        &self,
        compression: CompressionType,
        block_size: usize,
        table_size: u64,
    ) -> OutputEncoder {
        OutputEncoder::new(block_size, table_size, self.config.w_out, compression)
            .with_filter(BloomFilterPolicy::default())
    }

    /// The kernel with the optimized decoder, encoding into `encoder`.
    fn run_optimized(
        &self,
        images: &[crate::memory::InputImage],
        smallest_snapshot: u64,
        bottommost: bool,
        encoder: OutputEncoder,
    ) -> Result<(Vec<OutputTableImage>, PipelineModel, KernelReport)> {
        let decoders: Vec<InputDecoder<'_>> = images
            .iter()
            .map(|im| InputDecoder::new(im, self.config.w_in))
            .collect();
        self.run_kernel_with(decoders, images, smallest_snapshot, bottommost, encoder)
    }

    fn run_kernel_with<S: DecoderSource>(
        &self,
        mut sources: Vec<S>,
        images: &[crate::memory::InputImage],
        smallest_snapshot: u64,
        bottommost: bool,
        mut encoder: OutputEncoder,
    ) -> Result<(Vec<OutputTableImage>, PipelineModel, KernelReport)> {
        let mut model = PipelineModel::new(self.config);
        let mut blocks_seen = vec![0u64; sources.len()];
        for (i, s) in sources.iter_mut().enumerate() {
            s.advance()?;
            charge_new_blocks(&mut model, &mut blocks_seen[i], s);
        }

        let mut comparer = Comparer::new(DropFilter::new(smallest_snapshot, bottommost));

        while let Some(sel) = comparer.select(&sources) {
            let s = &sources[sel.input_no];
            model.on_pair(s.key().len(), s.value().len(), !sel.drop);
            if !sel.drop {
                // Key-Value Transfer forwards both streams to the encoder,
                // borrowed straight out of the decoder's block buffer.
                let events = encoder.add(s.key(), s.value());
                if events.block_flushed {
                    model.on_block_flush();
                }
                if events.table_completed {
                    model.on_table_complete();
                }
            }
            let s = &mut sources[sel.input_no];
            s.advance()?;
            charge_new_blocks(&mut model, &mut blocks_seen[sel.input_no], s);
        }
        let (tables, tail) = encoder.finish();
        if tail.block_flushed {
            model.on_block_flush();
        }
        if tail.table_completed {
            model.on_table_complete();
        }

        let input_bytes: u64 = images.iter().map(|im| im.source_bytes).sum();
        let bytes_to_device: u64 = images.iter().map(|im| im.transfer_bytes()).sum();
        let bytes_from_device: u64 = tables.iter().map(|t| t.transfer_bytes()).sum();
        let pcie = &self.config.pcie;
        let pcie_time_sec = pcie.round_trip_sec(bytes_to_device + bytes_from_device);
        let report = KernelReport {
            cycles: model.cycles(),
            kernel_time_sec: model.kernel_time_sec(),
            input_bytes,
            compaction_speed_mb_s: model.compaction_speed_mb_s(input_bytes),
            bytes_to_device,
            bytes_from_device,
            pcie_time_sec,
            pairs_compared: comparer.selections,
            pairs_dropped: comparer.dropped,
            breakdown: model.breakdown(),
        };
        Ok((tables, model, report))
    }

    /// Host combine step (§V-B): writes one output image as a standard
    /// SSTable file, laid out as `TableBuilder::finish` lays it out — data
    /// blocks at their recorded offsets, the device's filter block
    /// (uncompressed, named `filter.<policy>` in the metaindex; absent
    /// without a `filter_policy`), the metaindex block, the index block,
    /// and the footer.
    pub fn assemble_table(
        image: &OutputTableImage,
        w_out: u32,
        compression: CompressionType,
        filter_policy: Option<BloomFilterPolicy>,
        file: &mut dyn sstable::env::WritableFile,
    ) -> Result<u64> {
        let mut offset = 0u64;
        for (framed, (_, handle)) in image.framed_blocks(w_out).zip(&image.index_entries) {
            debug_assert_eq!(offset, handle.offset);
            file.append(framed).map_err(lsm::Error::from)?;
            offset += framed.len() as u64;
        }

        let (mut snappy, mut scratch, mut framed) =
            (snap_codec::Encoder::new(), Vec::new(), Vec::new());
        let mut write_block = |contents: &[u8], compression| -> Result<BlockHandle> {
            framed.clear();
            let (_, len) = frame_block_into(
                contents,
                compression,
                &mut snappy,
                &mut scratch,
                &mut framed,
            );
            let handle = BlockHandle::new(offset, (len - BLOCK_TRAILER_SIZE) as u64);
            file.append(&framed).map_err(lsm::Error::from)?;
            offset += len as u64;
            Ok(handle)
        };

        let mut metaindex = BlockBuilder::new(1);
        if let (Some(policy), Some(filter)) = (filter_policy, &image.filter_block) {
            let handle = write_block(filter, CompressionType::None)?;
            metaindex.add(policy.metaindex_key().as_bytes(), &handle.encode());
        }
        let metaindex_handle = write_block(metaindex.finish(), compression)?;

        // Index block from the device's index entries.
        let mut index = BlockBuilder::new(1);
        for (key, handle) in &image.index_entries {
            index.add(key, &handle.encode());
        }
        let index_handle = write_block(index.finish(), compression)?;

        let footer = Footer {
            metaindex_handle,
            index_handle,
        };
        let bytes = footer.encode();
        file.append(&bytes).map_err(lsm::Error::from)?;
        offset += bytes.len() as u64;
        file.flush().map_err(lsm::Error::from)?;
        Ok(offset)
    }
}

/// Charges DRAM block fetches the decoder performed since the last poll.
fn charge_new_blocks<S: DecoderSource>(model: &mut PipelineModel, seen: &mut u64, s: &S) {
    while *seen < s.blocks_fetched() {
        model.on_block_fetch();
        *seen += 1;
    }
}

impl CompactionEngine for FcaeEngine {
    fn name(&self) -> &str {
        "fcae"
    }

    fn max_inputs(&self) -> usize {
        self.config.n_inputs
    }

    fn compact(
        &self,
        req: &CompactionRequest,
        out: &dyn OutputFileFactory,
    ) -> Result<CompactionOutcome> {
        // DETERMINISM-OK: host-side wall time reported *alongside* the
        // modeled device time, never fed back into the cycle model.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        if req.inputs.len() > self.config.n_inputs {
            return Err(lsm::Error::InvalidArgument(format!(
                "{} inputs exceed the engine's N={}",
                req.inputs.len(),
                self.config.n_inputs
            )));
        }

        // Host step 3-4: read SSTables into the device image and "DMA" it.
        // MetaIn crosses the boundary in its wire format (Fig. 8): encode
        // on the host side, decode on the device side.
        let mut images = build_input_images(&req.inputs, self.config.w_in)?;
        // The card's DRAM must hold the inputs plus roughly equal output
        // space (§IV step 3 allocates both before the DMA).
        let image_bytes: u64 = images.iter().map(|im| im.transfer_bytes()).sum();
        if image_bytes.saturating_mul(2) > self.config.dram_bytes {
            return Err(lsm::Error::InvalidArgument(format!(
                "compaction needs ~{} bytes of device DRAM, card has {}",
                image_bytes * 2,
                self.config.dram_bytes
            )));
        }
        for image in &mut images {
            let wire = crate::meta_wire::encode_meta_in(&image.meta);
            image.meta = crate::meta_wire::decode_meta_in(&wire)?;
        }

        // Device steps 5-7: the kernel, encoding tables as the request's
        // builder options describe them.
        let options = &req.builder_options;
        let mut encoder = OutputEncoder::new(
            options.block_size,
            req.max_output_file_size,
            self.config.w_out,
            options.compression,
        );
        if let Some(policy) = options.filter_policy {
            encoder = encoder.with_filter(policy);
        }
        let (tables, _model, report) =
            self.run_optimized(&images, req.smallest_snapshot, req.bottommost, encoder)?;

        // MetaOut returns over the same boundary (Fig. 8).
        let meta_out_wire = crate::meta_wire::encode_meta_out(tables.iter().map(|t| &t.meta));
        let metas_from_device = crate::meta_wire::decode_meta_out(&meta_out_wire)?;
        debug_assert_eq!(metas_from_device.len(), tables.len());

        // Host step 8: combine into standard SSTables on disk.
        let mut outcome = CompactionOutcome {
            bytes_read: report.input_bytes,
            entries_dropped: report.pairs_dropped,
            entries_written: report.pairs_compared - report.pairs_dropped,
            ..Default::default()
        };
        for (image, meta) in tables.iter().zip(metas_from_device) {
            let (number, mut file) = out.new_output()?;
            let file_size = Self::assemble_table(
                image,
                self.config.w_out,
                options.compression,
                options.filter_policy,
                file.as_mut(),
            )?;
            file.sync().map_err(lsm::Error::from)?;
            outcome.bytes_written += file_size;
            outcome.outputs.push(OutputTableMeta {
                number,
                file_size,
                smallest: InternalKey::from_encoded(meta.smallest),
                largest: InternalKey::from_encoded(meta.largest),
                entries: meta.entries,
            });
        }
        outcome.wall_time = start.elapsed();
        outcome.modeled_kernel_time = Some(Duration::from_secs_f64(report.kernel_time_sec));
        outcome.modeled_transfer_time = Some(Duration::from_secs_f64(report.pcie_time_sec));
        *self.last_report.lock() = report;
        Ok(outcome)
    }
}

impl Default for FcaeEngine {
    fn default() -> Self {
        FcaeEngine::new(FcaeConfig::two_input())
    }
}
