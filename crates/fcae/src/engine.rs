//! The engine: functional N-way merge through the decoder → comparer →
//! transfer → encoder pipeline, host-side image construction and output
//! SSTable assembly, and the timing/transfer accounting — a drop-in
//! [`lsm::CompactionEngine`].
//!
//! A job holds a window, not the job: the card's DRAM is accounted, not
//! allocated ([`crate::memory`]). Host steps 3–4 stage MetaIn and Index
//! Block Memory up front and each input's data blocks one read window at
//! a time as its decoder reaches them; host step 8 runs per output table,
//! as soon as the encoder completes it. So an engine job holds one window
//! per input plus the one output table being encoded, while the DRAM
//! check, block fetches and PCIe bytes are those of the whole images.

use std::time::{Duration, Instant};

use lsm::compaction::{
    CompactionEngine, CompactionOutcome, CompactionRequest, DropFilter, OutputFileFactory,
    OutputTableMeta,
};
use lsm::sync_shim::Mutex;
use sstable::bloom::BloomFilterPolicy;
use sstable::format::CompressionType;
use sstable::ikey::InternalKey;
use sstable::table_builder::TableWriter;

use crate::comparer::Comparer;
use crate::config::FcaeConfig;
use crate::decoder::{InputDecoder, MergeSource};
use crate::encoder::OutputEncoder;
use crate::memory::{build_input_images, InputImage, OutputTableImage};
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
        images: &[InputImage],
        smallest_snapshot: u64,
        bottommost: bool,
        compression: CompressionType,
        block_size: usize,
        table_size: u64,
    ) -> Result<(Vec<OutputTableImage>, PipelineModel, KernelReport)> {
        let encoder = self.bench_encoder(compression, block_size, table_size);
        collect_tables(|sink| {
            self.run_kernel_with(images, smallest_snapshot, bottommost, encoder, sink)
        })
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

    /// The kernel proper: one decoder per input image, encoding into
    /// `encoder`. Each output table goes to `sink` as soon as the encoder
    /// completes it, so the job holds one output table at a time.
    fn run_kernel_with(
        &self,
        images: &[InputImage],
        smallest_snapshot: u64,
        bottommost: bool,
        mut encoder: OutputEncoder,
        sink: &mut dyn FnMut(OutputTableImage) -> Result<()>,
    ) -> Result<(PipelineModel, KernelReport)> {
        let mut model = PipelineModel::new(self.config);
        let mut sources: Vec<InputDecoder<'_>> = images
            .iter()
            .map(|im| InputDecoder::new(im, self.config.w_in))
            .collect();
        let mut blocks_seen = vec![0u64; sources.len()];
        for (i, s) in sources.iter_mut().enumerate() {
            s.advance()?;
            charge_new_blocks(&mut model, &mut blocks_seen[i], s);
        }

        let mut comparer = Comparer::new(DropFilter::new(smallest_snapshot, bottommost));
        let mut bytes_from_device = 0u64;
        let mut ship = |table: OutputTableImage| {
            bytes_from_device += table.transfer_bytes();
            sink(table)
        };

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
                    encoder.drain_completed().try_for_each(&mut ship)?;
                }
            }
            let s = &mut sources[sel.input_no];
            s.advance()?;
            charge_new_blocks(&mut model, &mut blocks_seen[sel.input_no], s);
        }
        let (tail_tables, tail) = encoder.finish();
        if tail.block_flushed {
            model.on_block_flush();
        }
        if tail.table_completed {
            model.on_table_complete();
        }
        tail_tables.into_iter().try_for_each(&mut ship)?;

        let input_bytes: u64 = images.iter().map(|im| im.source_bytes).sum();
        let bytes_to_device: u64 = images.iter().map(|im| im.transfer_bytes()).sum();
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
        Ok((model, report))
    }
}

/// Runs `kernel` with a sink that keeps every table.
fn collect_tables(
    kernel: impl FnOnce(
        &mut dyn FnMut(OutputTableImage) -> Result<()>,
    ) -> Result<(PipelineModel, KernelReport)>,
) -> Result<(Vec<OutputTableImage>, PipelineModel, KernelReport)> {
    let mut tables = Vec::new();
    let (model, report) = kernel(&mut |t| {
        tables.push(t);
        Ok(())
    })?;
    Ok((tables, model, report))
}

/// Charges DRAM block fetches the decoder performed since the last poll.
fn charge_new_blocks(model: &mut PipelineModel, seen: &mut u64, dec: &InputDecoder<'_>) {
    while *seen < dec.stats.blocks_fetched {
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

        // Host steps 3-4: lay out the device image and "DMA" it. MetaIn
        // and Index Block Memory cross whole, MetaIn in its wire format
        // (Fig. 8): encode on the host side, decode on the device side.
        // Data blocks cross a read window at a time as the decoders
        // reach them.
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
        let mut outcome = CompactionOutcome::default();
        // Host step 8, once per table as the kernel completes it: its
        // MetaOut record returns over the same boundary (Fig. 8), then
        // the host combines it into a standard SSTable on disk.
        let mut write_table = |image: OutputTableImage| -> Result<()> {
            let wire = crate::meta_wire::encode_meta_out(std::iter::once(&image.meta));
            let [meta] = <[_; 1]>::try_from(crate::meta_wire::decode_meta_out(&wire)?)
                .map_err(|_| lsm::Error::Corruption("MetaOut lost its table".into()))?;
            let (number, file) = out.new_output()?;
            // The device's data blocks at their index entries' offsets,
            // then the tail `TableBuilder` writes.
            let mut table = TableWriter::new(file);
            for (framed, (key, handle)) in image
                .framed_blocks(self.config.w_out)
                .zip(&image.index_entries)
            {
                let written = table.append_framed(framed)?;
                debug_assert_eq!(written, *handle);
                table.add_index_entry(key, &written);
            }
            let filter = options.filter_policy.zip(image.filter_block.as_deref());
            let file_size = table.finish(filter, options.compression)?;
            table.sync()?;
            outcome.bytes_written += file_size;
            outcome.outputs.push(OutputTableMeta {
                number,
                file_size,
                smallest: InternalKey::from_encoded(meta.smallest),
                largest: InternalKey::from_encoded(meta.largest),
                entries: meta.entries,
            });
            Ok(())
        };
        let (_model, report) = self.run_kernel_with(
            &images,
            req.smallest_snapshot,
            req.bottommost,
            encoder,
            &mut write_table,
        )?;
        outcome.bytes_read = report.input_bytes;
        outcome.entries_dropped = report.pairs_dropped;
        outcome.entries_written = report.pairs_compared - report.pairs_dropped;
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
