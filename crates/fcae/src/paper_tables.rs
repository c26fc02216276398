//! The single source of truth for every timing/period constant in the
//! cycle models, mirroring the paper's tables.
//!
//! The `paper-constants` lint (`cargo xtask lint`) enforces that
//! [`crate::timing`] and [`crate::cpu_model`] declare **no** numeric
//! constants of their own and use no magic float literals in model
//! formulas: a period or cost constant exists exactly once, here, next to
//! the table it came from. That keeps the repro's headline claim — cycle
//! counts derived from the paper's Tables II/III, not tuned in place —
//! auditable by machine.
//!
//! Layout:
//!
//! * **Table III** (optimized per-module periods) — structural scalars of
//!   the period formulas.
//! * **Table V calibration** — the three measured-speed calibration terms
//!   (datapath passes, memory cycles, per-pair overhead) plus the
//!   memory-system latencies cited in §V-B.
//! * **Table V, CPU column** — the least-squares fit of the paper's
//!   LevelDB v1.1 single-thread baseline.

// ---------------------------------------------------------------------
// Table III: optimized per-module pipeline periods.
// ---------------------------------------------------------------------

/// The Comparer's period is `(2 + ceil(log2 N)) * K` (Table III): two
/// fixed compare/validity stages plus the log-depth selection tree.
pub const COMPARER_BASE_STAGES: f64 = 2.0;

/// Pipeline fill cost charged on the first pair of a kernel invocation,
/// approximated as this many steady-state periods (one pass through
/// decode, compare, transfer, encode before the pipeline is full).
pub const PIPELINE_FILL_PERIODS: f64 = 4.0;

/// A validity-dropped pair skips the transfer/encode legs; it pays this
/// fraction of the steady-state period (decode + compare only).
pub const DROPPED_PAIR_PERIOD_FACTOR: f64 = 0.5;

/// Mark bytes (sequence number + type) that end every internal key: the
/// `8` of `K = user key + 8`. The Filter Block Encoder — this
/// repository's addition, absent from Table III — hashes the user key
/// only, one byte per cycle, so its period is `K` minus this.
pub const KEY_MARK_BYTES: f64 = 8.0;

// ---------------------------------------------------------------------
// Table V calibration (measured speeds) + §V-B memory system.
// ---------------------------------------------------------------------

/// Value bytes cross the V-wide datapath this many times (into the
/// decode FIFO and out through the transfer/output path).
pub const VALUE_DATAPATH_PASSES: f64 = 2.0;

/// Shared DRAM/AXI cost per value byte (cycles), calibrated to Table V.
pub const MEM_CYCLES_PER_VALUE_BYTE: f64 = 0.12;

/// Fixed per-pair control overhead (cycles): varint parsing, FIFO
/// synchronization, the select in Key-Value Transfer. Calibrated to
/// Table V.
pub const ENTRY_OVERHEAD_CYCLES: f64 = 25.0;

/// DRAM read latency on the card (the paper cites 7-8 cycles; §V-B).
pub const DRAM_READ_LATENCY_CYCLES: f64 = 8.0;

/// Per-block bookkeeping: handle parse, FIFO drain/refill.
pub const BLOCK_SETUP_CYCLES: f64 = 16.0;

/// Per-table reset of the encoder state (§V-A: "the Encoder gets reset").
pub const TABLE_RESET_CYCLES: f64 = 64.0;

/// Without index/data separation the read pointer switches to the index
/// block and back on every fetch, serializing this many extra DRAM round
/// trips on the block's critical path (§V-B).
pub const BASIC_INDEX_FETCH_ROUND_TRIPS: f64 = 3.0;

/// Without index/data separation the basic design buffers the index
/// block in BRAM and pays this many DRAM round trips per flushed block.
pub const BASIC_INDEX_FLUSH_ROUND_TRIPS: f64 = 2.0;

// ---------------------------------------------------------------------
// Table V, CPU column: the calibrated LevelDB v1.1 baseline fit.
// ---------------------------------------------------------------------

/// Fixed per-pair cost in microseconds (iterator dispatch, allocator,
/// block-builder bookkeeping in 2019-era LevelDB).
pub const C_FIX_US: f64 = 10.0;

/// Cost per internal-key byte in microseconds (heap compares).
pub const C_KEY_US_PER_BYTE: f64 = 0.125;

/// Cost per value byte in microseconds (copies + snappy en/decode).
pub const C_VALUE_US_PER_BYTE: f64 = 0.056;

/// Additional cost per value byte beyond [`CACHE_THRESHOLD_BYTES`]
/// (cache-miss penalty; the paper's CPU speed visibly drops at 2 KiB
/// values).
pub const C_CACHE_US_PER_BYTE: f64 = 0.027;

/// Cache penalty threshold.
pub const CACHE_THRESHOLD_BYTES: usize = 1024;

/// Per-entry cost of each merge input beyond two (LevelDB's
/// `MergingIterator` linear child scan + virtual calls).
pub const C_CHILD_US: f64 = 0.8;
