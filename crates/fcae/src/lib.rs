//! FCAE — the paper's **F**PGA-based **C**ompaction **A**cceleration
//! **E**ngine, reproduced as a functional simulator with cycle-accurate
//! timing, resource, and transfer models.
//!
//! The engine really performs the compaction: it decodes LevelDB data
//! blocks (Snappy + prefix compression), runs an N-way compare with
//! validity checking, and encodes standard output SSTables — the same
//! bytes a hardware engine DMA'd back to the host would contain. Alongside
//! the functional path, [`timing::PipelineModel`] charges every module the
//! cycle counts of the paper's Tables II/III, so kernel time (and hence
//! "compaction speed", the paper's §VII-B metric) is derived from the
//! pipeline structure rather than from host wall-clock.
//!
//! Module map (paper §V, Fig. 5):
//!
//! | Paper module | Here |
//! |---|---|
//! | Index Block Decoder / Data Block Decoder (§V-B) | [`decoder::InputDecoder`] |
//! | Basic Decoder (§V-A Algorithm 1, Fig. 2) | its block-fetch cost only: [`AblationFlags`]`::index_data_separation` |
//! | Key Compare + Validity Check (Comparer) | [`comparer::Comparer`] |
//! | Key-Value Transfer | folded into [`engine::FcaeEngine`]'s select loop |
//! | Data/Index Block Encoder | [`encoder::OutputEncoder`] |
//! | Stream Downsizer / Upsizer, AXI | width terms in [`timing::PipelineModel`] |
//! | MetaIn/MetaOut + block memories (Fig. 7/8) | [`memory`] |
//! | Resource usage (Table VII) | [`resources::ResourceModel`] |
//! | CPU baseline (Table V, CPU column) | [`cpu_model::CpuCostModel`] |

pub mod comparer;
pub mod config;
pub mod cpu_model;
pub mod decoder;
pub mod encoder;
pub mod engine;
pub mod memory;
pub mod meta_wire;
pub mod paper_tables;
pub mod resources;
pub mod timing;

pub use config::{AblationFlags, FcaeConfig, PcieConfig};
pub use cpu_model::CpuCostModel;
pub use engine::{FcaeEngine, KernelReport};
pub use resources::{ResourceModel, Utilization};
pub use timing::{ModuleBreakdown, PipelineModel};

/// Engine errors are the store's errors: the engine is a drop-in
/// [`lsm::CompactionEngine`].
pub type Result<T> = lsm::Result<T>;
