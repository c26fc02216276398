//! # fcae-repro
//!
//! A from-scratch Rust reproduction of *"FPGA-based Compaction Engine for
//! Accelerating LSM-tree Key-Value Stores"* (ICDE 2020): a LevelDB-like
//! LSM store whose compactions can be offloaded to a cycle-accurately
//! simulated FPGA engine.
//!
//! This facade re-exports the workspace's public API:
//!
//! * [`lsm`] — the store: [`lsm::Db`], options, the
//!   [`lsm::CompactionEngine`] abstraction and the CPU baseline engine;
//! * [`fcae`] — the simulated FPGA device: [`fcae::FcaeEngine`],
//!   configuration ([`fcae::FcaeConfig`]), the pipeline timing model,
//!   the Table VII resource model and the calibrated CPU cost model;
//! * [`offload`] — the multi-engine offload scheduler, and a store's one
//!   way to the device: [`offload::OffloadService`] packs as many engine
//!   instances as fit the card and dispatches compactions across them
//!   with a bounded wait for a slot, CPU fallback (the paper's Fig. 6)
//!   and fault retry;
//! * [`sstable`] — the LevelDB table format;
//! * [`snap_codec`] — the Snappy codec;
//! * [`workloads`] — db_bench / YCSB generators;
//! * [`systemsim`] — the metadata-level system simulator behind the
//!   end-to-end experiments;
//! * [`simkit`] — the discrete-event kernel and device models.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use fcae_repro::fcae::FcaeConfig;
//! use fcae_repro::lsm::{Db, Options};
//! use fcae_repro::offload::{OffloadConfig, OffloadService};
//!
//! let dir = std::env::temp_dir().join("fcae-repro-doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let engine = OffloadService::new(FcaeConfig::nine_input(), OffloadConfig::default());
//! let db = Db::open_with_engine(&dir, Options::default(), Arc::new(engine)).unwrap();
//! db.put(b"hello", b"world").unwrap();
//! assert_eq!(db.get(b"hello").unwrap().as_deref(), Some(&b"world"[..]));
//! ```

pub use fcae;
pub use lsm;
pub use obs;
pub use offload;
pub use simkit;
pub use snap_codec;
pub use sstable;
pub use systemsim;
pub use workloads;

/// Crate version, matching the workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
