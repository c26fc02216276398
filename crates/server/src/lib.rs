//! Network serving layer: a sharded KV server over `lsm` stores with a
//! shared `offload` compaction scheduler.
//!
//! The paper's central claim — FPGA offload frees host CPU for
//! user-facing service throughput — needs something user-facing to
//! measure. This crate provides it:
//!
//! * [`proto`] — length-prefixed binary wire protocol (`Get`/`Put`/
//!   `Delete`/`Scan`/`WriteBatch`/`Stats`) with in-order responses, so
//!   clients pipeline.
//! * [`router`] — range partitioning over N shards; scans stay
//!   contiguous and globally sorted.
//! * [`server`] — the server: one std thread per connection on blocking
//!   std sockets (so sync writes from different connections meet in one
//!   shard's group commit), one `lsm::Db` per shard, **one**
//!   `offload::OffloadService` whose K engine slots every shard's
//!   compactions contend for, and `server.*` metrics on the shared `obs`
//!   registry.
//! * [`client`] — blocking client used by `kv-cli` and the load driver.
//! * `repl` — WAL-shipping replication: leader feed serving, replica
//!   apply loop, semi-sync ack waits, and the `repl.*` metric family
//!   (see DESIGN.md "Replication").
//! * [`load`] — YCSB replay at configurable connection counts,
//!   reporting p50/p95/p99 (used by `load_gen`).
//!
//! Binaries: `kv-server` (serve), `kv-cli` (one-shot ops), `load_gen`
//! (workload replay; the wire smoke `scripts/server_smoke.sh` runs).
//! Wire throughput and latency are measured by `benchmark/run.sh`
//! (`ycsb_a`, `ycsb_e`), not from this crate.

pub mod client;
pub mod load;
pub mod proto;
pub(crate) mod repl;
pub mod router;
pub mod server;

pub use client::{ClientError, KvClient};
pub use load::{LoadConfig, LoadReport};
pub use proto::{BatchOp, ProtoError, Request, Response};
pub use router::ShardRouter;
pub use server::{KvServer, ServerConfig, ServerHandle};
