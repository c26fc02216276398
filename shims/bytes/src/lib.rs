//! Empty. This package was an offline stand-in for the `bytes` crate's
//! `Bytes`; blocks now own their buffers (`sstable::block::BlockContents`)
//! so that the block cache can hand an evicted block's buffer to the next
//! miss, and nothing else used it. The package and the dependency lines
//! naming it (`crates/sstable`, `crates/lsm`, `crates/fcae`) stay only so
//! `benchmark/Cargo.lock` remains valid; they go with the next
//! benchmark-scoped refresh (ROADMAP 1(b)).
