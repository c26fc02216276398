#!/usr/bin/env bash
# Regrowth rules: shapes this repo removed stay removed. Each rule greps
# the tree and fails on a hit, comments and string literals included.
# scripts/check.sh and CI's static-analysis job both run this file.
set -euo pipefail
cd "$(dirname "$0")/.."

# The server is threads on blocking sockets; no async costume grows
# back. (`set -e` ignores a `!` status, hence the `|| exit`.)
! grep -rnE 'async fn|async move|\.await|tokio::' --include='*.rs' crates tests examples || exit 1
# A table has one key order, user-key filters, restart interval 16 and
# checksummed reads: no knob for any of them grows back.
! grep -rnE 'dyn Comparator|BytewiseComparator|internal_key_filter|block_restart_interval|verify_checksums' \
    --include='*.rs' crates tests examples || exit 1
# The kernel has one decoder and one comparer: neither second
# implementation, nor the trait that let two decoders share a kernel,
# grows back.
! grep -rnE 'BasicInputDecoder|LinearComparer|run_kernel_basic|DecoderSource' \
    --include='*.rs' crates tests examples || exit 1
# One table format: the FCAE host path frames, checks and finishes
# tables through `sstable`, so no second trailer check or table tail
# grows back in `fcae`.
! grep -rnE 'crc32c|decode_fixed32|Footer' --include='*.rs' crates/fcae/src || exit 1
# Jobs the device can take run on it: no per-job device-time veto grows
# back in the offload service.
! grep -rnE '\b(job_timeout|estimated_device_time|cpu_fallback_timeout)\b' \
    --include='*.rs' crates shims tests examples || exit 1
# One applier: the group-commit leader stamps, appends, applies and
# publishes its group inside one epoch section, into one skiplist. No
# apply ledger, sequence reserver, visibility wait, rotation boundary or
# memtable shard count grows back.
! grep -rnE 'ApplyLedger|SeqReserver|memtable_shards|with_shards|wait_visible|finish_members|imm_boundary_seq' \
    --include='*.rs' crates shims tests examples || exit 1
# One slot semaphore: the offload scheduler grants free slots in no
# order within a wait budget, and a device fault is transient or
# mid-job. No waiter ranking, aging, queue-depth knob or second mid-job
# kind grows back.
! grep -rnE 'PriorityPolicy|JobClass|aging_interval|slowdown_queue_depth|stop_queue_depth|MidJobTimeout|MidJobPoisoned|next_waiter_id' \
    --include='*.rs' crates shims tests examples || exit 1
# One background thread per store, as LevelDB has: compactions of one
# store never overlap, so no thread-count option, admission checker or
# concurrent-compaction gauge grows back.
! grep -rnE 'ConflictChecker|JobShape|JobTicket|background_threads|max_concurrent_compactions|compact\.max_concurrent' \
    --include='*.rs' crates shims tests examples || exit 1
# One lock API: parking_lot's shape from `lsm::sync_shim` (or
# `parking_lot` below `lsm`), never std's poisoning locks or a lock
# helper. The loom facade in sync_shim.rs and xtask's lint patterns
# are the only places these names may appear.
! grep -rnE 'PoisonError|std::sync::(Mutex|Condvar|RwLock)|use std::sync::\{[^}]*(Mutex|Condvar)|shim_lock|sync_shim::lock' \
    --include='*.rs' crates/*/src | grep -vE '^crates/(xtask/|lsm/src/sync_shim\.rs:)' || exit 1
# No source file of any crate grows back into a 2,800-line db.rs.
find crates/*/src -name '*.rs' -exec wc -l {} + \
    | awk '$2 != "total" && $1 > 1200 { print $2 ": " $1 " lines (limit 1200)"; bad = 1 } END { exit bad }'
