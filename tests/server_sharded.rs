//! Concurrency over a sharded backend: the wire suite of
//! `server_concurrent.rs` (in `util/wire_swap.rs`) run against a
//! `ShardedEngine` of 4 shards, where every `/query` fans out across
//! shards and every `/push` routes through the partitioner. Extra over
//! the single engine: `/status` exposes one detail row per shard
//! throughout, the refresh merges exactly the oracle delta, and
//! `/status` and `/metrics` list the shards.

#[path = "util/mod.rs"]
mod util;
#[path = "util/wire_swap.rs"]
mod wire_swap;

use wire_swap::{swap_under_load, Backend};

#[test]
fn sharded_backend_serves_only_legal_snapshots_across_a_swap() {
    swap_under_load(Backend::Sharded);
}
