//! Concurrency: the serving tier over one `LiveEngine` under
//! interleaved `/query`, `/push` and `/refresh` traffic, with every
//! answer checked against the two legal snapshots of a generation
//! swap. The suite itself lives in `util/wire_swap.rs`;
//! `server_sharded.rs` runs the same body over a sharded backend.

#[path = "util/mod.rs"]
mod util;
#[path = "util/wire_swap.rs"]
mod wire_swap;

use wire_swap::{swap_under_load, Backend};

#[test]
fn concurrent_clients_see_only_legal_snapshots_across_a_swap() {
    swap_under_load(Backend::Live);
}
