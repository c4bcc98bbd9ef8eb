//! Integration: the "zero heap allocations when warm" contract of
//! `CandidateFilter::candidates_into`, measured rather than promised.
//!
//! A counting global allocator (this binary only) counts allocations
//! and requested bytes made by the test's own thread while armed;
//! after one warm-up pass over the query set has grown the
//! `QueryContext` scratch, a thousand further probes must not allocate
//! at all — for every filter kind. A warm one-query `search_batch` (the
//! server's usual batch) on every engine shape must request less than
//! one store-sized dedup array: no scratch is rebuilt per request.

use seal_core::{
    FilterKind, LiveEngine, Query, QueryContext, QueryEngine, SealEngine, SearchStats,
    ShardedEngine,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::twitter_fixture;

thread_local! {
    // Const-initialized and destructor-free, so reading it from inside
    // the allocator can neither allocate nor recurse.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the bookkeeping touches only const-initialized thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and requested bytes this thread makes while running
/// `f`.
fn measure(f: impl FnOnce()) -> (usize, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    BYTES.with(|b| b.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

/// Allocations this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    measure(f).0
}

fn probe_all(engine: &SealEngine, queries: &[Query], ctx: &mut QueryContext, probes: usize) {
    let mut stats = SearchStats::new();
    for q in queries.iter().cycle().take(probes) {
        engine.filter().candidates_into(q, ctx, &mut stats);
    }
    assert!(stats.lists_probed > 0, "the workload must probe something");
}

#[test]
fn warm_probes_do_not_allocate() {
    let (store, queries) = twitter_fixture(3_000, 100);
    let store = Arc::new(store);
    // The counter itself must see an allocation when there is one.
    assert!(allocations_during(|| drop(std::hint::black_box(vec![0u8; 64]))) > 0);
    for kind in util::kinds(64, &[None, Some(1 << 12)], 8, 16) {
        let engine = SealEngine::build(store.clone(), kind);
        let mut ctx = QueryContext::with_capacity(store.len());
        // Warm-up: one pass grows every scratch buffer to the largest
        // signature, candidate set and decoded prefix of the set.
        probe_all(&engine, &queries, &mut ctx, queries.len());
        let n = allocations_during(|| probe_all(&engine, &queries, &mut ctx, 1_000));
        assert_eq!(n, 0, "{kind:?}: {n} allocations across 1000 warm probes");
    }
}

/// Warms `batch_of_one` over `queries`, then asserts each further
/// one-query batch requests fewer than `limit` bytes on this thread.
fn assert_lean(
    name: &str,
    queries: &[Query],
    limit: usize,
    batch_of_one: impl Fn(&Query) -> usize,
) {
    // Warm-up grows this thread's scratch to the largest query.
    for q in queries {
        assert_eq!(batch_of_one(q), 1);
    }
    for (i, q) in queries.iter().enumerate() {
        let (_, bytes) = measure(|| assert_eq!(batch_of_one(q), 1));
        assert!(
            bytes < limit,
            "{name}: query {i} requested {bytes} B, one dedup array is {limit} B"
        );
    }
}

#[test]
fn warm_single_query_batches_build_no_store_sized_scratch() {
    let (store, queries) = twitter_fixture(3_000, 100);
    // One epoch-stamped dedup slot per object: what a per-request
    // `QueryContext::with_capacity(store.len())` zero-fills.
    let dedup_bytes = 4 * store.len();
    let store = Arc::new(store);
    assert!(measure(|| drop(std::hint::black_box(vec![0u8; 64]))).1 >= 64);
    let kind = FilterKind::seal_default();
    let seal = SealEngine::build(store.clone(), kind);
    assert_lean("SealEngine", &queries, dedup_bytes, |q| {
        seal.search_batch(std::slice::from_ref(q), 0).len()
    });
    let live = LiveEngine::new(store.clone(), kind);
    assert_lean("LiveEngine", &queries, dedup_bytes, |q| {
        live.search_batch(std::slice::from_ref(q), 0).len()
    });
    let sharded = ShardedEngine::build(&store, kind, 4);
    assert_lean("ShardedEngine", &queries, dedup_bytes, |q| {
        QueryEngine::search_batch(&sharded, std::slice::from_ref(q), 0).len()
    });
}
