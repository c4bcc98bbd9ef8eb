//! Integration: the "zero heap allocations when warm" contract of
//! `CandidateFilter::candidates_into`, measured rather than promised.
//!
//! A counting global allocator (this binary only) counts allocations
//! made by the test's own thread while armed; after one warm-up pass
//! over the query set has grown the `QueryContext` scratch, a thousand
//! further probes must not allocate at all — for every filter kind.

use seal_core::{Query, QueryContext, SealEngine, SearchStats};
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
}

struct Counting;

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the bookkeeping touches only const-initialized thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.with(Cell::get)
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
