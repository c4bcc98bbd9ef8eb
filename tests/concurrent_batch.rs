//! Concurrency stress: `search_batch` with far more threads than cores
//! over a realistically-sized store must return exactly the sequential
//! results for every filter kind.
//!
//! This is the regression net for the zero-contention query path: the
//! per-worker `QueryContext` holds epoch-stamped dedup/accumulator
//! scratch, and a reuse bug (stale stamps, shared buffers, missed
//! epoch bump) produces duplicated or dropped candidates only under
//! interleaved reuse — which a 7-object fixture can't surface. A ~5k
//! object store with mixed workloads can.

use seal_core::{FilterKind, Query, QueryContext, SealEngine};
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::twitter_fixture;

const THREADS: usize = 64;

fn kinds() -> Vec<FilterKind> {
    util::kinds(64, &[Some(1 << 12), None], 5, 8)
}

#[test]
fn sixty_four_thread_batch_equals_sequential_for_every_filter() {
    // 36 queries per spec × 2 specs = 72 queries: comfortably above
    // THREADS, since search_batch clamps workers to the query count —
    // a smaller workload would silently run fewer than 64 workers.
    let (store, queries) = twitter_fixture(5_000, 36);
    assert!(
        queries.len() >= THREADS,
        "workload must not clamp the thread count"
    );
    let store = Arc::new(store);
    for kind in kinds() {
        let engine = SealEngine::build(store.clone(), kind);
        // Sequential ground truth through the same context-reuse path a
        // worker uses (one warm context across all queries).
        let mut ctx = QueryContext::new();
        let sequential: Vec<Vec<_>> = queries
            .iter()
            .map(|q| engine.search_with_ctx(q, &mut ctx).sorted().answers)
            .collect();
        let parallel: Vec<Vec<_>> = engine
            .search_batch(&queries, THREADS)
            .into_iter()
            .map(|r| r.sorted().answers)
            .collect();
        assert_eq!(
            parallel, sequential,
            "{kind:?}: {THREADS}-thread batch diverged from sequential"
        );
    }
}

#[test]
fn repeated_batches_reuse_contexts_cleanly() {
    // Back-to-back batches over the same engine: a second run must see
    // no residue from the first (epoch bumps, buffer clears).
    let (store, queries) = twitter_fixture(3_000, 32);
    assert!(queries.len() >= THREADS);
    let store = Arc::new(store);
    let engine = SealEngine::build(store, FilterKind::seal_default());
    let first: Vec<usize> = engine
        .search_batch(&queries, THREADS)
        .iter()
        .map(|r| r.answers.len())
        .collect();
    for round in 0..3 {
        let again: Vec<usize> = engine
            .search_batch(&queries, THREADS)
            .iter()
            .map(|r| r.answers.len())
            .collect();
        assert_eq!(again, first, "round {round} diverged");
    }
}

#[test]
fn one_context_serves_engines_of_different_sizes() {
    // A context warmed on a large store must stay correct on a smaller
    // one and re-grow for a larger one (the `ensure` path).
    let (big_store, big_queries) = twitter_fixture(2_000, 4);
    let (small_store, small_queries) = twitter_fixture(300, 4);
    let big = SealEngine::build(Arc::new(big_store), FilterKind::Token);
    let small = SealEngine::build(Arc::new(small_store), FilterKind::Token);
    let mut ctx = QueryContext::new();
    for (engine, qs) in [
        (&big, &big_queries),
        (&small, &small_queries),
        (&big, &big_queries),
    ] {
        for q in qs.iter().take(4) {
            let with_ctx = engine.search_with_ctx(q, &mut ctx).sorted().answers;
            let fresh = engine.search(q).sorted().answers;
            assert_eq!(with_ctx, fresh);
        }
    }
}

#[test]
fn context_query_interleaving_across_filters() {
    // One context alternating between filters with different scratch
    // needs (dedup, id decode, hierarchical signature) must never leak
    // state between them.
    let (store, queries) = twitter_fixture(1_500, 6);
    let store = Arc::new(store);
    let token = SealEngine::build(store.clone(), FilterKind::Token);
    let compressed = SealEngine::build(store.clone(), FilterKind::TokenCompressed);
    let hierarchical = SealEngine::build(
        store.clone(),
        FilterKind::Hierarchical {
            max_level: 8,
            budget: 8,
        },
    );
    let mut ctx = QueryContext::with_capacity(store.len());
    let check = |engine: &SealEngine, q: &Query, ctx: &mut QueryContext| {
        let a = engine.search_with_ctx(q, ctx).sorted().answers;
        let b = engine.search(q).sorted().answers;
        assert_eq!(
            a,
            b,
            "{} diverged under context reuse",
            engine.filter_name()
        );
    };
    for q in &queries {
        check(&token, q, &mut ctx);
        check(&compressed, q, &mut ctx);
        check(&hierarchical, q, &mut ctx);
    }
}
