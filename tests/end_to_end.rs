//! End-to-end integration: generate a realistic dataset, build every
//! engine, and check they all agree with the brute-force oracle across
//! the paper's threshold grid.

use seal_bench_test_util::*;
use seal_core::verify::naive_search;
use seal_core::{FilterKind, SealEngine, SimilarityConfig};
use std::sync::Arc;

#[path = "util/mod.rs"]
mod seal_bench_test_util;

#[test]
fn all_engines_agree_with_oracle_on_twitter_like_data() {
    let (store, queries) = twitter_fixture(2_000, 12);
    let store = Arc::new(store);
    let cfg = SimilarityConfig;
    let kinds = vec![
        FilterKind::Token,
        FilterKind::Grid { side: 64 },
        FilterKind::Grid { side: 512 },
        FilterKind::HashHybrid {
            side: 128,
            buckets: Some(1 << 14),
        },
        FilterKind::Hierarchical {
            max_level: 8,
            budget: 8,
        },
    ];
    for kind in kinds {
        let engine = SealEngine::build(store.clone(), kind);
        for q in &queries {
            let got = engine.search(q).sorted();
            let mut expect = naive_search(&store, &cfg, q);
            expect.sort_unstable();
            assert_eq!(
                got.answers, expect,
                "{kind:?} disagrees with oracle on query {:?} τ=({},{})",
                q.region, q.tau_spatial, q.tau_textual
            );
        }
    }
}

#[test]
fn usa_like_data_round_trips_too() {
    let (store, queries) = usa_fixture(2_000, 3);
    let store = Arc::new(store);
    let cfg = SimilarityConfig;
    let engine = SealEngine::build(store.clone(), FilterKind::seal_default());
    for q in &queries {
        let got = engine.search(q).sorted();
        let mut expect = naive_search(&store, &cfg, q);
        expect.sort_unstable();
        assert_eq!(got.answers, expect);
    }
    // Self-anchored queries guarantee non-empty answers, so completeness
    // is exercised on hits as well as misses (at this reduced scale the
    // generated workload can legitimately return nothing: 2k objects in
    // a continent-sized space are sparse, unlike the paper's 1M).
    for idx in [0u32, 7, 42] {
        let o = store.get(seal_core::ObjectId(idx));
        let q = seal_core::Query::new(o.region, o.tokens.clone(), 0.5, 0.5).unwrap();
        let got = engine.search(&q);
        assert!(
            got.answers.contains(&seal_core::ObjectId(idx)),
            "self-query missed object {idx}"
        );
    }
}

#[test]
fn results_are_stable_across_repeated_searches() {
    let (store, queries) = twitter_fixture(1_000, 5);
    let store = Arc::new(store);
    let engine = SealEngine::build(store, FilterKind::seal_default());
    for q in queries.iter().take(5) {
        let a = engine.search(q).sorted();
        let b = engine.search(q).sorted();
        assert_eq!(a.answers, b.answers, "non-deterministic engine");
    }
}

#[test]
fn engine_is_shareable_across_threads() {
    let (store, queries) = twitter_fixture(1_000, 6);
    let store = Arc::new(store);
    let engine = Arc::new(SealEngine::build(store, FilterKind::seal_default()));
    let mut handles = Vec::new();
    for chunk in queries.chunks(5).take(4) {
        let engine = engine.clone();
        let chunk: Vec<_> = chunk.to_vec();
        handles.push(std::thread::spawn(move || {
            chunk
                .iter()
                .map(|q| engine.search(q).answers.len())
                .sum::<usize>()
        }));
    }
    let totals: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Sequential re-run must agree with what the threads saw.
    let mut check = Vec::new();
    for chunk in queries.chunks(5).take(4) {
        check.push(
            chunk
                .iter()
                .map(|q| engine.search(q).answers.len())
                .sum::<usize>(),
        );
    }
    assert_eq!(totals, check);
}
