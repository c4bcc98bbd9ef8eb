//! End-to-end integration on a realistic dataset: a built engine
//! answers deterministically and is shareable across threads. Its
//! agreement with the brute-force oracle is `tests/exactness.rs`'s
//! fixture cases.

use seal_bench_test_util::*;
use seal_core::{FilterKind, SealEngine};
use std::sync::Arc;

#[path = "util/mod.rs"]
mod seal_bench_test_util;

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
