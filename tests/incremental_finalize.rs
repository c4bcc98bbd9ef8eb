//! Re-freezing and parallel builds.
//!
//! Two properties anchor the build path:
//!
//! 1. **Re-finalize ≡ fresh build.** The same pushes, split across any
//!    push/finalize interleaving (streaming ingest), produce an index
//!    whose `iter()` output is identical to pushing everything once
//!    and finalizing once — for one and two bounds per posting and
//!    every build thread count.
//! 2. **Parallel builds are deterministic.** The hierarchical
//!    (HSS-Greedy) build selects exactly the same cells — and the
//!    resulting engine returns exactly the same answers — at every
//!    thread count.

use proptest::prelude::*;
use seal_core::filters::HierarchicalFilter;
use seal_core::signatures::hierarchical::HierarchicalScheme;
use seal_core::{BuildOpts, FilterKind, SealEngine, SimilarityConfig};
use seal_index::{Arena, InvertedIndex};
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::twitter_fixture;

/// One push: key, object id, bound (further bounds derive from it).
type Entry = (u64, u32, f64);

fn entries() -> impl Strategy<Value = Vec<Entry>> {
    proptest::collection::vec((0u64..12, 0u32..50_000, 0.0f64..1e5), 0..250)
}

/// Finalize points: after which pushes (by index) to freeze mid-build.
fn cuts() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..250, 0..5)
}

/// `(key, rows)` per group, every column of every row.
type Snapshot<const N: usize> = Vec<(u64, Vec<(u32, [f64; N])>)>;

fn snapshot<const N: usize>(idx: &Arena<u64, N>) -> Snapshot<N> {
    idx.iter().map(|(k, g)| (k, g.rows().collect())).collect()
}

/// The property, once for any number of bounds: `entries` pushed with
/// a finalize after each index in `cuts` equals `entries` pushed and
/// finalized once.
fn refinalize_equals_fresh_build<const N: usize>(
    entries: &[Entry],
    cuts: &[usize],
    threads: usize,
) {
    // Distinct, NaN-free bounds per column: b, 1e5 − b, ...
    let bounds = |b: f64| std::array::from_fn(|col| if col % 2 == 0 { b } else { 1e5 - b });
    let mut fresh: Arena<u64, N> = Arena::new();
    for &(k, o, b) in entries {
        fresh.push_row(k, o, bounds(b));
    }
    fresh.finalize();

    let mut incremental: Arena<u64, N> = Arena::new();
    for (i, &(k, o, b)) in entries.iter().enumerate() {
        incremental.push_row(k, o, bounds(b));
        if cuts.contains(&i) {
            incremental.finalize_with_threads(threads);
        }
    }
    incremental.finalize_with_threads(threads);

    assert_eq!(incremental.posting_count(), fresh.posting_count());
    assert_eq!(incremental.key_count(), fresh.key_count());
    assert_eq!(snapshot(&incremental), snapshot(&fresh));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inverted_refinalize_equals_fresh_build(
        entries in entries(),
        cuts in cuts(),
        threads in 1usize..5,
    ) {
        refinalize_equals_fresh_build::<1>(&entries, &cuts, threads);
    }

    #[test]
    fn hybrid_refinalize_equals_fresh_build(
        entries in entries(),
        cuts in cuts(),
        threads in 1usize..5,
    ) {
        refinalize_equals_fresh_build::<2>(&entries, &cuts, threads);
    }
}

#[test]
fn parallel_hierarchical_build_selects_the_same_cells() {
    let (store, _qs) = twitter_fixture(1500, 1);
    let store = Arc::new(store);
    let sequential = HierarchicalScheme::build(&store, 6, 8);
    let baseline = sequential.selected_cells_sorted();
    assert!(!baseline.is_empty());
    for threads in [2usize, 4, 8, 0] {
        let parallel = HierarchicalScheme::build_with_threads(&store, 6, 8, threads);
        assert_eq!(
            parallel.selected_cells_sorted(),
            baseline,
            "threads={threads} selected different cells"
        );
        assert_eq!(parallel.total_cells(), sequential.total_cells());
    }
}

#[test]
fn parallel_hierarchical_filter_answers_identically() {
    let (store, queries) = twitter_fixture(1200, 6);
    let store = Arc::new(store);
    let cfg = SimilarityConfig;
    let sequential =
        HierarchicalFilter::build_with_opts(store.clone(), 5, 8, BuildOpts::with_threads(1));
    let parallel =
        HierarchicalFilter::build_with_opts(store.clone(), 5, 8, BuildOpts::with_threads(4));
    assert_eq!(
        sequential.index().posting_count(),
        parallel.index().posting_count(),
        "parallel build produced a different index"
    );
    assert_eq!(
        sequential.scheme().selected_cells_sorted(),
        parallel.scheme().selected_cells_sorted(),
    );
    // And end to end through the engine: identical answers.
    let seq_engine = SealEngine::build_with_opts(
        store.clone(),
        FilterKind::Hierarchical {
            max_level: 5,
            budget: 8,
        },
        cfg,
        BuildOpts::with_threads(1),
    );
    let par_engine = SealEngine::build_with_opts(
        store,
        FilterKind::Hierarchical {
            max_level: 5,
            budget: 8,
        },
        cfg,
        BuildOpts::with_threads(0),
    );
    for q in &queries {
        assert_eq!(
            seq_engine.search(q).sorted().answers,
            par_engine.search(q).sorted().answers,
        );
    }
}

#[test]
fn streaming_ingest_serves_correct_answers_after_each_refinalize() {
    // Streaming ingest: push a batch, re-finalize, serve — repeatedly
    // — and at every step the frozen index answers exactly like a
    // fresh one built from the same postings.
    let (store, _qs) = twitter_fixture(900, 1);
    let all: Vec<(u32, seal_core::RoiObject)> =
        store.iter().map(|(id, o)| (id.0, o.clone())).collect();
    let mut streaming: InvertedIndex<u32> = InvertedIndex::new();
    let mut so_far: Vec<(u32, u32, f64)> = Vec::new();
    for chunk in all.chunks(300) {
        for (id, o) in chunk {
            for t in o.tokens.iter() {
                let bound = f64::from(*id % 97); // synthetic NaN-free bound
                streaming.push(t.0, *id, bound);
                so_far.push((t.0, *id, bound));
            }
        }
        streaming.finalize_with_threads(2);
        let mut fresh: InvertedIndex<u32> = InvertedIndex::new();
        for &(k, o, b) in &so_far {
            fresh.push(k, o, b);
        }
        fresh.finalize();
        for key in 0u32..40 {
            for thr in [0.0, 10.0, 50.0, 96.0] {
                assert_eq!(
                    streaming.qualifying(&key, thr),
                    fresh.qualifying(&key, thr),
                    "key {key} thr {thr} diverged mid-stream"
                );
            }
        }
    }
}
