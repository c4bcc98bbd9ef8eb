//! Online ingest (`LiveEngine`): the generation contract.
//!
//! 1. **Refresh ≡ fresh build.** For any interleaving of pushes,
//!    queries and refreshes, a refreshed `LiveEngine` answers exactly
//!    like a from-scratch `SealEngine::build` over the union corpus —
//!    for every `FilterKind` with an index path and every build thread
//!    count (proptest).
//! 2. **Delta visibility.** An object is answerable the moment it is
//!    pushed, before any refresh, under the id it will keep forever.
//! 3. **Lock-free serving.** Queries keep answering — and stay
//!    correct — while a `refresh()` builds the next generation on
//!    another thread; every observed answer set matches one of the two
//!    legal snapshots (pre-swap generation + frozen-weight overlay, or
//!    post-swap union build).

use proptest::prelude::*;
use seal_core::{verify::naive_search, BuildOpts};
use seal_core::{
    FilterKind, LiveEngine, ObjectId, ObjectStore, Query, RoiObject, SealEngine, SimilarityConfig,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::{materialize, obj_strategy, twitter_fixture, workload, VOCAB};

/// Every filter kind (each serves off a signature index that a
/// generation swap must keep fresh).
fn indexed_kinds() -> Vec<FilterKind> {
    vec![
        FilterKind::Token,
        FilterKind::TokenCompressed,
        FilterKind::Grid { side: 8 },
        FilterKind::HashHybrid {
            side: 8,
            buckets: None,
        },
        FilterKind::HashHybrid {
            side: 8,
            buckets: Some(64),
        },
        FilterKind::HashHybridCompressed {
            side: 8,
            buckets: Some(64),
        },
        FilterKind::Hierarchical {
            max_level: 4,
            budget: 8,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any push/refresh interleaving, checked against a fresh build
    /// over the union after every refresh, for every indexed kind.
    #[test]
    fn refreshed_generations_answer_like_fresh_builds(
        raw in proptest::collection::vec(obj_strategy(), 6..32),
        initial_frac in 1usize..5,
        cuts in proptest::collection::vec(0usize..32, 0..3),
        threads in 0usize..3,
    ) {
        let objects: Vec<RoiObject> = raw.iter().map(materialize).collect();
        let initial = (objects.len() * initial_frac / 5).max(1).min(objects.len());
        let queries = workload();
        for kind in indexed_kinds() {
            let store0 = Arc::new(ObjectStore::from_objects(objects[..initial].to_vec(), VOCAB));
            let live = LiveEngine::with_opts(
                store0,
                kind,
                SimilarityConfig,
                BuildOpts::with_threads(threads),
            );
            for (i, o) in objects[initial..].iter().enumerate() {
                let id = live.push(o.clone());
                prop_assert_eq!(id, ObjectId((initial + i) as u32), "{:?}: delta ids dense", kind);
                if cuts.contains(&i) {
                    live.refresh();
                    assert_matches_fresh(&live, &objects[..initial + i + 1], &queries, kind);
                }
            }
            live.refresh();
            assert_matches_fresh(&live, &objects, &queries, kind);
            prop_assert_eq!(live.len(), objects.len());
            prop_assert_eq!(live.staged_len(), 0);
        }
    }

    /// A pushed object is answerable immediately: a query that is the
    /// object itself (τ = 1, both sides) must return its id before any
    /// refresh, under any kind and any weights (self-similarity is 1
    /// regardless of idf).
    #[test]
    fn pushed_objects_are_visible_before_refresh(
        raw in proptest::collection::vec(obj_strategy(), 4..16),
        pushed in obj_strategy(),
    ) {
        let objects: Vec<RoiObject> = raw.iter().map(materialize).collect();
        let newcomer = materialize(&pushed);
        let q = Query::new(newcomer.region, newcomer.tokens.clone(), 1.0, 1.0).unwrap();
        for kind in indexed_kinds() {
            let store = Arc::new(ObjectStore::from_objects(objects.clone(), VOCAB));
            let live = LiveEngine::new(store, kind);
            let id = live.push(newcomer.clone());
            prop_assert_eq!(id, ObjectId(objects.len() as u32));
            let answers = live.search(&q).sorted().answers;
            prop_assert!(
                answers.contains(&id),
                "{:?}: pushed object invisible before refresh ({:?})", kind, answers
            );
        }
    }
}

/// The generation contract: the live engine's answers equal a fresh
/// `SealEngine::build` over the union corpus, query for query.
fn assert_matches_fresh(
    live: &LiveEngine,
    union: &[RoiObject],
    queries: &[Query],
    kind: FilterKind,
) {
    let fresh_store = Arc::new(ObjectStore::from_objects(union.to_vec(), VOCAB));
    let fresh = SealEngine::build(fresh_store.clone(), kind);
    let cfg = SimilarityConfig;
    for (qi, q) in queries.iter().enumerate() {
        let got = live.search(q).sorted().answers;
        let expect = fresh.search(q).sorted().answers;
        assert_eq!(
            got, expect,
            "{kind:?} query {qi} diverged from the fresh union build"
        );
        // And both agree with the oracle, so the equality is not a
        // shared bug.
        let mut oracle = naive_search(&fresh_store, &cfg, q);
        oracle.sort_unstable();
        assert_eq!(got, oracle, "{kind:?} query {qi} oracle");
    }
}

/// The two legal answer sets a concurrent reader may observe for a
/// query while a refresh is in flight.
struct LegalAnswers {
    /// Pre-swap: old generation + frozen-weight delta overlay.
    before: Vec<ObjectId>,
    /// Post-swap: the union generation.
    after: Vec<ObjectId>,
}

#[test]
fn queries_keep_answering_while_refresh_runs() {
    let (store, queries) = twitter_fixture(900, 3);
    let all: Vec<RoiObject> = store.objects().to_vec();
    let vocab = store.vocab_size();
    let split = 700usize;
    let gen0_store = Arc::new(ObjectStore::from_objects(all[..split].to_vec(), vocab));
    let delta = &all[split..];
    let union_store = Arc::new(ObjectStore::from_objects(all.clone(), vocab));
    let cfg = SimilarityConfig;

    // Both legal snapshots per query, straight from the oracle.
    let legal: Vec<LegalAnswers> = queries
        .iter()
        .map(|q| {
            let mut before = naive_search(&gen0_store, &cfg, q);
            for (i, o) in delta.iter().enumerate() {
                if cfg.is_answer(q, o, gen0_store.weights()) {
                    before.push(ObjectId((split + i) as u32));
                }
            }
            before.sort_unstable();
            let mut after = naive_search(&union_store, &cfg, q);
            after.sort_unstable();
            LegalAnswers { before, after }
        })
        .collect();

    let kind = FilterKind::Hierarchical {
        max_level: 5,
        budget: 8,
    };
    let live = LiveEngine::new(gen0_store, kind);
    live.push_all(delta.iter().cloned());

    const READERS: usize = 2;
    let refresh_done = AtomicBool::new(false);
    let ready = AtomicUsize::new(0);
    let served = AtomicUsize::new(0);
    let served_during_refresh = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Readers: hammer the workload until the builder finishes,
        // validating every answer set against the two legal snapshots.
        for _ in 0..READERS {
            scope.spawn(|| {
                let mut qi = 0usize;
                while !refresh_done.load(Ordering::Acquire) {
                    let q = &queries[qi % queries.len()];
                    let got = live.search(q).sorted().answers;
                    let l = &legal[qi % queries.len()];
                    assert!(
                        got == l.before || got == l.after,
                        "mid-refresh answer matched neither legal snapshot:\n got {got:?}\n pre {:?}\n post {:?}",
                        l.before,
                        l.after
                    );
                    if qi == 0 {
                        ready.fetch_add(1, Ordering::Release);
                    }
                    served.fetch_add(1, Ordering::Relaxed);
                    if !refresh_done.load(Ordering::Acquire) {
                        served_during_refresh.fetch_add(1, Ordering::Relaxed);
                    }
                    qi += 1;
                }
            });
        }
        // Start gate: don't begin the refresh until every reader has
        // completed a query — otherwise a loaded machine could finish
        // the whole build before a reader thread even starts, and the
        // served-during-refresh assertion below would race.
        while ready.load(Ordering::Acquire) < READERS {
            std::thread::yield_now();
        }
        let stats = live.refresh();
        assert_eq!(stats.merged, delta.len());
        assert_eq!(stats.generation, 1);
        refresh_done.store(true, Ordering::Release);
    });
    assert!(
        served_during_refresh.load(Ordering::Relaxed) > 0,
        "no query completed while the refresh was in flight — readers blocked on the builder?"
    );

    // Steady state after the swap: exactly the union build's answers.
    for (q, l) in queries.iter().zip(&legal) {
        assert_eq!(live.search(q).sorted().answers, l.after);
    }
    assert_eq!(live.generation(), 1);
    assert_eq!(live.staged_len(), 0);
}

#[test]
fn repeated_push_refresh_cycles_stay_exact() {
    // The streaming-ingest loop the CLI `ingest` command drives:
    // batch → refresh → serve, many times, against the oracle each
    // round.
    let (store, queries) = twitter_fixture(600, 2);
    let all: Vec<RoiObject> = store.objects().to_vec();
    let vocab = store.vocab_size();
    let cfg = SimilarityConfig;
    let live = LiveEngine::new(
        Arc::new(ObjectStore::from_objects(all[..200].to_vec(), vocab)),
        FilterKind::Token,
    );
    let mut ingested = 200usize;
    for chunk in all[200..].chunks(100) {
        live.push_all(chunk.iter().cloned());
        ingested += chunk.len();
        let stats = live.refresh();
        assert_eq!(stats.merged, chunk.len());
        assert_eq!(stats.total, ingested);
        let so_far = Arc::new(ObjectStore::from_objects(all[..ingested].to_vec(), vocab));
        for q in &queries {
            let mut oracle = naive_search(&so_far, &cfg, q);
            oracle.sort_unstable();
            assert_eq!(
                live.search(q).sorted().answers,
                oracle,
                "round at {ingested} objects diverged"
            );
        }
    }
    assert_eq!(live.generation(), 4);
    assert_eq!(live.len(), 600);
}
