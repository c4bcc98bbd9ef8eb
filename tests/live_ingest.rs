//! Online ingest (`LiveEngine`) under concurrency: queries keep
//! answering — and stay correct — while a `refresh()` builds the next
//! generation on another thread; every observed answer set matches one
//! of the two legal snapshots (pre-swap generation + frozen-weight
//! overlay, or post-swap union build). The sequential generation
//! contract (refresh ≡ fresh build, staged objects answerable at once)
//! is `tests/exactness.rs`'s, on every kind and thread count.

use seal_core::verify::naive_search;
use seal_core::{FilterKind, LiveEngine, ObjectId, ObjectStore, RoiObject, SimilarityConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::twitter_fixture;

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
