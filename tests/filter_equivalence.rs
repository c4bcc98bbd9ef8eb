//! Filter-level integration: every filter's candidate set must be a
//! superset of the answers (the signature property of Section 3.1),
//! and the documented containment relations between filters must hold.

use seal_core::filters::{
    CandidateFilter, GridFilter, HierarchicalFilter, HybridFilter, TokenFilter,
};
use seal_core::signatures::hash_hybrid::BucketScheme;
use seal_core::verify::naive_search;
use seal_core::{ObjectId, SearchStats, SimilarityConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::twitter_fixture;

fn candidate_set(f: &dyn CandidateFilter, q: &seal_core::Query) -> BTreeSet<ObjectId> {
    let mut stats = SearchStats::new();
    f.candidates(q, &mut stats).into_iter().collect()
}

#[test]
fn every_filter_is_a_superset_of_the_answers() {
    let (store, queries) = twitter_fixture(1_500, 8);
    let store = Arc::new(store);
    let cfg = SimilarityConfig;
    let filters: Vec<Box<dyn CandidateFilter>> = vec![
        Box::new(TokenFilter::build(store.clone())),
        Box::new(GridFilter::build(store.clone(), 256)),
        Box::new(HybridFilter::build(store.clone(), 256, BucketScheme::Full)),
        Box::new(HybridFilter::build(
            store.clone(),
            256,
            BucketScheme::Buckets(4096),
        )),
        Box::new(HierarchicalFilter::build(store.clone(), 8, 16)),
    ];
    for q in &queries {
        let answers: BTreeSet<ObjectId> = naive_search(&store, &cfg, q).into_iter().collect();
        for f in &filters {
            let cands = candidate_set(f.as_ref(), q);
            assert!(
                answers.is_subset(&cands),
                "{}: lost answers {:?}",
                f.name(),
                answers.difference(&cands).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn hybrid_full_hash_is_contained_in_grid_and_token() {
    // Hybrid pruning applies both constraints, so (with collision-free
    // hashing) its candidates ⊆ grid candidates ∩ token candidates.
    let (store, queries) = twitter_fixture(1_500, 6);
    let store = Arc::new(store);
    let token = TokenFilter::build(store.clone());
    let grid = GridFilter::build(store.clone(), 256);
    let hybrid = HybridFilter::build(store.clone(), 256, BucketScheme::Full);
    for q in &queries {
        let ct = candidate_set(&token, q);
        let cg = candidate_set(&grid, q);
        let ch = candidate_set(&hybrid, q);
        assert!(ch.is_subset(&cg), "hybrid ⊄ grid");
        assert!(ch.is_subset(&ct), "hybrid ⊄ token");
    }
}

#[test]
fn bucketed_hash_contains_full_hash() {
    // Bucket collisions merge lists, which can only add candidates.
    let (store, queries) = twitter_fixture(1_000, 6);
    let store = Arc::new(store);
    let full = HybridFilter::build(store.clone(), 128, BucketScheme::Full);
    let small = HybridFilter::build(store.clone(), 128, BucketScheme::Buckets(512));
    for q in &queries {
        let cf = candidate_set(&full, q);
        let cs = candidate_set(&small, q);
        assert!(cf.is_subset(&cs), "collisions removed candidates?!");
    }
}

#[test]
fn tighter_thresholds_shrink_candidates() {
    let (store, queries) = twitter_fixture(1_200, 4);
    let store = Arc::new(store);
    let f = HierarchicalFilter::build(store.clone(), 8, 16);
    for q in queries.iter().take(8) {
        let loose = candidate_set(&f, &q.with_thresholds(0.1, 0.1).unwrap());
        let tight = candidate_set(&f, &q.with_thresholds(0.6, 0.6).unwrap());
        assert!(
            tight.is_subset(&loose),
            "tight thresholds must not add candidates"
        );
    }
}
