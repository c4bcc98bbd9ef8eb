//! Property-based integration tests: random small worlds, every engine
//! vs the oracle, plus metamorphic properties of the search problem
//! itself.

use proptest::prelude::*;
use seal_core::verify::naive_search;
use seal_core::{
    FilterKind, ObjectId, ObjectStore, Query, RoiObject, SealEngine, SimilarityConfig,
};
use seal_geom::Rect;
use seal_text::{TokenId, TokenSet};
use std::sync::Arc;

const WORLD: f64 = 1000.0;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0..WORLD, 0.0..WORLD, 1.0..200.0, 1.0..200.0).prop_map(
        |(x, y, w, h): (f64, f64, f64, f64)| {
            Rect::new(x, y, (x + w).min(WORLD * 2.0), (y + h).min(WORLD * 2.0)).unwrap()
        },
    )
}

fn arb_tokens(vocab: u32) -> impl Strategy<Value = Vec<TokenId>> {
    proptest::collection::vec((0..vocab).prop_map(TokenId), 1..8)
}

fn arb_objects(vocab: u32) -> impl Strategy<Value = Vec<RoiObject>> {
    proptest::collection::vec(
        (arb_rect(), arb_tokens(vocab)).prop_map(|(r, t)| RoiObject::new(r, TokenSet::from_ids(t))),
        1..60,
    )
}

fn arb_query(vocab: u32) -> impl Strategy<Value = Query> {
    (arb_rect(), arb_tokens(vocab), 0.05f64..0.9, 0.05f64..0.9)
        .prop_map(|(r, t, tr, tt)| Query::with_token_ids(r, t, tr, tt).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_match_oracle_on_random_worlds(
        objects in arb_objects(30),
        query in arb_query(30),
        anchor in 0usize..60,
    ) {
        let vocab = 30;
        let store = Arc::new(ObjectStore::from_objects(objects, vocab));
        let cfg = SimilarityConfig;
        // A random query over these worlds almost never has an answer,
        // so each case also asks for one object's own region and tokens
        // at the drawn thresholds: that object answers.
        let anchor = ObjectId((anchor % store.len()) as u32);
        let o = store.get(anchor);
        let anchored =
            Query::new(o.region, o.tokens.clone(), query.tau_spatial, query.tau_textual).unwrap();
        prop_assert!(naive_search(&store, &cfg, &anchored).contains(&anchor));
        let engines: Vec<(FilterKind, SealEngine)> = [
            FilterKind::Token,
            FilterKind::TokenCompressed,
            FilterKind::Grid { side: 16 },
            FilterKind::HashHybrid { side: 16, buckets: Some(256) },
            FilterKind::HashHybridCompressed { side: 16, buckets: Some(256) },
            FilterKind::Hierarchical { max_level: 5, budget: 6 },
        ]
        .into_iter()
        .map(|kind| (kind, SealEngine::build(store.clone(), kind)))
        .collect();
        for q in [&query, &anchored] {
            let mut expect = naive_search(&store, &cfg, q);
            expect.sort_unstable();
            for (kind, engine) in &engines {
                let got = engine.search(q).sorted();
                prop_assert_eq!(&got.answers, &expect, "{:?} diverged", kind);
            }
        }
    }

    #[test]
    fn self_query_returns_self(
        objects in arb_objects(20),
        idx in 0usize..60,
    ) {
        // Querying with an object's own region+tokens at any threshold
        // must return at least that object.
        let store = Arc::new(ObjectStore::from_objects(objects, 20));
        let idx = idx % store.len();
        let o = store.get(seal_core::ObjectId(idx as u32)).clone();
        let q = Query::new(o.region, o.tokens.clone(), 1.0, 1.0).unwrap();
        let engine = SealEngine::build(
            store.clone(),
            FilterKind::Hierarchical { max_level: 5, budget: 6 },
        );
        let result = engine.search(&q);
        prop_assert!(
            result.answers.contains(&seal_core::ObjectId(idx as u32)),
            "object not similar to itself"
        );
    }

    #[test]
    fn threshold_monotonicity(
        objects in arb_objects(20),
        query in arb_query(20),
    ) {
        // Raising either threshold can only shrink the answer set.
        let store = Arc::new(ObjectStore::from_objects(objects, 20));
        let engine = SealEngine::build(store, FilterKind::Grid { side: 16 });
        let loose = engine
            .search(&query.with_thresholds(0.05, 0.05).unwrap())
            .sorted();
        let tight = engine
            .search(&query.with_thresholds(0.7, 0.7).unwrap())
            .sorted();
        for id in &tight.answers {
            prop_assert!(loose.answers.contains(id));
        }
    }

    #[test]
    fn translation_invariance(
        objects in arb_objects(15),
        query in arb_query(15),
        dx in -500.0f64..500.0,
        dy in -500.0f64..500.0,
    ) {
        // Translating the whole world (objects + query) must not change
        // answers: similarities are translation-invariant and the grid
        // is built relative to the data space.
        let translated: Vec<RoiObject> = objects
            .iter()
            .map(|o| RoiObject::new(o.region.translated(dx, dy).unwrap(), o.tokens.clone()))
            .collect();
        let store_a = Arc::new(ObjectStore::from_objects(objects, 15));
        let store_b = Arc::new(ObjectStore::from_objects(translated, 15));
        let qb = Query::new(
            query.region.translated(dx, dy).unwrap(),
            query.tokens.clone(),
            query.tau_spatial,
            query.tau_textual,
        ).unwrap();
        let ea = SealEngine::build(store_a, FilterKind::Grid { side: 32 });
        let eb = SealEngine::build(store_b, FilterKind::Grid { side: 32 });
        let ra = ea.search(&query).sorted();
        let rb = eb.search(&qb).sorted();
        prop_assert_eq!(ra.answers, rb.answers);
    }
}
