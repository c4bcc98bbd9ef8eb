//! Metamorphic properties of the search problem over random small
//! worlds: answers shrink as thresholds rise and do not move under a
//! translation. Engine-versus-oracle exactness is `tests/exactness.rs`'s.

use proptest::prelude::*;
use seal_core::{FilterKind, ObjectStore, Query, RoiObject, SealEngine};
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
