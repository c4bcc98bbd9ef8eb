//! The paper's baseline methods (Section 2.3): **Keyword-first**,
//! **Spatial-first**, and the **IR-tree** extension of Cong et al. —
//! the comparison points of Table 1 and Figures 16/17.
//!
//! They are not engine filters. Each is a plain struct with an
//! inherent `candidates(&Query, &mut SearchStats)` returning the
//! superset its first stage produces, and `index_bytes()`; the sweep
//! finishes each query with [`seal_core::verify::verify`], the same two
//! steps `SealEngine::search_with_ctx` runs, so their counters are
//! comparable with the engine's. They allocate per call and sit
//! outside the engine's zero-allocation probe contract.

mod irtree;
mod keyword_first;
mod spatial_first;

pub use irtree::IrTreeBaseline;
pub use keyword_first::KeywordFirst;
pub use spatial_first::SpatialFirst;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use seal_core::verify::{naive_search, verify};
    use seal_core::{ObjectId, ObjectStore, Query, RoiObject, SearchStats, SimilarityConfig};
    use seal_geom::Rect;
    use seal_text::{TokenId, TokenSet};
    use std::sync::Arc;

    // Random worlds of 1–60 objects with continuous corners in a
    // 1000×1000 space.
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
            (arb_rect(), arb_tokens(vocab))
                .prop_map(|(r, t)| RoiObject::new(r, TokenSet::from_ids(t))),
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
        fn baselines_match_oracle_on_random_worlds(
            objects in arb_objects(30),
            query in arb_query(30),
            anchor in 0usize..60,
        ) {
            let store = Arc::new(ObjectStore::from_objects(objects, 30));
            let cfg = SimilarityConfig;
            let keyword = KeywordFirst::build(store.clone());
            let spatial = SpatialFirst::build(store.clone());
            let irtree = IrTreeBaseline::build_with_fanout(store.clone(), 4);
            // A random query over these worlds almost never has an
            // answer, so each case also asks for one object's own region
            // and tokens at the drawn thresholds: that object answers.
            let o = store.get(ObjectId((anchor % store.len()) as u32));
            let anchored =
                Query::new(o.region, o.tokens.clone(), query.tau_spatial, query.tau_textual)
                    .unwrap();
            for q in [&query, &anchored] {
                let mut expect = naive_search(&store, &cfg, q);
                expect.sort_unstable();
                let mut stats = SearchStats::new();
                for (name, candidates) in [
                    ("Keyword-first", keyword.candidates(q, &mut stats)),
                    ("Spatial-first", spatial.candidates(q, &mut stats)),
                    ("IR-tree", irtree.candidates(q, &mut stats)),
                ] {
                    let mut got = verify(&store, &cfg, q, &candidates, &mut stats);
                    got.sort_unstable();
                    prop_assert_eq!(&got, &expect, "{} diverged", name);
                }
            }
        }
    }
}
