//! The verification step (`Sig-Verify`, Figure 3) and the naive-scan
//! oracle every filter is tested against.

use crate::{ObjectId, ObjectStore, Query, RoiObject, SearchStats, SimilarityConfig};
use seal_geom::{Point, Rect};
use seal_text::TokenWeights;

/// One query's verification kernel, set up once before the candidate
/// loop: `q.R`'s corners and whether `|q.R| > 0`.
///
/// A candidate whose region shares no positive-area part with a
/// positive-area `q.R` has `|q∩o| = 0 < |q∪o|`, so `simR(q,o) = 0 <
/// τ_R` (`τ_R > 0` by `Query::new`): [`skips`](Self::skips) rejects it
/// without its areas, union, division or token merge. Every other
/// candidate — all of them when `|q.R| = 0`, where two identical
/// degenerate rects score 1 — runs Definition 3's unchanged predicate.
pub(crate) struct Kernel<'q> {
    q: &'q Query,
    min: Point,
    max: Point,
    positive: bool,
}

impl<'q> Kernel<'q> {
    pub(crate) fn new(q: &'q Query) -> Self {
        Kernel {
            q,
            min: q.region.min(),
            max: q.region.max(),
            positive: q.region.area() > 0.0,
        }
    }

    /// True when `|q.R| > 0` and the four strict corner comparisons
    /// find `r` apart from it: for a positive-area `r`, exactly when
    /// `|q∩r| = 0`, edge and corner contact included. Joined with `&`,
    /// not `&&`, so a candidate costs one branch.
    #[inline]
    pub(crate) fn skips(&self, r: &Rect) -> bool {
        let (min, max) = (r.min(), r.max());
        let overlap = (self.min.x < max.x)
            & (min.x < self.max.x)
            & (self.min.y < max.y)
            & (min.y < self.max.y);
        self.positive & !overlap
    }

    /// Definition 3 behind the exact [`skips`](Self::skips) reject.
    #[inline]
    pub(crate) fn accepts<W: TokenWeights>(&self, o: &RoiObject, w: &W) -> bool {
        !self.skips(&o.region) && crate::simfn::is_answer(self.q, o, w)
    }
}

/// Verifies candidates against the exact similarity predicates
/// (Definition 3), appending counters to `stats`: a candidate with no
/// positive-area overlap with a positive-area `q.R` is rejected
/// outright (its `simR` is 0), the rest run the literal predicate.
/// `SimilarityConfig` has one value; the parameter stays for linked
/// callers.
pub fn verify(
    store: &ObjectStore,
    _cfg: &SimilarityConfig,
    q: &Query,
    candidates: &[ObjectId],
    stats: &mut SearchStats,
) -> Vec<ObjectId> {
    let kernel = Kernel::new(q);
    let w = store.weights();
    let mut answers = Vec::new();
    for &id in candidates {
        if kernel.accepts(store.get(id), w) {
            answers.push(id);
        }
    }
    stats.candidates += candidates.len();
    stats.results += answers.len();
    answers
}

/// The brute-force oracle: scans every object and applies Definition 3
/// directly. All filters' `verify(filter(q))` must equal this.
pub fn naive_search(store: &ObjectStore, cfg: &SimilarityConfig, q: &Query) -> Vec<ObjectId> {
    let w = store.weights();
    store
        .iter()
        .filter(|(_, o)| cfg.is_answer(q, o, w))
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;

    #[test]
    fn example1_answer_is_o2() {
        let (store, q) = figure1_store();
        let cfg = SimilarityConfig;
        let answers = naive_search(&store, &cfg, &q);
        assert_eq!(answers, vec![ObjectId(1)], "Example 1: A = {{o2}}");
    }

    #[test]
    fn verify_filters_a_candidate_superset() {
        let (store, q) = figure1_store();
        let cfg = SimilarityConfig;
        let all: Vec<ObjectId> = store.iter().map(|(id, _)| id).collect();
        let mut stats = SearchStats::new();
        let answers = verify(&store, &cfg, &q, &all, &mut stats);
        assert_eq!(answers, naive_search(&store, &cfg, &q));
        assert_eq!(stats.candidates, 7);
        assert_eq!(stats.results, answers.len());
    }

    #[test]
    fn verify_empty_candidates() {
        let (store, q) = figure1_store();
        let cfg = SimilarityConfig;
        let mut stats = SearchStats::new();
        let answers = verify(&store, &cfg, &q, &[], &mut stats);
        assert!(answers.is_empty());
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn loose_thresholds_return_more() {
        let (store, q) = figure1_store();
        let cfg = SimilarityConfig;
        let loose = q.with_thresholds(0.01, 0.01).unwrap();
        let strict = q.with_thresholds(0.9, 0.9).unwrap();
        let a_loose = naive_search(&store, &cfg, &loose);
        let a_strict = naive_search(&store, &cfg, &strict);
        assert!(a_loose.len() >= a_strict.len());
        for id in &a_strict {
            assert!(a_loose.contains(id), "monotonicity violated");
        }
    }
}

#[cfg(test)]
mod kernel_proptests {
    use super::*;
    use crate::{FilterKind, LiveEngine};
    use proptest::prelude::*;
    use seal_text::{TokenId, TokenSet};
    use std::sync::Arc;

    const VOCAB: usize = 3;

    /// Rects on a small integer grid with widths and heights from 0:
    /// edge- and corner-touching pairs, zero-width segments, points and
    /// identical degenerate rects all come up often, and every area is
    /// exact.
    fn arb_rect() -> impl Strategy<Value = Rect> {
        (0u32..8, 0u32..8, 0u32..4, 0u32..4).prop_map(|(x, y, w, h)| {
            let (x, y) = (f64::from(x), f64::from(y));
            Rect::new(x, y, x + f64::from(w), y + f64::from(h)).unwrap()
        })
    }

    /// Token sets over the vocabulary, the empty set included.
    fn arb_tokens() -> impl Strategy<Value = TokenSet> {
        collection::vec(0u32..VOCAB as u32, 0..4)
            .prop_map(|v| TokenSet::from_ids(v.into_iter().map(TokenId)))
    }

    /// The query's thresholds: a random one, and each object's exact
    /// spatial and textual similarity to the query where it is above
    /// zero (`τ > 0` by `Query::new`), so a pair sits right at its τ.
    fn queries(
        region: Rect,
        tokens: &TokenSet,
        tau: f64,
        objects: &[RoiObject],
        w: &impl TokenWeights,
    ) -> Vec<Query> {
        let probe = Query::new(region, tokens.clone(), tau, tau).unwrap();
        let mut taus = vec![(tau, tau)];
        for o in objects {
            let (r, t) = (
                region.jaccard(&o.region),
                crate::simfn::textual_sim(&probe, o, w),
            );
            for pair in [(r, tau), (tau, t), (r, t)] {
                if pair.0 > 0.0 && pair.1 > 0.0 {
                    taus.push(pair);
                }
            }
        }
        taus.into_iter()
            .map(|(r, t)| Query::new(region, tokens.clone(), r, t).unwrap())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The kernel against the literal Definition 3
        /// (`SimilarityConfig::is_answer`): `verify` over every id, and
        /// a `LiveEngine`'s overlay over staged objects. Its reject
        /// fires only on pairs with `|q.R| > 0` and `|q∩o| = 0`, and on
        /// every such pair whose `o.R` has positive area — touching
        /// ones too, which would otherwise pay the full predicate for a
        /// sure zero. (A degenerate `o.R` inside `q.R` passes the four
        /// comparisons and takes the full path.)
        #[test]
        fn kernel_equals_the_literal_predicate(
            items in collection::vec((arb_rect(), arb_tokens()), 1..24),
            region in arb_rect(),
            tokens in arb_tokens(),
            tau in 1u32..=20,
        ) {
            let objects: Vec<RoiObject> =
                items.into_iter().map(|(r, t)| RoiObject::new(r, t)).collect();
            let tau = f64::from(tau) / 20.0;
            let store = ObjectStore::from_objects(objects.clone(), VOCAB);
            let w = store.weights();
            let ids: Vec<ObjectId> = store.iter().map(|(id, _)| id).collect();
            // The generation is the first half; the rest is staged.
            let cut = objects.len() / 2;
            let generation = Arc::new(ObjectStore::from_objects(objects[..cut].to_vec(), VOCAB));
            let live = LiveEngine::new(generation.clone(), FilterKind::Token);
            for o in &objects[cut..] {
                live.push(o.clone());
            }
            let gw = generation.weights();
            for q in queries(region, &tokens, tau, &objects, w) {
                let kernel = Kernel::new(&q);
                for o in &objects {
                    let (qr, or) = (q.region, o.region);
                    let disjoint = qr.area() > 0.0 && qr.intersection_area(&or) == 0.0;
                    let skips = kernel.skips(&or);
                    prop_assert!(!skips || disjoint, "skipped a scored pair: {qr:?} vs {or:?}");
                    prop_assert!(
                        skips || !disjoint || or.area() == 0.0,
                        "kept a disjoint pair: {qr:?} vs {or:?}"
                    );
                }
                let literal: Vec<ObjectId> = ids
                    .iter()
                    .copied()
                    .filter(|&id| SimilarityConfig.is_answer(&q, store.get(id), w))
                    .collect();
                let mut stats = SearchStats::new();
                prop_assert_eq!(verify(&store, &SimilarityConfig, &q, &ids, &mut stats), literal);
                // Generation and staged objects alike are judged with
                // the generation's weights.
                let overlaid: Vec<ObjectId> = ids
                    .iter()
                    .copied()
                    .filter(|&id| SimilarityConfig.is_answer(&q, store.get(id), gw))
                    .collect();
                prop_assert_eq!(live.search(&q).sorted().answers, overlaid, "{:?}", q);
            }
        }
    }
}
