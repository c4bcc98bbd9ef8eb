//! Definition 3's answer predicate — spatial Jaccard (Definition 1)
//! and weighted Jaccard (Definition 2) — and the two signature
//! thresholds the filters derive from it: `c_R` (Section 4.1) and
//! `c_T` (Section 3.2).

use crate::{Query, RoiObject};
use seal_text::{similarity, TokenWeights};

/// Rejects NaN similarity scores at the evaluation boundary — the
/// same policy `Arena::push_row` applies to index bounds at insert
/// time. Every score consumer (the answer predicate, `search_top_k`'s
/// `total_cmp` ranking) assumes a NaN-free domain; a NaN that slipped
/// through would order arbitrarily rather than fail loudly, so it is
/// stopped here, at the one place scores are produced.
#[inline]
fn check_sim(s: f64, what: &str) -> f64 {
    assert!(
        !s.is_nan(),
        "NaN {what} similarity rejected at the simfn boundary"
    );
    s
}

/// Spatial Jaccard similarity between a query and an object.
///
/// # Panics
/// If the score is NaN (cannot happen over valid rectangles; the check
/// guards the total-order contract downstream).
#[inline]
pub(crate) fn spatial_sim(q: &Query, o: &RoiObject) -> f64 {
    check_sim(q.region.jaccard(&o.region), "spatial")
}

/// Weighted Jaccard similarity between a query and an object.
///
/// # Panics
/// If the score is NaN (see [`spatial_sim`]).
#[inline]
pub(crate) fn textual_sim<W: TokenWeights>(q: &Query, o: &RoiObject, w: &W) -> f64 {
    check_sim(
        similarity::weighted_jaccard(&q.tokens, &o.tokens, w),
        "textual",
    )
}

/// The full answer predicate of Definition 3.
#[inline]
pub(crate) fn is_answer<W: TokenWeights>(q: &Query, o: &RoiObject, w: &W) -> bool {
    // Spatial first: the area test is a handful of flops while the
    // textual test walks two token lists.
    spatial_sim(q, o) >= q.tau_spatial && textual_sim(q, o, w) >= q.tau_textual
}

/// `c_R = τ_R · |q.R|` (Section 4.1): `simR(q,o) ≥ τ_R` implies
/// `|q∩o| ≥ τ_R·|q∪o| ≥ c_R`.
#[inline]
pub fn c_r(q: &Query) -> f64 {
    q.tau_spatial * q.region.area()
}

/// `c_T = τ_T · Σ_{t∈q} w(t)` (Section 3.2).
#[inline]
pub fn c_t<W: TokenWeights>(q: &Query, w: &W) -> f64 {
    similarity::signature_threshold(&q.tokens, w, q.tau_textual)
}

/// The similarity the engines answer with, as a value. It has one
/// setting — spatial Jaccard plus weighted Jaccard — and exists only
/// because the benchmark package links `SimilarityConfig::default()`,
/// `SealEngine::config()`, `is_answer` and the `SimilarityConfig`
/// parameters of `verify`, `naive_search` and the engine
/// constructors.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimilarityConfig;

impl SimilarityConfig {
    /// Definition 3's answer predicate.
    #[inline]
    pub fn is_answer<W: TokenWeights>(&self, q: &Query, o: &RoiObject, w: &W) -> bool {
        is_answer(q, o, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_geom::Rect;
    use seal_text::{IdfWeights, TokenId, TokenSet};

    fn fig1_weights() -> IdfWeights {
        IdfWeights::from_values(vec![0.8, 0.3, 0.8, 1.3, 0.6])
    }

    fn query() -> Query {
        // Figure 1's query: Rq with tokens {t1,t2,t3}, τR=0.25, τT=0.3.
        Query::with_token_ids(
            Rect::new(20.0, 30.0, 80.0, 90.0).unwrap(),
            [TokenId(0), TokenId(1), TokenId(2)],
            0.25,
            0.3,
        )
        .unwrap()
    }

    #[test]
    fn example1_answer_decision() {
        let w = fig1_weights();
        let q = query();
        // o2 = same tokens as q, heavily-overlapping region.
        let o2 = RoiObject::new(
            Rect::new(10.0, 20.0, 70.0, 80.0).unwrap(),
            TokenSet::from_ids([TokenId(0), TokenId(1), TokenId(2)]),
        );
        assert_eq!(textual_sim(&q, &o2, &w), 1.0);
        assert!(spatial_sim(&q, &o2) >= 0.25);
        assert!(is_answer(&q, &o2, &w));
        assert!(SimilarityConfig.is_answer(&q, &o2, &w));
        // o1 = good tokens, poor region.
        let o1 = RoiObject::new(
            Rect::new(70.0, 80.0, 95.0, 95.0).unwrap(),
            TokenSet::from_ids([TokenId(0), TokenId(1)]),
        );
        assert!(textual_sim(&q, &o1, &w) >= 0.3);
        assert!(spatial_sim(&q, &o1) < 0.25);
        assert!(!is_answer(&q, &o1, &w));
        assert!(!SimilarityConfig.is_answer(&q, &o1, &w));
    }

    #[test]
    fn thresholds_match_paper_formulas() {
        let w = fig1_weights();
        let q = query();
        // cR = τR · |q.R| = 0.25 · 3600 = 900.
        assert!((c_r(&q) - 900.0).abs() < 1e-9);
        // cT = τT · Σ w = 0.3 · 1.9 = 0.57.
        assert!((c_t(&q, &w) - 0.57).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use seal_geom::Rect;
    use seal_text::TokenSet;

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (0.0f64..100.0, 0.0f64..100.0, 0.0f64..60.0, 0.0f64..60.0)
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h).unwrap())
    }

    proptest! {
        #[test]
        fn jaccard_at_tau_implies_overlap_threshold(
            qr in arb_rect(),
            or in arb_rect(),
            tau in 0.0f64..1.0,
        ) {
            // Section 4.1's bound, at a random τ and at the tightest τ
            // (the pair's own similarity).
            let sim = qr.jaccard(&or);
            let overlap = qr.intersection_area(&or);
            for tau in [tau, sim] {
                if sim >= tau && tau > 0.0 {
                    let q = Query::new(qr, TokenSet::empty(), tau, 1.0).unwrap();
                    prop_assert!(overlap + 1e-9 * qr.area().max(1.0) >= c_r(&q));
                }
            }
        }
    }
}
