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
/// [`skips_cells`](Self::skips_cells) makes the same test on the
/// store's cell column, and rejects only pairs `skips` rejects.
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

    /// [`skips`](Self::skips) on the cells of `q.R` (`q`) and of a
    /// candidate (`o`) on one [`CellGrid`](crate::store::CellGrid),
    /// `[min x, min y, max x, max y]`. A corner in a higher cell lies
    /// strictly beyond the other, so cells apart put the rects apart;
    /// corners that share a cell keep the candidate.
    #[inline]
    pub(crate) fn skips_cells(&self, q: &[u16; 4], o: &[u16; 4]) -> bool {
        let overlap = (q[0] <= o[2]) & (o[0] <= q[2]) & (q[1] <= o[3]) & (o[1] <= q[3]);
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
/// outright (its `simR` is 0), first from the store's cell column and
/// then from its rect, and the rest run the literal predicate.
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
    let cells = store.cells();
    let q_cells = store.cell_grid().cells(&q.region);
    let mut answers = Vec::new();
    for &id in candidates {
        if kernel.skips_cells(&q_cells, &cells[id.index()]) {
            continue;
        }
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
    fn cell_column_rejects_the_separated_objects() {
        let (store, q) = figure1_store();
        let kernel = Kernel::new(&q);
        let q_cells = store.cell_grid().cells(&q.region);
        let by_cells: Vec<usize> = (0..store.len())
            .filter(|&i| kernel.skips_cells(&q_cells, &store.cells()[i]))
            .collect();
        let by_rects: Vec<usize> = (0..store.len())
            .filter(|&i| kernel.skips(&store.objects()[i].region))
            .collect();
        // o7 touches q.R's bottom edge: its top corner shares a cell
        // with q.R's bottom one, so only the rect test rejects it.
        assert_eq!(by_cells, [0, 2, 3, 4, 5]);
        assert_eq!(by_rects, [0, 2, 3, 4, 5, 6]);
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

#[cfg(test)]
mod cell_proptests {
    use super::*;
    use crate::store::CellGrid;
    use proptest::prelude::*;
    use seal_geom::MAX_COORDINATE;
    use seal_text::TokenSet;

    /// A signed coordinate from each regime the cell arithmetic meets:
    /// zero and subnormals, any magnitude up to `MAX_COORDINATE` (where
    /// `(v − origin)·scale` overflows to ∞ or a tiny extent makes the
    /// scale overflow), and small integers.
    fn coordinate() -> impl Strategy<Value = f64> {
        (0u8..3, 0u8..2, 0u64..1 << 52, 1u64..=1523, 0u32..8).prop_map(
            |(kind, sign, mantissa, exponent, small)| {
                let magnitude = match kind {
                    0 => f64::from_bits(mantissa),
                    1 => f64::from_bits(exponent << 52 | mantissa).min(MAX_COORDINATE),
                    _ => f64::from(small),
                };
                if sign == 0 {
                    magnitude
                } else {
                    -magnitude
                }
            },
        )
    }

    /// A coordinate pool and three rects on it — a space, an object and
    /// a query — with every corner drawn from a few coordinates and
    /// their `f64` successors: the rects often share an edge or a
    /// corner, nest or coincide, any can be zero-width or one ulp thin,
    /// and the object or the query can lie partly or wholly outside the
    /// space.
    fn world() -> impl Strategy<Value = (Vec<f64>, [Rect; 3])> {
        (
            collection::vec(coordinate(), 3..6),
            collection::vec(0usize..64, 12..13),
        )
            .prop_map(|(mut pool, picks)| {
                for i in 0..pool.len() {
                    pool.push(pool[i].next_up().min(MAX_COORDINATE));
                }
                let c = |i: usize| pool[picks[i] % pool.len()];
                let rect = |i: usize| {
                    let (a, b, c, d) = (c(i), c(i + 1), c(i + 2), c(i + 3));
                    Rect::new(a.min(c), b.min(d), a.max(c), b.max(d)).unwrap()
                };
                let rects = [rect(0), rect(4), rect(8)];
                (pool, rects)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        /// A coordinate's cell never falls as the coordinate grows, on
        /// either axis, and a cell-column reject implies the exact rect
        /// reject, so the column never drops an answer.
        #[test]
        fn cell_reject_implies_the_exact_reject(world in world()) {
            let (pool, [space, o, region]) = world;
            let grid = CellGrid::over(&space);
            let cell = |v: f64| grid.cells(&Rect::new(v, v, v, v).unwrap());
            for &a in &pool {
                for &b in pool.iter().filter(|&&b| a <= b) {
                    let (ca, cb) = (cell(a), cell(b));
                    prop_assert!(ca[0] <= cb[0] && ca[1] <= cb[1], "{a:e} above {b:e} in {space:?}");
                }
            }
            let q = Query::new(region, TokenSet::empty(), 0.5, 0.5).unwrap();
            let kernel = Kernel::new(&q);
            let column = kernel.skips_cells(&grid.cells(&region), &grid.cells(&o));
            prop_assert!(
                !column || kernel.skips(&o),
                "column rejected {o:?} against {region:?} in {space:?}"
            );
        }
    }
}
