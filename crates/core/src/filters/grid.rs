//! Spatial filtering: `Sig-Filter+` on grid signatures (the paper's
//! **GridFilter**, Section 4.2, Example 3).

use crate::filters::{CandidateFilter, QueryContext};
use crate::signatures::grid::GridScheme;
use crate::{ObjectId, ObjectStore, Query, SearchStats};
use seal_index::InvertedIndex;
use std::sync::Arc;

/// `Sig-Filter+` with grid-based signatures: one inverted list per grid
/// cell, postings carry Lemma 3 spatial bounds, probed only for the
/// query prefix under `c_R = τ_R · |q.R|`.
pub struct GridFilter {
    scheme: GridScheme,
    index: InvertedIndex<u64>,
    n_objects: usize,
}

impl GridFilter {
    /// Builds the `GridInv` index at the given granularity (cells per
    /// side — the paper's 256/512/1024 configurations).
    pub fn build(store: Arc<ObjectStore>, side: u32) -> Self {
        Self::build_with_opts(store, side, crate::BuildOpts::default())
    }

    /// Builds with explicit build options (`BuildOpts::threads`
    /// parallelizes the finalize-time group sorts; contents are
    /// identical for every thread count).
    pub fn build_with_opts(store: Arc<ObjectStore>, side: u32, opts: crate::BuildOpts) -> Self {
        let scheme = GridScheme::build(&store, side);
        let mut index: InvertedIndex<u64> = InvertedIndex::new();
        for (id, o) in store.iter() {
            let sig = scheme.signature(&o.region);
            for (elem, bound) in sig.elements_with_bounds() {
                index.push(elem.cell, id.0, bound);
            }
        }
        index.finalize_with_threads(opts.threads);
        GridFilter {
            scheme,
            index,
            n_objects: store.len(),
        }
    }

    /// Reassembles the filter around a loaded index. The scheme is a
    /// deterministic function of `(store, side)`, so only the index and
    /// the granularity need persisting.
    pub(crate) fn from_loaded(store: &ObjectStore, side: u32, index: InvertedIndex<u64>) -> Self {
        GridFilter {
            scheme: GridScheme::build(store, side),
            index,
            n_objects: store.len(),
        }
    }
}

impl CandidateFilter for GridFilter {
    fn name(&self) -> &'static str {
        "GridFilter"
    }

    fn candidates_into(&self, q: &Query, ctx: &mut QueryContext, stats: &mut SearchStats) {
        let c_r = crate::signatures::relax(crate::simfn::c_r(q));
        self.scheme.signature_into(&q.region, &mut ctx.grid);
        ctx.candidates.clear();
        ctx.dedup.begin(self.n_objects);
        for elem in ctx.grid.prefix(c_r) {
            stats.lists_probed += 1;
            // The qualifying prefix comes back as an in-place slice of
            // the arena's id column.
            let ids = self.index.qualifying(&elem.cell, c_r);
            stats.postings_scanned += ids.len();
            for &o in ids {
                if ctx.dedup.insert(o) {
                    ctx.candidates.push(ObjectId(o));
                }
            }
        }
    }

    fn index_bytes(&self) -> usize {
        self.index.size_bytes() + self.scheme.size_bytes()
    }

    fn persisted_sections(&self) -> Vec<(u16, Vec<u8>)> {
        crate::persist::primary_section(self.index.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;
    use crate::verify::{naive_search, verify};
    use crate::SimilarityConfig;

    #[test]
    fn grid_filter_is_complete_across_granularities() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig;
        for side in [1u32, 2, 4, 8, 16, 64] {
            let f = GridFilter::build(store.clone(), side);
            for tau_r in [0.05, 0.25, 0.5, 0.9] {
                let q = q0.with_thresholds(tau_r, 0.3).unwrap();
                let mut stats = SearchStats::new();
                let cands = f.candidates(&q, &mut stats);
                let answers = naive_search(&store, &cfg, &q);
                for a in &answers {
                    assert!(
                        cands.contains(a),
                        "side={side} τR={tau_r}: answer {a:?} missing"
                    );
                }
                let mut vstats = SearchStats::new();
                assert_eq!(verify(&store, &cfg, &q, &cands, &mut vstats), answers);
            }
        }
    }

    #[test]
    fn finer_grids_prune_at_least_as_well_on_example() {
        // Section 4.3's tension: fine granularity → fewer candidates.
        // On the Figure-1 data a 16×16 grid must not produce more
        // candidates than the 1×1 grid (which admits everything).
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let coarse = GridFilter::build(store.clone(), 1);
        let fine = GridFilter::build(store.clone(), 16);
        let mut s1 = SearchStats::new();
        let mut s2 = SearchStats::new();
        let c_coarse = coarse.candidates(&q, &mut s1);
        let c_fine = fine.candidates(&q, &mut s2);
        assert!(c_fine.len() <= c_coarse.len());
    }

    #[test]
    fn disjoint_query_yields_no_candidates_at_fine_grain() {
        use seal_geom::Rect;
        let (store, _q) = figure1_store();
        let store = Arc::new(store);
        let f = GridFilter::build(store.clone(), 64);
        // A query region in an empty corner of the space.
        let q = Query::with_token_ids(
            Rect::new(60.0, 95.0, 70.0, 110.0).unwrap(),
            [seal_text::TokenId(0)],
            0.5,
            0.3,
        )
        .unwrap();
        let mut stats = SearchStats::new();
        let cands = f.candidates(&q, &mut stats);
        let cfg = SimilarityConfig;
        let answers = naive_search(&store, &cfg, &q);
        assert!(answers.is_empty());
        // At fine granularity no object shares a prefix cell.
        assert!(
            cands.len() <= 1,
            "expected near-empty candidates, got {cands:?}"
        );
    }

    #[test]
    fn stats_count_probes() {
        let (store, q) = figure1_store();
        let f = GridFilter::build(Arc::new(store), 8);
        let mut stats = SearchStats::new();
        let _ = f.candidates(&q, &mut stats);
        assert!(stats.lists_probed > 0);
        assert_eq!(f.name(), "GridFilter");
        assert!(f.index_bytes() > 0);
    }
}
