//! `Hybrid-Sig-Filter+` with hierarchical hybrid signatures
//! (Section 5.2 — the configuration the paper calls **Seal** in its
//! method comparison).

use crate::filters::{CandidateFilter, QueryContext};
use crate::signatures::hierarchical::{HierSignature, HierarchicalScheme};
use crate::signatures::textual::TextualSignature;
use crate::{ObjectId, ObjectStore, Query, SearchStats};
use seal_index::{HybridIndex, RowBuffer};
use std::sync::Arc;

/// The hierarchical hybrid filter: per-token HSS-selected grids, keys
/// are exact `(token, tree-cell)` pairs, postings carry dual bounds.
/// The scheme is bound to the index ([`HierarchicalScheme::bind`]), so
/// a probe reads each list by its pre-resolved slot.
pub struct HierarchicalFilter {
    store: Arc<ObjectStore>,
    scheme: HierarchicalScheme,
    index: HybridIndex<u128>,
    empty_token_objects: Vec<ObjectId>,
}

impl HierarchicalFilter {
    /// Builds the `HierarchicalInv` index.
    ///
    /// * `max_level` — grid-tree depth available to `HSS-Greedy`.
    /// * `budget` — `m_t`, maximum selected grids per token.
    pub fn build(store: Arc<ObjectStore>, max_level: u8, budget: usize) -> Self {
        Self::build_with_opts(store, max_level, budget, crate::BuildOpts::default())
    }

    /// Builds with explicit build options. `BuildOpts::threads` fans
    /// the per-token `HSS-Greedy` selections (the dominant build cost)
    /// and the freeze-time group sorts out over a work-stealing
    /// pool; the selected cells and the resulting index are identical
    /// for every thread count.
    pub fn build_with_opts(
        store: Arc<ObjectStore>,
        max_level: u8,
        budget: usize,
        opts: crate::BuildOpts,
    ) -> Self {
        let scheme =
            HierarchicalScheme::build_with_threads(&store, max_level, budget, opts.threads);
        let index = Self::index_over(&store, &scheme, opts.threads);
        Self::assemble(store, scheme, index)
    }

    /// Builds the filter for the **next generation** of `prev`'s store
    /// (`prev`'s store with `delta_start..` appended, ids stable),
    /// re-running `HSS-Greedy` — the dominant build cost — only for the
    /// tokens the delta touched; [`HierarchicalScheme::extend_from`]
    /// has the reuse rule and when it yields `None` (the caller then
    /// builds afresh). The postings are rebuilt in full: textual
    /// bounds carry the new generation's idf weights. The result is
    /// identical to [`build_with_opts`](Self::build_with_opts) over the
    /// union store.
    pub fn build_extended(
        prev: &HierarchicalFilter,
        store: Arc<ObjectStore>,
        delta_start: usize,
        opts: crate::BuildOpts,
    ) -> Option<Self> {
        let scheme =
            HierarchicalScheme::extend_from(&prev.scheme, &store, delta_start, opts.threads)?;
        let index = Self::index_over(&store, &scheme, opts.threads);
        Some(Self::assemble(store, scheme, index))
    }

    /// Freezes every object's hybrid signature postings over the
    /// unbound `scheme`, each tagged with its `(token, cell)` entry as
    /// its group — shared by the fresh and generation-extending builds.
    fn index_over(
        store: &ObjectStore,
        scheme: &HierarchicalScheme,
        threads: usize,
    ) -> HybridIndex<u128> {
        let mut rows = RowBuffer::new();
        let (mut tsig, mut hsig) = (TextualSignature::default(), HierSignature::default());
        for (id, o) in store.iter() {
            tsig.rebuild(&o.tokens, store.weights(), store.token_order());
            for (telem, tbound) in tsig.elements_with_bounds() {
                scheme.signature_into(telem.token, &o.region, &mut hsig);
                for (gelem, gbound) in hsig.elements_with_bounds() {
                    rows.push((gelem.group(), id.0, [gbound, tbound]));
                }
            }
        }
        HybridIndex::from_groups(&scheme.group_keys(), rows, threads)
    }

    /// Assembles the filter around a scheme and the finalized index
    /// built (or loaded) over it: binds the scheme's list slots to the
    /// index and derives the empty-token list from the store.
    pub(crate) fn assemble(
        store: Arc<ObjectStore>,
        mut scheme: HierarchicalScheme,
        index: HybridIndex<u128>,
    ) -> Self {
        scheme.bind(&index);
        let empty = crate::filters::empty_token_objects(&store);
        HierarchicalFilter {
            store,
            scheme,
            index,
            empty_token_objects: empty,
        }
    }

    /// The hierarchical scheme (per-token grids).
    pub fn scheme(&self) -> &HierarchicalScheme {
        &self.scheme
    }

    /// The underlying index (diagnostics).
    pub fn index(&self) -> &HybridIndex<u128> {
        &self.index
    }
}

impl CandidateFilter for HierarchicalFilter {
    fn name(&self) -> &'static str {
        "Seal"
    }

    fn candidates_into(&self, q: &Query, ctx: &mut QueryContext, stats: &mut SearchStats) {
        let store = &self.store;
        ctx.candidates.clear();
        if q.tokens.is_empty() {
            ctx.candidates.extend_from_slice(&self.empty_token_objects);
            return;
        }
        let c_t = crate::signatures::relax(crate::simfn::c_t(q, store.weights()));
        let c_r = crate::signatures::relax(crate::simfn::c_r(q));
        ctx.textual
            .rebuild(&q.tokens, store.weights(), store.token_order());
        ctx.dedup.begin(store.len());
        for telem in ctx.textual.prefix(c_t) {
            // Example 5: generate the query's signature over *this
            // token's* grids and prefix-prune it spatially. Tokens
            // absent from the corpus have no grids: an empty signature.
            self.scheme
                .signature_into(telem.token, &q.region, &mut ctx.hier);
            for gelem in ctx.hier.prefix(c_r) {
                stats.lists_probed += 1;
                let Some(slot) = gelem.slot() else { continue };
                for o in self.index.qualifying_at(slot, c_r, c_t) {
                    stats.postings_scanned += 1;
                    if ctx.dedup.insert(o) {
                        ctx.candidates.push(ObjectId(o));
                    }
                }
            }
        }
    }

    fn index_bytes(&self) -> usize {
        self.index.size_bytes() + self.scheme.size_bytes()
    }

    fn persisted_sections(&self) -> Vec<(u16, Vec<u8>)> {
        let mut sections = vec![(
            crate::persist::SECTION_HIER_SCHEME,
            crate::persist::encode_scheme(&self.scheme),
        )];
        sections.extend(crate::persist::primary_section(self.index.to_bytes()));
        sections
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;
    use crate::verify::{naive_search, verify};
    use crate::SimilarityConfig;

    #[test]
    fn hierarchical_filter_is_complete() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig;
        for budget in [1usize, 4, 8, 32] {
            let f = HierarchicalFilter::build(store.clone(), 4, budget);
            for (tr, tt) in [(0.1, 0.1), (0.25, 0.3), (0.6, 0.6)] {
                let q = q0.with_thresholds(tr, tt).unwrap();
                let mut stats = SearchStats::new();
                let cands = f.candidates(&q, &mut stats);
                let answers = naive_search(&store, &cfg, &q);
                for a in &answers {
                    assert!(
                        cands.contains(a),
                        "budget={budget} τ=({tr},{tt}): answer {a:?} missing"
                    );
                }
                let mut vstats = SearchStats::new();
                assert_eq!(verify(&store, &cfg, &q, &cands, &mut vstats), answers);
            }
        }
    }

    #[test]
    fn larger_budgets_do_not_expand_candidates_on_example() {
        // Section 5.2's motivation: finer, better-placed grids tighten
        // the weight upper bounds, so candidates shrink (or stay equal).
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let coarse = HierarchicalFilter::build(store.clone(), 4, 1);
        let fine = HierarchicalFilter::build(store.clone(), 4, 16);
        let mut s1 = SearchStats::new();
        let mut s2 = SearchStats::new();
        let c1 = coarse.candidates(&q, &mut s1).len();
        let c2 = fine.candidates(&q, &mut s2).len();
        assert!(c2 <= c1, "budget 16 gave {c2} > budget 1's {c1}");
    }

    #[test]
    fn build_extended_equals_fresh_union_build() {
        use seal_geom::Rect;
        use seal_text::{TokenId, TokenSet};
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig;
        let prev =
            HierarchicalFilter::build_with_opts(store.clone(), 4, 8, crate::BuildOpts::default());
        let delta = vec![
            crate::RoiObject::new(
                Rect::new(25.0, 20.0, 60.0, 42.0).unwrap(),
                TokenSet::from_ids([TokenId(0), TokenId(1), TokenId(2)]),
            ),
            crate::RoiObject::new(
                Rect::new(90.0, 10.0, 118.0, 30.0).unwrap(),
                TokenSet::from_ids([TokenId(4)]),
            ),
        ];
        let union = Arc::new(store.extended(&delta));
        let extended = HierarchicalFilter::build_extended(
            &prev,
            union.clone(),
            store.len(),
            crate::BuildOpts::default(),
        )
        .expect("space unchanged");
        let fresh = HierarchicalFilter::build(union.clone(), 4, 8);
        assert_eq!(
            extended.scheme().selected_cells_sorted(),
            fresh.scheme().selected_cells_sorted(),
        );
        assert_eq!(
            extended.index().posting_count(),
            fresh.index().posting_count(),
        );
        // And end to end: identical answers, including for the new ids.
        for (tr, tt) in [(0.1, 0.1), (0.25, 0.3), (0.6, 0.6)] {
            let q = q0.with_thresholds(tr, tt).unwrap();
            let mut s1 = SearchStats::new();
            let mut s2 = SearchStats::new();
            let a = verify(&union, &cfg, &q, &extended.candidates(&q, &mut s1), &mut s1);
            let b = verify(&union, &cfg, &q, &fresh.candidates(&q, &mut s2), &mut s2);
            assert_eq!(a, b, "τ=({tr},{tt})");
            assert_eq!(a, naive_search(&union, &cfg, &q));
        }
    }

    #[test]
    fn name_and_sizes() {
        let (store, _q) = figure1_store();
        let f = HierarchicalFilter::build(Arc::new(store), 3, 8);
        assert_eq!(f.name(), "Seal");
        assert!(f.index_bytes() > 0);
        assert!(f.scheme().total_cells() > 0);
        assert!(f.index().posting_count() > 0);
    }
}
