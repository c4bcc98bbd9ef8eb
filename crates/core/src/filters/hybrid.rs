//! `Hybrid-Sig-Filter+` with hash-based hybrid signatures (Section 5.1,
//! Figure 8 — the paper's **HybridFilter**).

use crate::filters::{CandidateFilter, QueryContext};
use crate::signatures::grid::{GridScheme, GridSignature};
use crate::signatures::hash_hybrid::BucketScheme;
use crate::signatures::textual::TextualSignature;
use crate::{ObjectId, ObjectStore, Query, SearchStats};
use seal_index::{HybridIndex, Postings, Storage};
use std::sync::Arc;

/// The hash-based hybrid filter: elements are `(token, cell)` pairs
/// hashed into buckets, postings carry *both* spatial and textual
/// bounds, and only `Sp_T(q) × Sp_R(q)` pairs are probed. The lists
/// are served in the [`Storage`] form the filter was built with.
pub struct HybridFilter {
    store: Arc<ObjectStore>,
    grid: GridScheme,
    buckets: BucketScheme,
    postings: Postings<u64, 2>,
    empty_token_objects: Vec<ObjectId>,
}

impl HybridFilter {
    /// Builds the `HashInv` index (uncompressed arena).
    ///
    /// * `side` — grid granularity (cells per side).
    /// * `buckets` — [`BucketScheme::Full`] or a bucket count (the
    ///   paper's index-size constraint).
    pub fn build(store: Arc<ObjectStore>, side: u32, buckets: BucketScheme) -> Self {
        let opts = crate::BuildOpts::default();
        Self::build_with_opts(store, side, buckets, opts, Storage::Arena)
    }

    /// Builds with explicit build options (`BuildOpts::threads`
    /// parallelizes the finalize-time group sorts; contents are
    /// identical for every thread count) and storage form (the
    /// finalized arena as it is, or compressed once).
    pub fn build_with_opts(
        store: Arc<ObjectStore>,
        side: u32,
        buckets: BucketScheme,
        opts: crate::BuildOpts,
        storage: Storage,
    ) -> Self {
        let grid = GridScheme::build(&store, side);
        // Bucket keys are hashes of `(token, cell)`, not dense ids, so
        // this build still groups its rows through the arena's key map.
        let mut index: HybridIndex<u64> = HybridIndex::new();
        let (mut tsig, mut gsig) = (TextualSignature::default(), GridSignature::default());
        for (id, o) in store.iter() {
            if o.tokens.is_empty() {
                continue;
            }
            tsig.rebuild(&o.tokens, store.weights(), store.token_order());
            grid.signature_into(&o.region, &mut gsig);
            // Definition 5: SH(o) = ST(o) × SR(o) hashed into buckets.
            for (telem, tbound) in tsig.elements_with_bounds() {
                for (gelem, gbound) in gsig.elements_with_bounds() {
                    let key = buckets.key(telem.token, gelem.cell);
                    index.push(key, id.0, gbound, tbound);
                }
            }
        }
        index.finalize_with_threads(opts.threads);
        let postings = Postings::freeze(index, storage);
        Self::assemble(store, grid, buckets, postings)
    }

    /// Reassembles the filter around loaded postings. The grid scheme
    /// is a deterministic function of `(store, side)` and the
    /// empty-token list of the store, so only the postings, the
    /// granularity and the bucket scheme need persisting.
    pub(crate) fn from_loaded(
        store: Arc<ObjectStore>,
        side: u32,
        buckets: BucketScheme,
        postings: Postings<u64, 2>,
    ) -> Self {
        let grid = GridScheme::build(&store, side);
        Self::assemble(store, grid, buckets, postings)
    }

    fn assemble(
        store: Arc<ObjectStore>,
        grid: GridScheme,
        buckets: BucketScheme,
        postings: Postings<u64, 2>,
    ) -> Self {
        let empty = crate::filters::empty_token_objects(&store);
        HybridFilter {
            store,
            grid,
            buckets,
            postings,
            empty_token_objects: empty,
        }
    }

    /// The grid scheme in use.
    pub fn grid(&self) -> &GridScheme {
        &self.grid
    }

    /// The bucket scheme in use.
    pub fn buckets(&self) -> BucketScheme {
        self.buckets
    }

    /// The posting lists, in the storage form they are served from
    /// (diagnostics).
    pub fn postings(&self) -> &Postings<u64, 2> {
        &self.postings
    }
}

impl CandidateFilter for HybridFilter {
    fn name(&self) -> &'static str {
        match self.postings.storage() {
            Storage::Arena => "HybridFilter",
            Storage::Compressed => "HybridFilterCompressed",
        }
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
        self.grid.signature_into(&q.region, &mut ctx.grid);
        let tprefix = ctx.textual.prefix(c_t);
        let gprefix = ctx.grid.prefix(c_r);
        ctx.dedup.begin(store.len());
        for telem in tprefix {
            for gelem in gprefix {
                let key = self.buckets.key(telem.token, gelem.cell);
                stats.lists_probed += 1;
                let ids = self
                    .postings
                    .qualifying_into(&key, [c_r, c_t], &mut ctx.decode);
                stats.postings_scanned += ids.len();
                for &o in ids {
                    if ctx.dedup.insert(o) {
                        ctx.candidates.push(ObjectId(o));
                    }
                }
            }
        }
    }

    fn index_bytes(&self) -> usize {
        self.postings.size_bytes() + self.grid.size_bytes()
    }

    fn persisted_sections(&self) -> Vec<(u16, Vec<u8>)> {
        crate::persist::primary_section(self.postings.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;
    use crate::verify::{naive_search, verify};
    use crate::SimilarityConfig;

    #[test]
    fn hybrid_filter_is_complete() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig;
        for buckets in [
            BucketScheme::Full,
            BucketScheme::Buckets(64),
            BucketScheme::Buckets(7),
        ] {
            let f = HybridFilter::build(store.clone(), 8, buckets);
            for (tr, tt) in [(0.1, 0.1), (0.25, 0.3), (0.5, 0.5), (0.9, 0.9)] {
                let q = q0.with_thresholds(tr, tt).unwrap();
                let mut stats = SearchStats::new();
                let cands = f.candidates(&q, &mut stats);
                let answers = naive_search(&store, &cfg, &q);
                for a in &answers {
                    assert!(
                        cands.contains(a),
                        "{buckets:?} τ=({tr},{tt}): answer {a:?} missing"
                    );
                }
                let mut vstats = SearchStats::new();
                assert_eq!(verify(&store, &cfg, &q, &cands, &mut vstats), answers);
            }
        }
    }

    #[test]
    fn hybrid_prunes_at_least_as_well_as_grid_on_example() {
        // Section 5.1: hybrid = both prunings at once, so its candidate
        // set is contained in the grid filter's for the same granularity
        // (with full hashing, no bucket collisions).
        use crate::filters::GridFilter;
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let hybrid = HybridFilter::build(store.clone(), 8, BucketScheme::Full);
        let grid = GridFilter::build(store.clone(), 8);
        let mut s1 = SearchStats::new();
        let mut s2 = SearchStats::new();
        let ch: std::collections::BTreeSet<ObjectId> =
            hybrid.candidates(&q, &mut s1).into_iter().collect();
        let cg: std::collections::BTreeSet<ObjectId> =
            grid.candidates(&q, &mut s2).into_iter().collect();
        assert!(ch.is_subset(&cg), "hybrid {ch:?} ⊄ grid {cg:?}");
    }

    #[test]
    fn fewer_buckets_never_lose_answers() {
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig;
        let answers = naive_search(&store, &cfg, &q);
        // Even a pathological 2-bucket hash stays a superset.
        let f = HybridFilter::build(store.clone(), 8, BucketScheme::Buckets(2));
        let mut stats = SearchStats::new();
        let cands = f.candidates(&q, &mut stats);
        for a in &answers {
            assert!(cands.contains(a));
        }
    }

    #[test]
    fn accessors() {
        let (store, _q) = figure1_store();
        let f = HybridFilter::build(Arc::new(store), 4, BucketScheme::Buckets(32));
        assert_eq!(f.name(), "HybridFilter");
        assert_eq!(f.buckets(), BucketScheme::Buckets(32));
        assert_eq!(f.grid().side(), 4);
        assert!(f.index_bytes() > 0);
        assert!(f.postings().arena().unwrap().posting_count() > 0);
        assert!(f.postings().compressed().is_none());
    }

    #[test]
    fn compressed_mode_is_complete() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig;
        let compressed = HybridFilter::build_with_opts(
            store.clone(),
            8,
            BucketScheme::Full,
            crate::BuildOpts::default(),
            Storage::Compressed,
        );
        assert_eq!(compressed.name(), "HybridFilterCompressed");
        assert!(compressed.postings().arena().is_none());
        assert!(compressed.postings().compressed().is_some());
        // Size wins only show on dense lists (the 7-object fixture's
        // directory overhead dominates); see seal-index's
        // `dual_compression_shrinks` for the size assertion.
        assert!(compressed.index_bytes() > 0);
        for (tr, tt) in [(0.1, 0.1), (0.25, 0.3), (0.6, 0.6)] {
            let q = q0.with_thresholds(tr, tt).unwrap();
            let answers = naive_search(&store, &cfg, &q);
            let mut stats = SearchStats::new();
            let cands = compressed.candidates(&q, &mut stats);
            for a in &answers {
                assert!(cands.contains(a), "τ=({tr},{tt}): answer {a:?} missing");
            }
            let mut vstats = SearchStats::new();
            assert_eq!(verify(&store, &cfg, &q, &cands, &mut vstats), answers);
        }
    }
}
