//! Textual filtering: `Sig-Filter+` on token signatures (the paper's
//! **TokenFilter**).

use crate::filters::{CandidateFilter, QueryContext};
use crate::persist::primary_section;
use crate::signatures::textual::TextualSignature;
use crate::{ObjectId, ObjectStore, Query, SearchStats};
use seal_index::{InvertedIndex, Postings, RowBuffer, Storage};
use std::sync::Arc;

/// `Sig-Filter+` with textual signatures: token inverted lists with
/// Lemma 3 threshold bounds, probed only for the query's Lemma 2
/// prefix.
///
/// The lists are served in the [`Storage`] form the filter was built
/// with, behind one probe: the uncompressed arena returns qualifying
/// prefixes as slices of its id column; the compressed arena cuts the
/// quantized bound column in place and decodes only the qualifying
/// prefix into the caller's [`QueryContext`] scratch. Both are
/// allocation-free on a warm context; the compressed form trades ~4×
/// smaller lists for the prefix decode and a superset-only candidate
/// guarantee (bounds round up by at most one quantization step —
/// verification removes the extras).
///
/// The build hashes no key: a token id is its list's group number, and
/// the rows freeze through [`InvertedIndex::from_groups`], as the Seal
/// build's do. The Grid and HashHybrid builds still group their rows
/// through the arena's key hash map.
pub struct TokenFilter {
    store: Arc<ObjectStore>,
    postings: Postings<u32, 1>,
    /// Objects with empty token sets: they can only match queries whose
    /// token sets are also empty (simT = 1 by convention), and inverted
    /// lists never enumerate them.
    empty_token_objects: Vec<ObjectId>,
}

impl TokenFilter {
    /// Builds the `TokenInv` index over a store (uncompressed arena).
    pub fn build(store: Arc<ObjectStore>) -> Self {
        Self::build_with_opts(store, crate::BuildOpts::default(), Storage::Arena)
    }

    /// Builds with explicit build options (`BuildOpts::threads`
    /// parallelizes the freeze-time group sorts; the index contents
    /// are identical for every thread count) and storage form (the
    /// frozen arena as it is, or compressed once).
    pub fn build_with_opts(
        store: Arc<ObjectStore>,
        opts: crate::BuildOpts,
        storage: Storage,
    ) -> Self {
        // A token id is its group number. The key table runs to the
        // largest id seen, not to the vocabulary size, so an id past
        // the vocabulary still gets its list; ids without postings
        // leave none.
        let mut rows = RowBuffer::new();
        let mut max_token = None;
        let mut sig = TextualSignature::default();
        for (id, o) in store.iter() {
            sig.rebuild(&o.tokens, store.weights(), store.token_order());
            for (elem, bound) in sig.elements_with_bounds() {
                max_token = max_token.max(Some(elem.token.0));
                rows.push((elem.token.0, id.0, [bound]));
            }
        }
        let keys: Vec<u32> = max_token.map_or_else(Vec::new, |max| (0..=max).collect());
        let index = InvertedIndex::from_groups(&keys, rows, opts.threads);
        Self::from_loaded(store, Postings::freeze(index, storage))
    }

    /// Assembles the filter around built or loaded postings. The
    /// empty-token list is a pure function of the store, so only the
    /// postings need persisting.
    pub(crate) fn from_loaded(store: Arc<ObjectStore>, postings: Postings<u32, 1>) -> Self {
        let empty = crate::filters::empty_token_objects(&store);
        TokenFilter {
            store,
            postings,
            empty_token_objects: empty,
        }
    }

    /// The posting lists, in the storage form they are served from
    /// (diagnostics).
    pub fn postings(&self) -> &Postings<u32, 1> {
        &self.postings
    }
}

impl CandidateFilter for TokenFilter {
    fn name(&self) -> &'static str {
        match self.postings.storage() {
            Storage::Arena => "TokenFilter",
            Storage::Compressed => "TokenFilterCompressed",
        }
    }

    fn candidates_into(&self, q: &Query, ctx: &mut QueryContext, stats: &mut SearchStats) {
        let store = &self.store;
        ctx.candidates.clear();
        if q.tokens.is_empty() {
            // Only empty-token objects can reach simT ≥ τT > 0.
            ctx.candidates.extend_from_slice(&self.empty_token_objects);
            return;
        }
        ctx.textual
            .rebuild(&q.tokens, store.weights(), store.token_order());
        let c_t = crate::signatures::relax(crate::simfn::c_t(q, store.weights()));
        ctx.dedup.begin(store.len());
        for elem in ctx.textual.prefix(c_t) {
            stats.lists_probed += 1;
            // An id slice either way: in place from the arena's id
            // column, or block-decoded into the context scratch.
            let ids = self
                .postings
                .qualifying_into(&elem.token.0, [c_t], &mut ctx.decode);
            stats.postings_scanned += ids.len();
            for &o in ids {
                if ctx.dedup.insert(o) {
                    ctx.candidates.push(ObjectId(o));
                }
            }
        }
    }

    fn index_bytes(&self) -> usize {
        self.postings.size_bytes()
    }

    fn persisted_sections(&self) -> Vec<(u16, Vec<u8>)> {
        primary_section(self.postings.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;
    use crate::verify::{naive_search, verify};
    use crate::SimilarityConfig;

    fn ids(v: &[u32]) -> Vec<ObjectId> {
        v.iter().map(|&i| ObjectId(i)).collect()
    }

    #[test]
    fn figure4_candidates() {
        // Figure 4: textual filtering with cT = 0.57 produces candidates
        // {o1..o5} (o6, o7 share no prefix token with q).
        let (store, q) = figure1_store();
        let f = TokenFilter::build(Arc::new(store));
        let mut stats = SearchStats::new();
        let mut got = f.candidates(&q, &mut stats);
        got.sort_unstable();
        assert_eq!(got, ids(&[0, 1, 2, 3, 4]));
        assert!(
            stats.lists_probed <= 3,
            "prefix probes at most the 3 query tokens"
        );
    }

    #[test]
    fn candidates_are_supersets_across_thresholds() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig;
        let f = TokenFilter::build(store.clone());
        for tau_t in [0.1, 0.3, 0.5, 0.8, 1.0] {
            let q = q0.with_thresholds(0.25, tau_t).unwrap();
            let mut stats = SearchStats::new();
            let cands = f.candidates(&q, &mut stats);
            let answers = naive_search(&store, &cfg, &q);
            for a in &answers {
                assert!(cands.contains(a), "τT={tau_t}: answer {a:?} missing");
            }
            let mut vstats = SearchStats::new();
            let verified = verify(&store, &cfg, &q, &cands, &mut vstats);
            assert_eq!(verified, answers);
        }
    }

    #[test]
    fn empty_query_tokens_match_empty_objects() {
        use seal_geom::Rect;
        use seal_text::TokenSet;
        let objects = vec![
            crate::RoiObject::new(Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(), TokenSet::empty()),
            crate::RoiObject::new(
                Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(),
                TokenSet::from_ids([seal_text::TokenId(0)]),
            ),
        ];
        let store = Arc::new(ObjectStore::from_objects(objects, 1));
        let f = TokenFilter::build(store.clone());
        let q = Query::new(
            Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(),
            TokenSet::empty(),
            0.5,
            0.5,
        )
        .unwrap();
        let mut stats = SearchStats::new();
        let cands = f.candidates(&q, &mut stats);
        assert_eq!(cands, vec![ObjectId(0)]);
        // And the oracle agrees that the empty-token object is the answer.
        let cfg = SimilarityConfig;
        assert_eq!(naive_search(&store, &cfg, &q), vec![ObjectId(0)]);
    }

    /// The Token build as it was before it grouped rows by token id:
    /// every posting pushed under its key (hashed to a group), then
    /// finalized — the reference the hash-free build must equal byte
    /// for byte.
    fn pushed_postings(store: &ObjectStore, threads: usize, storage: Storage) -> Vec<u8> {
        let mut index: InvertedIndex<u32> = InvertedIndex::new();
        for (id, o) in store.iter() {
            let sig = TextualSignature::build(&o.tokens, store.weights(), store.token_order());
            for (elem, bound) in sig.elements_with_bounds() {
                index.push(elem.token.0, id.0, bound);
            }
        }
        index.finalize_with_threads(threads);
        Postings::freeze(index, storage).to_bytes()
    }

    /// A store over `(x, y, side, token ids)` objects and `vocab`.
    fn store_of(objects: &[(f64, f64, f64, Vec<u32>)], vocab: usize) -> ObjectStore {
        use seal_geom::Rect;
        use seal_text::{TokenId, TokenSet};
        let objects = objects
            .iter()
            .map(|(x, y, side, tokens)| {
                crate::RoiObject::new(
                    Rect::new(*x, *y, x + side, y + side).unwrap(),
                    TokenSet::from_ids(tokens.iter().map(|&t| TokenId(t))),
                )
            })
            .collect();
        ObjectStore::from_objects(objects, vocab)
    }

    fn assert_build_equals_push_and_finalize(store: ObjectStore) {
        let store = Arc::new(store);
        for threads in [1, 2] {
            for storage in [Storage::Arena, Storage::Compressed] {
                let opts = crate::BuildOpts::with_threads(threads);
                let built = TokenFilter::build_with_opts(store.clone(), opts, storage);
                assert_eq!(
                    built.postings().to_bytes(),
                    pushed_postings(&store, threads, storage),
                    "threads {threads}, {storage:?}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Ids are drawn from 0..24 against a vocabulary of 1..32: some
        /// ids go unused, some sit at or past the vocabulary size, and
        /// about one object in six has no tokens.
        #[test]
        fn build_equals_push_and_finalize(
            objects in proptest::collection::vec(
                (0.0f64..90.0, 0.0f64..90.0, 0.5f64..10.0, proptest::collection::vec(0u32..24, 0..6)),
                0..40,
            ),
            vocab in 1usize..32,
        ) {
            assert_build_equals_push_and_finalize(store_of(&objects, vocab));
        }
    }

    #[test]
    fn build_equals_push_and_finalize_on_edge_stores() {
        // No objects; only empty-token objects.
        assert_build_equals_push_and_finalize(store_of(&[], 0));
        assert_build_equals_push_and_finalize(store_of(&[], 5));
        assert_build_equals_push_and_finalize(store_of(&[(0.0, 0.0, 1.0, vec![])], 3));
        // Ids far past the vocabulary, and a vocabulary mostly unused.
        let objects = [
            (0.0, 0.0, 1.0, vec![0, 100]),
            (2.0, 2.0, 3.0, vec![]),
            (1.0, 1.0, 2.0, vec![100, 7]),
        ];
        assert_build_equals_push_and_finalize(store_of(&objects, 3));
        assert_build_equals_push_and_finalize(store_of(&objects, 500));
        // The figure 1 store.
        assert_build_equals_push_and_finalize(figure1_store().0);
    }

    #[test]
    fn index_bytes_nonzero() {
        let (store, _q) = figure1_store();
        let f = TokenFilter::build(Arc::new(store));
        assert!(f.index_bytes() > 0);
        assert_eq!(f.name(), "TokenFilter");
    }
}
