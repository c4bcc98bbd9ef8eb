//! The Keyword-first baseline (Section 2.3): inverted index from tokens
//! to objects; compute the exact textual similarity of every object
//! sharing a token with the query, keep those with `simT ≥ τ_T`, verify
//! the spatial predicate afterwards.

use seal_core::signatures::relax;
use seal_core::{ObjectId, ObjectStore, Query, SearchStats};
use seal_index::InvertedIndex;
use seal_text::TokenWeights;
use std::sync::Arc;

/// Keyword-first: exact textual filtering, no spatial pruning.
pub struct KeywordFirst {
    store: Arc<ObjectStore>,
    index: InvertedIndex<u32>,
    /// Σ_{t ∈ o.T} w(t) per object, for the Jaccard denominator.
    object_weights: Vec<f64>,
    empty_token_objects: Vec<ObjectId>,
}

impl KeywordFirst {
    /// Builds the token inverted index (postings carry token weights).
    pub fn build(store: Arc<ObjectStore>) -> Self {
        let mut index: InvertedIndex<u32> = InvertedIndex::new();
        let mut empty = Vec::new();
        let mut object_weights = Vec::with_capacity(store.len());
        for (id, o) in store.iter() {
            object_weights.push(store.weights().set_weight(&o.tokens));
            if o.tokens.is_empty() {
                empty.push(id);
                continue;
            }
            for t in o.tokens.iter() {
                index.push(t.0, id.0, store.weights().weight(t));
            }
        }
        index.finalize();
        KeywordFirst {
            store,
            index,
            object_weights,
            empty_token_objects: empty,
        }
    }

    /// The objects whose weighted Jaccard with the query reaches
    /// `τ_T` (relaxed by [`relax`], as every filter's bound is), in
    /// first-touch order; counts every list probed and every posting
    /// read into `stats`.
    pub fn candidates(&self, q: &Query, stats: &mut SearchStats) -> Vec<ObjectId> {
        if q.tokens.is_empty() {
            return self.empty_token_objects.clone();
        }
        let w_q = self.store.weights().set_weight(&q.tokens);
        // Per-object intersection weight, summed in query-token order.
        let mut inter = vec![0.0f64; self.store.len()];
        let mut seen = vec![false; self.store.len()];
        let mut touched = Vec::new();
        for t in q.tokens.iter() {
            stats.lists_probed += 1;
            if let Some(list) = self.index.list(&t.0) {
                stats.postings_scanned += list.len();
                for (&o, &w) in list.ids.iter().zip(list.bounds[0]) {
                    let i = o as usize;
                    if !seen[i] {
                        seen[i] = true;
                        touched.push(o);
                    }
                    inter[i] += w; // = w(t)
                }
            }
        }
        let tau = relax(q.tau_textual);
        touched
            .into_iter()
            .filter(|&o| {
                let (inter, w_o) = (inter[o as usize], self.object_weights[o as usize]);
                // Weighted Jaccard from the accumulated intersection
                // weight and the two set weights: the intersection set
                // is never materialized.
                let union = w_q + w_o - inter;
                let sim = if union <= 0.0 { 1.0 } else { inter / union };
                sim >= tau
            })
            .map(ObjectId)
            .collect()
    }

    /// Heap bytes of the token index and the per-object set weights
    /// (Table 1).
    pub fn index_bytes(&self) -> usize {
        self.index.size_bytes() + self.object_weights.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_core::store::figure1_store;
    use seal_core::verify::{naive_search, verify};
    use seal_core::SimilarityConfig;
    use seal_text::similarity::weighted_jaccard;

    #[test]
    fn keyword_first_finds_all_answers() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig;
        let f = KeywordFirst::build(store.clone());
        for (tr, tt) in [(0.1, 0.1), (0.25, 0.3), (0.5, 0.5)] {
            let q = q0.with_thresholds(tr, tt).unwrap();
            let mut stats = SearchStats::new();
            let cands = f.candidates(&q, &mut stats);
            let answers = naive_search(&store, &cfg, &q);
            let mut vstats = SearchStats::new();
            assert_eq!(verify(&store, &cfg, &q, &cands, &mut vstats), answers);
        }
    }

    #[test]
    fn candidates_have_exact_textual_similarity() {
        // Keyword-first's first stage *is* the textual predicate: its
        // candidates must equal the τT-qualifying objects exactly.
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let f = KeywordFirst::build(store.clone());
        let mut stats = SearchStats::new();
        let mut got = f.candidates(&q, &mut stats);
        got.sort_unstable();
        let mut expect: Vec<ObjectId> = store
            .iter()
            .filter(|(_, o)| {
                weighted_jaccard(&q.tokens, &o.tokens, store.weights()) >= q.tau_textual
            })
            .map(|(id, _)| id)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn scans_full_lists() {
        // No threshold bounds: every posting of every query token's list
        // is read — this is exactly the inefficiency SEAL removes.
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let f = KeywordFirst::build(store.clone());
        let mut stats = SearchStats::new();
        let _ = f.candidates(&q, &mut stats);
        let full: usize = q.tokens.iter().map(|t| f.index.list_len(&t.0)).sum();
        assert_eq!(stats.postings_scanned, full);
    }
}
