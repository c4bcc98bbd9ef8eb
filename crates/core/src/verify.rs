//! The verification step (`Sig-Verify`, Figure 3) and the naive-scan
//! oracle every filter is tested against.

use crate::{ObjectId, ObjectStore, Query, SearchStats, SimilarityConfig};

/// Verifies candidates against the exact similarity predicates
/// (Definition 3), appending counters to `stats`. `SimilarityConfig`
/// has one value; the parameter stays for linked callers.
pub fn verify(
    store: &ObjectStore,
    cfg: &SimilarityConfig,
    q: &Query,
    candidates: &[ObjectId],
    stats: &mut SearchStats,
) -> Vec<ObjectId> {
    let w = store.weights();
    let mut answers = Vec::new();
    for &id in candidates {
        if cfg.is_answer(q, store.get(id), w) {
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
