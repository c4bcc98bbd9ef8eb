//! The Spatial-first baseline (Section 2.3): an R-tree range search
//! computes the exact spatial similarity of every object intersecting
//! the query region, keeps those with `simR ≥ τ_R`, and verifies the
//! textual predicate afterwards.

use seal_core::signatures::relax;
use seal_core::{ObjectId, ObjectStore, Query, SearchStats};
use seal_rtree::{Descend, RTree, RTreeConfig};
use std::sync::Arc;

/// Spatial-first: exact spatial filtering via R-tree, no textual
/// pruning.
pub struct SpatialFirst {
    tree: RTree<u32>,
}

impl SpatialFirst {
    /// Bulk-loads the R-tree over the store's regions.
    pub fn build(store: Arc<ObjectStore>) -> Self {
        let items: Vec<(seal_geom::Rect, u32)> =
            store.iter().map(|(id, o)| (o.region, id.0)).collect();
        let tree = RTree::bulk_load(items, RTreeConfig::default());
        SpatialFirst { tree }
    }

    /// The objects whose spatial Jaccard with the query reaches `τ_R`
    /// (relaxed by [`relax`]), in traversal order; counts every leaf
    /// entry read and every node visited into `stats`.
    pub fn candidates(&self, q: &Query, stats: &mut SearchStats) -> Vec<ObjectId> {
        let mut out = Vec::new();
        let region = q.region;
        let tau = relax(q.tau_spatial);
        let visited = self.tree.traverse(
            |id| {
                if self.tree.mbr(id).intersects(&region) {
                    Descend::Yes
                } else {
                    Descend::No
                }
            },
            |_, entries| {
                for e in entries {
                    stats.postings_scanned += 1;
                    if e.rect.jaccard(&region) >= tau {
                        out.push(ObjectId(e.value));
                    }
                }
            },
        );
        stats.nodes_visited += visited;
        out
    }

    /// Heap bytes of the R-tree (Table 1).
    pub fn index_bytes(&self) -> usize {
        self.tree.stats().size_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_core::store::figure1_store;
    use seal_core::verify::{naive_search, verify};
    use seal_core::SimilarityConfig;

    #[test]
    fn spatial_first_finds_all_answers() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig;
        let f = SpatialFirst::build(store.clone());
        for (tr, tt) in [(0.1, 0.1), (0.25, 0.3), (0.5, 0.5), (0.95, 0.95)] {
            let q = q0.with_thresholds(tr, tt).unwrap();
            let mut stats = SearchStats::new();
            let cands = f.candidates(&q, &mut stats);
            let answers = naive_search(&store, &cfg, &q);
            let mut vstats = SearchStats::new();
            assert_eq!(verify(&store, &cfg, &q, &cands, &mut vstats), answers);
        }
    }

    #[test]
    fn candidates_are_exactly_spatial_matches() {
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let f = SpatialFirst::build(store.clone());
        let mut stats = SearchStats::new();
        let mut got = f.candidates(&q, &mut stats);
        got.sort_unstable();
        let mut expect: Vec<ObjectId> = store
            .iter()
            .filter(|(_, o)| q.region.jaccard(&o.region) >= q.tau_spatial)
            .map(|(id, _)| id)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert!(stats.nodes_visited >= 1);
        assert!(f.index_bytes() > 0);
    }
}
