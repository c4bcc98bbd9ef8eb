//! The IR-tree baseline (Section 2.3): an R-tree whose every node
//! carries the token set of its subtree ("an inverted file which maps a
//! token to the child nodes containing the token"). Traversal descends
//! into a node only if
//!
//! 1. the spatial overlap bound `|q.R ∩ n.R| ≥ c_R` holds, and
//! 2. the textual overlap bound `Σ_{t ∈ q.T ∩ n.T} w(t) ≥ c_T` holds,
//!
//! where `c_R = τ_R·|q.R|` and `c_T = τ_T·Σ_{t∈q.T} w(t)` are the same
//! thresholds SEAL derives (Sections 3.2 and 4.1). The paper shows this
//! prunes poorly — high internal nodes have huge MBRs and near-complete
//! vocabularies — and costs `H×` token storage (Table 1's 2.37 GB).

use seal_core::signatures::relax;
use seal_core::simfn::{c_r, c_t};
use seal_core::{ObjectId, ObjectStore, Query, SearchStats};
use seal_rtree::{Descend, NodeId, NodeKind, RTree, RTreeConfig};
use seal_text::{TokenId, TokenSet, TokenWeights};
use std::collections::HashMap;
use std::sync::Arc;

/// The IR-tree: R-tree + per-node subtree token sets.
pub struct IrTreeBaseline {
    store: Arc<ObjectStore>,
    tree: RTree<u32>,
    /// Subtree token union per node — the IR-tree's per-node inverted
    /// file, stored as a set (we only need membership for the bound).
    node_tokens: HashMap<NodeId, TokenSet>,
    /// Total tokens stored across all nodes (the `H×` blowup Table 1
    /// reports).
    stored_tokens: usize,
    /// Total postings of the per-node inverted files: each node's file
    /// maps a token to the child nodes (or objects, at leaves)
    /// containing it, so a node contributes one posting per
    /// (token, child) pair. This is what a real IR-tree stores on disk
    /// and why Table 1's IR-tree dwarfs every flat index.
    stored_postings: usize,
}

impl IrTreeBaseline {
    /// Bulk-loads the R-tree at the given fan-out (the paper's example
    /// uses 3, `repro` 64) and builds per-node token unions.
    pub fn build_with_fanout(store: Arc<ObjectStore>, fanout: usize) -> Self {
        let items: Vec<(seal_geom::Rect, u32)> =
            store.iter().map(|(id, o)| (o.region, id.0)).collect();
        let tree = RTree::bulk_load(items, RTreeConfig::with_fanout(fanout));
        let mut node_tokens: HashMap<NodeId, TokenSet> = HashMap::new();
        let mut stored = 0usize;
        let mut postings = 0usize;
        if let Some(root) = tree.root() {
            build_token_unions(
                &tree,
                &store,
                root,
                &mut node_tokens,
                &mut stored,
                &mut postings,
            );
        }
        IrTreeBaseline {
            store,
            tree,
            node_tokens,
            stored_tokens: stored,
            stored_postings: postings,
        }
    }

    /// The underlying tree (diagnostics).
    pub fn tree(&self) -> &RTree<u32> {
        &self.tree
    }

    /// Total tokens stored across nodes.
    pub fn stored_tokens(&self) -> usize {
        self.stored_tokens
    }

    /// The objects with `|q.R ∩ o.R| ≥ c_R` (relaxed by [`relax`])
    /// under every node both bounds let the traversal into, in
    /// traversal order; counts every leaf entry read and every node
    /// visited into `stats`.
    pub fn candidates(&self, q: &Query, stats: &mut SearchStats) -> Vec<ObjectId> {
        let c_r = relax(c_r(q));
        let c_t = relax(c_t(q, self.store.weights()));
        let weights = self.store.weights();
        let region = q.region;
        let mut out = Vec::new();
        let visited = self.tree.traverse(
            |id| {
                // Spatial bound: the node's MBR must be able to supply
                // c_R of overlap.
                if self.tree.mbr(id).intersection_area(&region) < c_r {
                    return Descend::No;
                }
                // Textual bound: the subtree vocabulary must be able to
                // supply c_T of intersection weight.
                let node_set = &self.node_tokens[&id];
                let overlap_weight: f64 = q
                    .tokens
                    .intersection(node_set)
                    .map(|t| weights.weight(t))
                    .sum();
                if overlap_weight < c_t {
                    return Descend::No;
                }
                Descend::Yes
            },
            |_, entries| {
                for e in entries {
                    stats.postings_scanned += 1;
                    if e.rect.intersection_area(&region) >= c_r {
                        out.push(ObjectId(e.value));
                    }
                }
            },
        );
        stats.nodes_visited += visited;
        out
    }

    /// Heap bytes of the tree and its per-node inverted files
    /// (Table 1's IR-tree row).
    pub fn index_bytes(&self) -> usize {
        // Tree MBRs + the per-node inverted files. A file posting is a
        // (token, child-pointer) pair; token-set membership bitmaps are
        // the `stored_tokens` term.
        self.tree.stats().size_bytes
            + self.stored_postings
                * (std::mem::size_of::<TokenId>() + std::mem::size_of::<NodeId>())
            + self.stored_tokens * std::mem::size_of::<TokenId>()
            + self.node_tokens.len() * std::mem::size_of::<TokenSet>()
    }
}

fn build_token_unions(
    tree: &RTree<u32>,
    store: &ObjectStore,
    node: NodeId,
    out: &mut HashMap<NodeId, TokenSet>,
    stored: &mut usize,
    postings: &mut usize,
) -> TokenSet {
    let set = match tree.kind(node) {
        NodeKind::Leaf(entries) => {
            let mut ids: Vec<TokenId> = Vec::new();
            for e in entries {
                let tokens = &store.get(ObjectId(e.value)).tokens;
                // Leaf inverted file: token -> object, one posting per
                // (token, entry) pair.
                *postings += tokens.len();
                ids.extend(tokens.iter());
            }
            TokenSet::from_ids(ids)
        }
        NodeKind::Internal(children) => {
            let mut ids: Vec<TokenId> = Vec::new();
            for &c in children.iter() {
                let child_set = build_token_unions(tree, store, c, out, stored, postings);
                // Internal inverted file: token -> child node, one
                // posting per (token, child) pair.
                *postings += child_set.len();
                ids.extend(child_set.iter());
            }
            TokenSet::from_ids(ids)
        }
    };
    *stored += set.len();
    out.insert(node, set.clone());
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_core::store::figure1_store;
    use seal_core::verify::{naive_search, verify};
    use seal_core::SimilarityConfig;

    #[test]
    fn irtree_finds_all_answers() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig;
        // Fan-out 3 matches Figure 2's example tree.
        let f = IrTreeBaseline::build_with_fanout(store.clone(), 3);
        for (tr, tt) in [(0.1, 0.1), (0.25, 0.3), (0.5, 0.5)] {
            let q = q0.with_thresholds(tr, tt).unwrap();
            let mut stats = SearchStats::new();
            let cands = f.candidates(&q, &mut stats);
            let answers = naive_search(&store, &cfg, &q);
            let mut vstats = SearchStats::new();
            assert_eq!(verify(&store, &cfg, &q, &cands, &mut vstats), answers);
            assert!(stats.nodes_visited >= 1);
        }
    }

    #[test]
    fn token_blowup_is_height_bounded() {
        // Every object token is stored at most H times (once per level).
        let (store, _q) = figure1_store();
        let store = Arc::new(store);
        let f = IrTreeBaseline::build_with_fanout(store.clone(), 3);
        let object_tokens: usize = store.objects().iter().map(|o| o.tokens.len()).sum();
        assert!(f.stored_tokens() <= object_tokens * f.tree().height());
        assert!(
            f.stored_tokens() >= object_tokens.min(5),
            "unions are non-trivial"
        );
    }

    #[test]
    fn leaf_candidates_are_exactly_the_overlap_qualifiers() {
        // The IR-tree's final filter is the exact overlap bound
        // |q.R ∩ o.R| ≥ c_R, so its candidates must be exactly the
        // objects passing that bound (node pruning must not lose any).
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let ir = IrTreeBaseline::build_with_fanout(store.clone(), 3);
        let mut stats = SearchStats::new();
        let mut got = ir.candidates(&q, &mut stats);
        got.sort_unstable();
        let c_r = c_r(&q);
        let mut expect: Vec<ObjectId> = store
            .iter()
            .filter(|(_, o)| q.region.intersection_area(&o.region) >= c_r)
            .map(|(id, _)| id)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn accessors() {
        let (store, _q) = figure1_store();
        let f = IrTreeBaseline::build_with_fanout(Arc::new(store), 64);
        assert!(f.index_bytes() > 0);
        assert!(f.tree().len() == 7);
    }
}
