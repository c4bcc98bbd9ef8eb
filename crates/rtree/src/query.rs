//! Overlap queries and the open traversal API.

use crate::node::{LeafEntry, NodeId, NodeKind, RTree};
use seal_geom::Rect;

/// What a traversal visitor decides at each internal node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Descend {
    /// Visit this node's children.
    Yes,
    /// Prune the whole subtree.
    No,
}

impl<T> RTree<T> {
    /// All leaf entries whose rectangles intersect `probe` (closed
    /// intersection — boundary touch counts, matching
    /// [`Rect::intersects`]).
    pub fn search_intersecting(&self, probe: &Rect) -> Vec<&LeafEntry<T>> {
        let mut out = Vec::new();
        let Some(root) = self.root else {
            return out;
        };
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !self.mbr(id).intersects(probe) {
                continue;
            }
            match self.kind(id) {
                NodeKind::Leaf(entries) => {
                    out.extend(entries.iter().filter(|e| e.rect.intersects(probe)));
                }
                NodeKind::Internal(children) => stack.extend(children.iter().copied()),
            }
        }
        out
    }

    /// Generic pruned traversal: `descend` is consulted at every
    /// internal node (given its id) and `on_leaf` receives every reached
    /// leaf node id. The IR-tree baseline uses this to apply its node
    /// bounds: it descends only if the node passes both the spatial
    /// overlap bound and the textual overlap bound (Section 2.3).
    ///
    /// Returns the number of nodes visited (root counts; pruned subtrees
    /// do not), which the benchmarks report as IR-tree node accesses.
    pub fn traverse(
        &self,
        mut descend: impl FnMut(NodeId) -> Descend,
        mut on_leaf: impl FnMut(NodeId, &[LeafEntry<T>]),
    ) -> usize {
        let Some(root) = self.root else {
            return 0;
        };
        let mut visited = 0usize;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            visited += 1;
            match self.kind(id) {
                NodeKind::Leaf(entries) => {
                    if descend(id) == Descend::Yes {
                        on_leaf(id, entries);
                    }
                }
                NodeKind::Internal(children) => {
                    if descend(id) == Descend::Yes {
                        stack.extend(children.iter().copied());
                    }
                }
            }
        }
        visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::RTreeConfig;

    fn build(n: usize) -> RTree<usize> {
        let items: Vec<(Rect, usize)> = (0..n)
            .map(|i| {
                let x = (i % 30) as f64 * 10.0;
                let y = (i / 30) as f64 * 10.0;
                (Rect::new(x, y, x + 8.0, y + 8.0).unwrap(), i)
            })
            .collect();
        RTree::bulk_load(items, RTreeConfig::with_fanout(8))
    }

    #[test]
    fn search_matches_linear_scan() {
        let t = build(300);
        let probe = Rect::new(35.0, 15.0, 95.0, 55.0).unwrap();
        let mut got: Vec<usize> = t
            .search_intersecting(&probe)
            .iter()
            .map(|e| e.value)
            .collect();
        got.sort_unstable();
        let mut expect: Vec<usize> = (0..300)
            .filter(|i| {
                let x = (i % 30) as f64 * 10.0;
                let y = (i / 30) as f64 * 10.0;
                Rect::new(x, y, x + 8.0, y + 8.0)
                    .unwrap()
                    .intersects(&probe)
            })
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_tree_queries() {
        let t: RTree<usize> = RTree::new(RTreeConfig::default());
        let probe = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
        assert!(t.search_intersecting(&probe).is_empty());
        assert_eq!(t.traverse(|_| Descend::Yes, |_, _| {}), 0);
    }

    #[test]
    fn traverse_prunes() {
        let t = build(300);
        // Never descend: only the root is visited.
        let visited = t.traverse(|_| Descend::No, |_, _| panic!("leaf reached"));
        assert_eq!(visited, 1);
        // Always descend: all nodes visited.
        let mut leaves = 0;
        let visited = t.traverse(|_| Descend::Yes, |_, _| leaves += 1);
        assert_eq!(visited, t.node_count());
        assert!(leaves > 0);
    }
}
