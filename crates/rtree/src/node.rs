//! Arena-based R-tree node storage.

use seal_geom::Rect;

/// Identifier of a node in the tree's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One data entry stored in a leaf node.
#[derive(Debug, Clone)]
pub struct LeafEntry<T> {
    /// The entry's bounding rectangle.
    pub rect: Rect,
    /// The payload (object id for the IR-tree baseline).
    pub value: T,
}

/// A node's contents: either leaf entries or child node ids.
#[derive(Debug, Clone)]
pub enum NodeKind<T> {
    /// A leaf holding data entries.
    Leaf(Vec<LeafEntry<T>>),
    /// An internal node holding children.
    Internal(Vec<NodeId>),
}

#[derive(Debug, Clone)]
pub(crate) struct NodeData<T> {
    pub(crate) mbr: Rect,
    pub(crate) kind: NodeKind<T>,
}

/// Fan-out configuration.
///
/// The paper's running example uses "a maximum fanout 3" (Figure 2); the
/// experiments use a disk-page-sized fan-out. Defaults match a 4 KB page
/// of 16-byte MBR entries minus header space.
#[derive(Debug, Clone, Copy)]
pub struct RTreeConfig {
    /// Maximum entries per node (fan-out), ≥ 2.
    pub max_entries: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig { max_entries: 64 }
    }
}

impl RTreeConfig {
    /// A config with the given fan-out (at least 2).
    pub fn with_fanout(max_entries: usize) -> Self {
        RTreeConfig {
            max_entries: max_entries.max(2),
        }
    }
}

/// An R-tree mapping rectangles to payloads.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    pub(crate) nodes: Vec<NodeData<T>>,
    pub(crate) root: Option<NodeId>,
    pub(crate) config: RTreeConfig,
    pub(crate) len: usize,
    pub(crate) height: usize,
}

impl<T> RTree<T> {
    /// An empty tree.
    pub fn new(config: RTreeConfig) -> Self {
        assert!(config.max_entries >= 2, "fan-out must be at least 2");
        RTree {
            nodes: Vec::new(),
            root: None,
            config,
            len: 0,
            height: 0,
        }
    }

    /// Number of data entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 for empty, 1 for a root leaf).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The root node id, if the tree is non-empty.
    #[inline]
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// The configured fan-out limits.
    #[inline]
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// A node's MBR.
    #[inline]
    pub fn mbr(&self, id: NodeId) -> Rect {
        self.nodes[id.index()].mbr
    }

    /// A node's contents.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind<T> {
        &self.nodes[id.index()].kind
    }

    /// Total number of allocated nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn alloc(&mut self, mbr: Rect, kind: NodeKind<T>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many R-tree nodes"));
        self.nodes.push(NodeData { mbr, kind });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t: RTree<u32> = RTree::new(RTreeConfig::default());
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 0);
        assert!(t.root().is_none());
        assert_eq!(t.node_count(), 0);
    }

    #[test]
    fn with_fanout_clamps() {
        assert_eq!(RTreeConfig::with_fanout(1).max_entries, 2);
        assert_eq!(RTreeConfig::with_fanout(10).max_entries, 10);
    }
}
