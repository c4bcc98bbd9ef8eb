//! # seal-rtree — an R-tree built from scratch
//!
//! The SEAL paper's strongest baseline extends the IR-tree of Cong et
//! al. (PVLDB 2009): an R-tree whose nodes carry inverted files. This
//! crate provides the underlying R-tree substrate:
//!
//! * **STR bulk loading** (Leutenegger et al.) — the standard way to
//!   build a packed R-tree over a known dataset, used for the IR-tree
//!   baseline's construction.
//! * **Overlap queries** and an **open traversal API** (visit nodes,
//!   decide per-node whether to descend) that the IR-tree baseline uses
//!   to apply its spatial/textual overlap bounds at internal nodes.
//!
//! Nodes live in an arena (`Vec<NodeData>`) and are addressed by
//! [`NodeId`], which lets `seal-core` attach per-node inverted files in
//! a parallel map without intrusive pointers.
//!
//! ```
//! use seal_geom::Rect;
//! use seal_rtree::{RTree, RTreeConfig};
//!
//! let items: Vec<(Rect, usize)> = (0..100)
//!     .map(|i| {
//!         let x = f64::from(i as u32 % 10) * 10.0;
//!         let y = f64::from(i as u32 / 10) * 10.0;
//!         (Rect::new(x, y, x + 5.0, y + 5.0).unwrap(), i)
//!     })
//!     .collect();
//! let tree = RTree::bulk_load(items, RTreeConfig::default());
//! let probe = Rect::new(0.0, 0.0, 12.0, 12.0).unwrap();
//! let hits = tree.search_intersecting(&probe);
//! assert!(!hits.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bulk;
mod node;
mod query;
mod stats;

pub use node::{LeafEntry, NodeId, NodeKind, RTree, RTreeConfig};
pub use query::Descend;
pub use stats::RTreeStats;
