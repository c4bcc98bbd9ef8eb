//! The hierarchical quad grid tree of Sections 4.3 and 5.2.
//!
//! Level `l` partitions the space into `2^l × 2^l` cells; each level-`l`
//! cell splits into exactly four level-`l+1` children (Figure 7). SEAL
//! uses the tree twice:
//!
//! * **Grid granularity selection** (§4.3) walks levels top-down and
//!   stops when the partitioning benefit `B(l, l+1)` drops below a
//!   threshold.
//! * **Hierarchical hybrid signatures** (§5.2) select, per token, a set
//!   of tree cells of *mixed* levels minimizing the grid error
//!   (`HSS-Greedy`, Figure 11).
//!
//! [`GridCellId`] packs `(level, ix, iy)` into a single `u64` so cells of
//! different levels can share one inverted-index key space.

use crate::{GeomError, Grid, GridCell, Rect, Result};

/// Maximum supported tree level. `2^26` cells per side is far beyond any
/// granularity the paper evaluates (its finest is 8192 = level 13) while
/// keeping the packed id within 58 bits.
pub const MAX_TREE_LEVEL: u8 = 26;

const COORD_BITS: u32 = 26;
const COORD_MASK: u64 = (1 << COORD_BITS) - 1;

/// Identifier of one cell of the grid tree: a level plus the cell's
/// column/row at that level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridCellId {
    level: u8,
    ix: u32,
    iy: u32,
}

impl GridCellId {
    /// The single level-0 cell covering the whole space.
    pub const ROOT: GridCellId = GridCellId {
        level: 0,
        ix: 0,
        iy: 0,
    };

    /// Creates a cell id, validating level and coordinates.
    ///
    /// # Errors
    /// * [`GeomError::LevelOutOfRange`] if `level > MAX_TREE_LEVEL`.
    /// * [`GeomError::CellOutOfRange`] if `ix`/`iy ≥ 2^level`.
    pub fn new(level: u8, ix: u32, iy: u32) -> Result<Self> {
        if level > MAX_TREE_LEVEL {
            return Err(GeomError::LevelOutOfRange { level });
        }
        let side = 1u32 << level;
        if ix >= side || iy >= side {
            return Err(GeomError::CellOutOfRange { level, ix, iy });
        }
        Ok(GridCellId { level, ix, iy })
    }

    /// The cell's level in the tree (0 = whole space).
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Column at this cell's level.
    #[inline]
    pub fn ix(&self) -> u32 {
        self.ix
    }

    /// Row at this cell's level.
    #[inline]
    pub fn iy(&self) -> u32 {
        self.iy
    }

    /// Cells per side at this cell's level.
    #[inline]
    pub fn side(&self) -> u32 {
        1u32 << self.level
    }

    /// Packs the id into a `u64` (level in the top bits, then ix, iy).
    /// The packing is order-preserving per level, which makes packed ids
    /// usable directly as inverted-index keys.
    #[inline]
    pub fn pack(&self) -> u64 {
        (u64::from(self.level) << (2 * COORD_BITS))
            | (u64::from(self.ix) << COORD_BITS)
            | u64::from(self.iy)
    }

    /// Inverse of [`GridCellId::pack`].
    pub fn unpack(packed: u64) -> Result<Self> {
        let level = (packed >> (2 * COORD_BITS)) as u8;
        let ix = ((packed >> COORD_BITS) & COORD_MASK) as u32;
        let iy = (packed & COORD_MASK) as u32;
        GridCellId::new(level, ix, iy)
    }

    /// The parent cell one level up, or `None` for the root.
    #[inline]
    pub fn parent(&self) -> Option<GridCellId> {
        if self.level == 0 {
            return None;
        }
        Some(GridCellId {
            level: self.level - 1,
            ix: self.ix / 2,
            iy: self.iy / 2,
        })
    }

    /// The four children one level down, or `None` at [`MAX_TREE_LEVEL`].
    pub fn children(&self) -> Option<[GridCellId; 4]> {
        if self.level >= MAX_TREE_LEVEL {
            return None;
        }
        let l = self.level + 1;
        let (x, y) = (self.ix * 2, self.iy * 2);
        Some([
            GridCellId {
                level: l,
                ix: x,
                iy: y,
            },
            GridCellId {
                level: l,
                ix: x + 1,
                iy: y,
            },
            GridCellId {
                level: l,
                ix: x,
                iy: y + 1,
            },
            GridCellId {
                level: l,
                ix: x + 1,
                iy: y + 1,
            },
        ])
    }

    /// True if `self` is `other` or an ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &GridCellId) -> bool {
        if self.level > other.level {
            return false;
        }
        let shift = other.level - self.level;
        (other.ix >> shift) == self.ix && (other.iy >> shift) == self.iy
    }

    /// The [`GridCell`] view of this id (for use with a level [`Grid`]).
    #[inline]
    pub fn as_grid_cell(&self) -> GridCell {
        GridCell {
            ix: self.ix,
            iy: self.iy,
        }
    }
}

/// The grid tree: a space rectangle plus a maximum depth. Levels are
/// materialized lazily as [`Grid`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTree {
    space: Rect,
    max_level: u8,
}

impl GridTree {
    /// Creates a grid tree over `space` with levels `0..=max_level`.
    ///
    /// # Errors
    /// * [`GeomError::LevelOutOfRange`] if `max_level > MAX_TREE_LEVEL`.
    /// * [`GeomError::DegenerateSpace`] for zero-extent spaces.
    pub fn new(space: Rect, max_level: u8) -> Result<Self> {
        if max_level > MAX_TREE_LEVEL {
            return Err(GeomError::LevelOutOfRange { level: max_level });
        }
        if space.width() <= 0.0 || space.height() <= 0.0 {
            return Err(GeomError::DegenerateSpace {
                width: space.width(),
                height: space.height(),
            });
        }
        Ok(GridTree { space, max_level })
    }

    /// The space rectangle.
    #[inline]
    pub fn space(&self) -> Rect {
        self.space
    }

    /// Deepest level of the tree.
    #[inline]
    pub fn max_level(&self) -> u8 {
        self.max_level
    }

    /// The uniform [`Grid`] at a given level (`2^level` cells per side).
    ///
    /// # Errors
    /// [`GeomError::LevelOutOfRange`] if `level > max_level`.
    pub fn level_grid(&self, level: u8) -> Result<Grid> {
        if level > self.max_level {
            return Err(GeomError::LevelOutOfRange { level });
        }
        Grid::new(self.space, 1u32 << level)
    }

    /// The rectangle of a tree cell.
    pub fn cell_rect(&self, id: GridCellId) -> Result<Rect> {
        let grid = self.level_grid(id.level())?;
        Ok(grid.cell_rect(id.as_grid_cell()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Rect {
        Rect::new(0.0, 0.0, 128.0, 128.0).unwrap()
    }

    #[test]
    fn id_validation() {
        assert!(GridCellId::new(0, 0, 0).is_ok());
        assert!(GridCellId::new(0, 1, 0).is_err());
        assert!(GridCellId::new(2, 3, 3).is_ok());
        assert!(GridCellId::new(2, 4, 0).is_err());
        assert!(GridCellId::new(MAX_TREE_LEVEL + 1, 0, 0).is_err());
    }

    #[test]
    fn pack_roundtrip() {
        for &(l, x, y) in &[(0u8, 0u32, 0u32), (1, 1, 0), (10, 1023, 512), (26, 0, 0)] {
            let id = GridCellId::new(l, x, y).unwrap();
            assert_eq!(GridCellId::unpack(id.pack()).unwrap(), id);
        }
    }

    #[test]
    fn pack_distinguishes_levels() {
        // Cell (0,0) at different levels must have different keys: the
        // hierarchical index stores mixed-level cells in one map.
        let a = GridCellId::new(1, 0, 0).unwrap().pack();
        let b = GridCellId::new(2, 0, 0).unwrap().pack();
        assert_ne!(a, b);
    }

    #[test]
    fn parent_child_relationships() {
        let root = GridCellId::ROOT;
        assert!(root.parent().is_none());
        let kids = root.children().unwrap();
        assert_eq!(kids.len(), 4);
        for k in kids {
            assert_eq!(k.parent(), Some(root));
            assert_eq!(k.level(), 1);
        }
        // Figure 7's example: level-1 cell g1^1 splits into four level-2
        // cells g1^2..g4^2.
        let g11 = GridCellId::new(1, 0, 0).unwrap();
        let children = g11.children().unwrap();
        let expect: Vec<GridCellId> = vec![
            GridCellId::new(2, 0, 0).unwrap(),
            GridCellId::new(2, 1, 0).unwrap(),
            GridCellId::new(2, 0, 1).unwrap(),
            GridCellId::new(2, 1, 1).unwrap(),
        ];
        assert_eq!(children.to_vec(), expect);
    }

    #[test]
    fn ancestor_test() {
        let root = GridCellId::ROOT;
        let deep = GridCellId::new(3, 5, 6).unwrap();
        assert!(root.is_ancestor_of(&deep));
        assert!(deep.is_ancestor_of(&deep));
        assert!(!deep.is_ancestor_of(&root));
        let parent = deep.parent().unwrap();
        assert!(parent.is_ancestor_of(&deep));
        let uncle = GridCellId::new(2, 0, 0).unwrap();
        assert!(!uncle.is_ancestor_of(&deep));
    }

    #[test]
    fn children_tile_parent_exactly() {
        let tree = GridTree::new(space(), 5).unwrap();
        let cell = GridCellId::new(2, 1, 3).unwrap();
        let parent_rect = tree.cell_rect(cell).unwrap();
        let kid_area: f64 = cell
            .children()
            .unwrap()
            .iter()
            .map(|k| tree.cell_rect(*k).unwrap().area())
            .sum();
        assert!((kid_area - parent_rect.area()).abs() < 1e-9);
        for k in cell.children().unwrap() {
            assert!(parent_rect.contains_rect(&tree.cell_rect(k).unwrap()));
        }
    }

    #[test]
    fn level_grid_sides() {
        let tree = GridTree::new(space(), 7).unwrap();
        for l in 0..=7u8 {
            assert_eq!(tree.level_grid(l).unwrap().side(), 1u32 << l);
        }
        assert!(tree.level_grid(8).is_err());
    }

    #[test]
    fn tree_rejects_bad_inputs() {
        assert!(GridTree::new(space(), MAX_TREE_LEVEL + 1).is_err());
        let flat = Rect::new(0.0, 0.0, 10.0, 0.0).unwrap();
        assert!(GridTree::new(flat, 3).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn pack_roundtrips(level in 0u8..=MAX_TREE_LEVEL, seed in 0u64..u64::MAX) {
            let side = 1u64 << level;
            let ix = (seed % side) as u32;
            let iy = ((seed / side.max(1)) % side) as u32;
            let id = GridCellId::new(level, ix, iy).unwrap();
            prop_assert_eq!(GridCellId::unpack(id.pack()).unwrap(), id);
        }

        #[test]
        fn parent_contains_child_rect(level in 1u8..10, seed in 0u64..u64::MAX) {
            let space = Rect::new(0.0, 0.0, 1024.0, 1024.0).unwrap();
            let tree = GridTree::new(space, 10).unwrap();
            let side = 1u64 << level;
            let ix = (seed % side) as u32;
            let iy = ((seed >> 13) % side) as u32;
            let id = GridCellId::new(level, ix, iy).unwrap();
            let parent = id.parent().unwrap();
            let pr = tree.cell_rect(parent).unwrap();
            let cr = tree.cell_rect(id).unwrap();
            prop_assert!(pr.contains_rect(&cr));
            prop_assert!(parent.is_ancestor_of(&id));
        }
    }
}
