//! # seal-geom — geometry substrate for SEAL
//!
//! The SEAL paper (Fan et al., *SEAL: Spatio-Textual Similarity Search*,
//! PVLDB 2012) models every object and query as a *minimum bounding
//! rectangle* (MBR) over a planar data space, and builds its spatial
//! signatures by partitioning that space into uniform grids and, for the
//! hierarchical hybrid signatures of §5.2, into a quad *grid tree*.
//!
//! This crate provides those primitives from scratch:
//!
//! * [`Point`] — a 2-D point with `f64` coordinates.
//! * [`Rect`] — an axis-aligned rectangle with exact intersection /
//!   union area arithmetic and the spatial Jaccard similarity of
//!   Definition 1.
//! * [`Grid`] — a uniform `n × n` partition of a space rectangle
//!   (Section 4.1), with completeness and disjointness guarantees and
//!   cell/region intersection enumeration.
//! * [`GridTree`] / [`GridCellId`] — the hierarchical `2^l × 2^l`
//!   partition of Section 4.3/5.2, where each level-`l` cell splits into
//!   four level-`l+1` children.
//!
//! All arithmetic is plain `f64`; degenerate (zero-area) rectangles are
//! representable because real MBRs of point-sets can collapse to points
//! or segments (a Twitter user with a single geotagged tweet has a
//! zero-area active region).
//!
//! ```
//! use seal_geom::Rect;
//!
//! let q = Rect::new(0.0, 40.0, 60.0, 100.0).unwrap();
//! let o = Rect::new(20.0, 60.0, 70.0, 110.0).unwrap();
//! let j = q.jaccard(&o);
//! assert!(j > 0.0 && j < 1.0);
//! assert_eq!(q.jaccard(&q), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod grid;
mod gridtree;
mod point;
mod rect;

pub use error::GeomError;
pub use grid::{CellOverlap, Grid, GridCell};
pub use gridtree::{GridCellId, GridTree, MAX_TREE_LEVEL};
pub use point::Point;
pub use rect::Rect;

/// The largest coordinate magnitude [`Point::new`] and [`Rect::new`]
/// accept: 2⁵⁰⁰ ≈ 3.3e150. A width or height is then at most 2⁵⁰¹, an
/// area at most 2¹⁰⁰², and `|a| + |b|` at most 2¹⁰⁰³, all far below
/// `f64::MAX` ≈ 2¹⁰²⁴, so no similarity reads `∞ − ∞` or `0 · ∞`.
pub const MAX_COORDINATE: f64 = f64::from_bits((1023 + 500) << 52);

/// Result alias used throughout the geometry crate.
pub type Result<T> = std::result::Result<T, GeomError>;

/// Absolute tolerance used when comparing areas that were computed along
/// different algebraic routes (e.g. a union area versus the sum of cell
/// overlaps). Chosen conservatively for coordinates up to ~10^7 (metres
/// across a continent) where `f64` has ~1e-9 relative precision.
pub const AREA_EPS: f64 = 1e-6;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
        assert_eq!(r.area(), 1.0);
        let g = Grid::new(r, 2).unwrap();
        assert_eq!(g.cell_count(), 4);
    }
}
