//! Uniform grid partitions of the data space (Section 4.1 of the paper).
//!
//! A [`Grid`] decomposes the space rectangle `R` into `side × side`
//! equally-sized cells satisfying the paper's two properties:
//!
//! 1. **Completeness** — the cells cover the whole space.
//! 2. **Disjointness** — distinct cells share no interior point.
//!
//! Cells are half-open `[x0, x1) × [y0, y1)` except along the top/right
//! border of the space, so every point of the space belongs to exactly
//! one cell. Region-to-cell assignment uses the closed intersection
//! `g ∩ R ≠ ∅` of Definition 4, so a region whose edge lies exactly on a
//! cell boundary is (safely) assigned to both adjacent cells; its overlap
//! *weight* in the far cell is zero, which keeps Lemma 1 exact.

use crate::{GeomError, Rect, Result};

/// Identifier of one cell of a [`Grid`], by column (`ix`) and row (`iy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridCell {
    /// Column index, `0 ≤ ix < side`.
    pub ix: u32,
    /// Row index, `0 ≤ iy < side`.
    pub iy: u32,
}

impl GridCell {
    /// Packs the cell into a linear id in row-major order.
    #[inline]
    pub fn linear(&self, side: u32) -> u64 {
        u64::from(self.iy) * u64::from(side) + u64::from(self.ix)
    }

    /// Inverse of [`GridCell::linear`].
    #[inline]
    pub fn from_linear(id: u64, side: u32) -> GridCell {
        let side64 = u64::from(side);
        GridCell {
            ix: (id % side64) as u32,
            iy: (id / side64) as u32,
        }
    }
}

/// A cell together with the area of its intersection with some region —
/// the raw material of the grid signature weights `w(g|o) = |g ∩ o.R|`
/// (Equation 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOverlap {
    /// Which cell.
    pub cell: GridCell,
    /// `|g ∩ R|`; zero when the region only touches the cell's boundary.
    pub area: f64,
}

/// A uniform `side × side` grid over a space rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    space: Rect,
    side: u32,
    cell_w: f64,
    cell_h: f64,
}

impl Grid {
    /// Builds a grid of `side × side` cells over `space`.
    ///
    /// # Errors
    /// * [`GeomError::ZeroGridSide`] if `side == 0`.
    /// * [`GeomError::DegenerateSpace`] if the space has zero width or
    ///   height (cells would be degenerate and every overlap weight 0).
    pub fn new(space: Rect, side: u32) -> Result<Self> {
        if side == 0 {
            return Err(GeomError::ZeroGridSide);
        }
        if space.width() <= 0.0 || space.height() <= 0.0 {
            return Err(GeomError::DegenerateSpace {
                width: space.width(),
                height: space.height(),
            });
        }
        Ok(Grid {
            space,
            side,
            cell_w: space.width() / f64::from(side),
            cell_h: space.height() / f64::from(side),
        })
    }

    /// The space rectangle this grid partitions.
    #[inline]
    pub fn space(&self) -> Rect {
        self.space
    }

    /// Cells per side (the paper's "granularity" `p` in `p × p`).
    #[inline]
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Total number of cells, `side²`.
    #[inline]
    pub fn cell_count(&self) -> u64 {
        u64::from(self.side) * u64::from(self.side)
    }

    /// Width of each cell.
    #[inline]
    pub fn cell_width(&self) -> f64 {
        self.cell_w
    }

    /// Height of each cell.
    #[inline]
    pub fn cell_height(&self) -> f64 {
        self.cell_h
    }

    /// Area of each (interior) cell.
    #[inline]
    pub fn cell_area(&self) -> f64 {
        self.cell_w * self.cell_h
    }

    /// The rectangle of a cell. The top/right border cells extend to the
    /// space boundary exactly (no floating-point gap), preserving
    /// completeness.
    pub fn cell_rect(&self, cell: GridCell) -> Rect {
        let x0 = self.space.min().x + f64::from(cell.ix) * self.cell_w;
        let y0 = self.space.min().y + f64::from(cell.iy) * self.cell_h;
        let x1 = if cell.ix + 1 == self.side {
            self.space.max().x
        } else {
            self.space.min().x + f64::from(cell.ix + 1) * self.cell_w
        };
        let y1 = if cell.iy + 1 == self.side {
            self.space.max().y
        } else {
            self.space.min().y + f64::from(cell.iy + 1) * self.cell_h
        };
        // Clamp guards against FP drift on the last column/row.
        Rect::new(x0.min(x1), y0.min(y1), x1.max(x0), y1.max(y0))
            .expect("cell rects are always valid")
    }

    /// Column index of the cell containing coordinate `x`, clamped to the
    /// grid (regions sticking out of the space are clipped to it).
    #[inline]
    fn col_of(&self, x: f64) -> u32 {
        let raw = ((x - self.space.min().x) / self.cell_w).floor();
        (raw.max(0.0) as u32).min(self.side - 1)
    }

    #[inline]
    fn row_of(&self, y: f64) -> u32 {
        let raw = ((y - self.space.min().y) / self.cell_h).floor();
        (raw.max(0.0) as u32).min(self.side - 1)
    }

    /// The inclusive `(col_lo..=col_hi, row_lo..=row_hi)` ranges of cells
    /// whose closed extent intersects `r`.
    pub fn cell_range(
        &self,
        r: &Rect,
    ) -> (std::ops::RangeInclusive<u32>, std::ops::RangeInclusive<u32>) {
        (
            self.col_of(r.min().x)..=self.col_of(r.max().x),
            self.row_of(r.min().y)..=self.row_of(r.max().y),
        )
    }

    /// Number of cells `r` intersects, without materializing them.
    pub fn overlap_count(&self, r: &Rect) -> u64 {
        let (cols, rows) = self.cell_range(r);
        u64::from(cols.end() - cols.start() + 1) * u64::from(rows.end() - rows.start() + 1)
    }

    /// Enumerates the cells intersecting `r` together with the exact
    /// intersection areas — the grid-based signature of Definition 4 with
    /// the weights of Equation 1.
    pub fn overlaps<'a>(&'a self, r: &'a Rect) -> impl Iterator<Item = CellOverlap> + 'a {
        let (cols, rows) = self.cell_range(r);
        let (c0, c1) = (*cols.start(), *cols.end());
        let (r0, r1) = (*rows.start(), *rows.end());
        (r0..=r1).flat_map(move |iy| {
            (c0..=c1).map(move |ix| {
                let cell = GridCell { ix, iy };
                CellOverlap {
                    cell,
                    area: self.cell_rect(cell).intersection_area(r),
                }
            })
        })
    }

    /// Sum of all overlap areas for `r` clipped to the space. Useful as a
    /// sanity check: it must equal `|r ∩ space|` (tested with proptest).
    pub fn total_overlap_area(&self, r: &Rect) -> f64 {
        self.overlaps(r).map(|c| c.area).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Rect {
        Rect::new(0.0, 0.0, 120.0, 120.0).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            Grid::new(space(), 0),
            Err(GeomError::ZeroGridSide)
        ));
        let degenerate = Rect::new(0.0, 0.0, 0.0, 5.0).unwrap();
        assert!(matches!(
            Grid::new(degenerate, 4),
            Err(GeomError::DegenerateSpace { .. })
        ));
        assert!(Grid::new(space(), 4).is_ok());
    }

    #[test]
    fn figure1_grid_is_4x4_of_30x30_cells() {
        let g = Grid::new(space(), 4).unwrap();
        assert_eq!(g.cell_count(), 16);
        assert_eq!(g.cell_width(), 30.0);
        assert_eq!(g.cell_height(), 30.0);
        assert_eq!(g.cell_area(), 900.0);
    }

    #[test]
    fn cell_rect_covers_space_completely_and_disjointly() {
        let g = Grid::new(space(), 4).unwrap();
        let mut total = 0.0;
        for iy in 0..4 {
            for ix in 0..4 {
                let a = g.cell_rect(GridCell { ix, iy });
                total += a.area();
                for jy in 0..4 {
                    for jx in 0..4 {
                        if (ix, iy) != (jx, jy) {
                            let b = g.cell_rect(GridCell { ix: jx, iy: jy });
                            assert_eq!(
                                a.intersection_area(&b),
                                0.0,
                                "cells ({ix},{iy}) and ({jx},{jy}) overlap"
                            );
                        }
                    }
                }
            }
        }
        assert!((total - g.space().area()).abs() < 1e-9, "completeness");
    }

    #[test]
    fn linear_roundtrip() {
        for side in [1u32, 3, 16, 1024] {
            for &(ix, iy) in &[(0u32, 0u32), (1, 2), (side - 1, side - 1)] {
                if ix < side && iy < side {
                    let c = GridCell { ix, iy };
                    assert_eq!(GridCell::from_linear(c.linear(side), side), c);
                }
            }
        }
    }

    #[test]
    fn overlaps_match_figure5_weights() {
        // Figure 5: object o2 has region R2; its grid signature covers
        // g9,g10,g11,g13,g14,g15 with weights 225,450,375,150,300,250.
        // Reconstruct an R2 consistent with those overlaps: total area
        // 1750. Grid cells are 30x30 = 900 each; bottom row (g13..g15 in
        // the paper's numbering, y in [0,30]) plus middle row (g9..g11,
        // y in [30,60]). Take R2 = [22.5, 20] x [75, 50]:
        //   row y in [30,50] height 20; row y in [20,30] height 10.
        //   col x in [22.5,30] w=7.5; [30,60] w=30; [60,75] w=15.
        // weights: (7.5,30,15)*20 = 150,600,300 and *10 = 75,300,150.
        // (The paper's exact R2 coordinates are not printed; we verify
        // our machinery on this analytically-solvable sibling.)
        let g = Grid::new(space(), 4).unwrap();
        let r2 = Rect::new(22.5, 20.0, 75.0, 50.0).unwrap();
        let got: Vec<CellOverlap> = g.overlaps(&r2).collect();
        assert_eq!(got.len(), 6);
        let area_of = |ix: u32, iy: u32| -> f64 {
            got.iter()
                .find(|c| c.cell == GridCell { ix, iy })
                .map(|c| c.area)
                .unwrap_or(f64::NAN)
        };
        assert_eq!(area_of(0, 0), 75.0);
        assert_eq!(area_of(1, 0), 300.0);
        assert_eq!(area_of(2, 0), 150.0);
        assert_eq!(area_of(0, 1), 150.0);
        assert_eq!(area_of(1, 1), 600.0);
        assert_eq!(area_of(2, 1), 300.0);
        assert!((g.total_overlap_area(&r2) - r2.area()).abs() < 1e-9);
    }

    #[test]
    fn region_outside_space_is_clipped() {
        let g = Grid::new(space(), 4).unwrap();
        let r = Rect::new(-50.0, -50.0, -10.0, -10.0).unwrap();
        // Clamped to the corner cell with zero overlap area.
        let cells: Vec<_> = g.overlaps(&r).collect();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].cell, GridCell { ix: 0, iy: 0 });
        assert_eq!(cells[0].area, 0.0);
    }

    #[test]
    fn boundary_aligned_region() {
        let g = Grid::new(space(), 4).unwrap();
        // Exactly one cell.
        let r = Rect::new(30.0, 30.0, 60.0, 60.0).unwrap();
        let cells: Vec<_> = g.overlaps(&r).collect();
        // Closed intersection touches the neighbours at x=60 / y=60 too.
        let positive: Vec<_> = cells.iter().filter(|c| c.area > 0.0).collect();
        assert_eq!(positive.len(), 1);
        assert_eq!(positive[0].cell, GridCell { ix: 1, iy: 1 });
        assert_eq!(positive[0].area, 900.0);
        assert!((g.total_overlap_area(&r) - 900.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_count_matches_enumeration() {
        let g = Grid::new(space(), 8).unwrap();
        let r = Rect::new(10.0, 5.0, 77.0, 31.0).unwrap();
        assert_eq!(g.overlap_count(&r), g.overlaps(&r).count() as u64);
    }

    #[test]
    fn degenerate_region_gets_one_cell() {
        let g = Grid::new(space(), 4).unwrap();
        let p = Rect::new(45.0, 45.0, 45.0, 45.0).unwrap();
        let cells: Vec<_> = g.overlaps(&p).collect();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].cell, GridCell { ix: 1, iy: 1 });
        assert_eq!(cells[0].area, 0.0);
    }

    #[test]
    fn non_square_space() {
        let wide = Rect::new(0.0, 0.0, 100.0, 10.0).unwrap();
        let g = Grid::new(wide, 5).unwrap();
        assert_eq!(g.cell_width(), 20.0);
        assert_eq!(g.cell_height(), 2.0);
        let r = Rect::new(15.0, 1.0, 55.0, 9.0).unwrap();
        assert!((g.total_overlap_area(&r) - r.area()).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_rect_in(space: Rect) -> impl Strategy<Value = Rect> {
        let (x0, x1) = (space.min().x, space.max().x);
        let (y0, y1) = (space.min().y, space.max().y);
        (x0..x1, y0..y1, x0..x1, y0..y1)
            .prop_map(|(a, b, c, d)| Rect::new(a.min(c), b.min(d), a.max(c), b.max(d)).unwrap())
    }

    proptest! {
        #[test]
        fn overlap_areas_sum_to_clipped_region_area(
            r in arb_rect_in(Rect::new(0.0, 0.0, 1000.0, 1000.0).unwrap()),
            side in 1u32..64,
        ) {
            let space = Rect::new(0.0, 0.0, 1000.0, 1000.0).unwrap();
            let g = Grid::new(space, side).unwrap();
            let clipped = r.intersection_area(&space);
            let total = g.total_overlap_area(&r);
            prop_assert!((total - clipped).abs() < 1e-6 * (1.0 + clipped));
        }

        #[test]
        fn every_overlap_cell_intersects_region(
            r in arb_rect_in(Rect::new(0.0, 0.0, 500.0, 500.0).unwrap()),
            side in 1u32..32,
        ) {
            let space = Rect::new(0.0, 0.0, 500.0, 500.0).unwrap();
            let g = Grid::new(space, side).unwrap();
            for ov in g.overlaps(&r) {
                prop_assert!(g.cell_rect(ov.cell).intersects(&r));
                prop_assert!(ov.area >= 0.0);
                prop_assert!(ov.area <= g.cell_rect(ov.cell).area() + 1e-9);
            }
        }

        #[test]
        fn cells_partition_space(side in 1u32..40) {
            let space = Rect::new(-3.0, 2.0, 97.0, 52.0).unwrap();
            let g = Grid::new(space, side).unwrap();
            let mut total = 0.0;
            for iy in 0..side {
                for ix in 0..side {
                    total += g.cell_rect(GridCell { ix, iy }).area();
                }
            }
            prop_assert!((total - space.area()).abs() < 1e-6);
        }
    }
}
