//! Grid-based spatial signatures (Section 4).
//!
//! The scheme partitions the data space into `side × side` uniform
//! cells. An object's signature is the cells its region intersects
//! (Definition 4) with weights `w(g|o) = |g ∩ o.R|` (Equation 1), sorted
//! by the paper's global grid order: **ascending `count(g)`** — the
//! number of object regions intersecting the cell — with cell id as the
//! deterministic tie-break.

use crate::signatures::{Signature, SignatureElement};
use crate::ObjectStore;
use seal_geom::{Grid, GridCell, Rect};
use std::collections::HashMap;

/// A grid cell with its overlap weight, in global grid order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridElement {
    /// Linear cell id (row-major within the scheme's grid).
    pub cell: u64,
    /// Weight `w(g|·) = |g ∩ R|`.
    pub weight: f64,
}

impl SignatureElement for GridElement {
    #[inline]
    fn weight(&self) -> f64 {
        self.weight
    }
}

/// A spatial signature: cells sorted by the global grid order, with
/// suffix bounds.
pub type GridSignature = Signature<GridElement>;

/// The corpus-level grid signature scheme: the grid itself plus the
/// `count(g)` statistics that define the global order.
#[derive(Debug, Clone)]
pub struct GridScheme {
    grid: Grid,
    /// `count(g)`: number of object regions intersecting each non-empty
    /// cell. Cells absent from the map have count 0.
    counts: HashMap<u64, u32>,
}

impl GridScheme {
    /// Builds the scheme over a store with the given granularity
    /// (`side × side` cells).
    ///
    /// # Panics
    /// If `side == 0` (the store's space is guaranteed non-degenerate).
    pub fn build(store: &ObjectStore, side: u32) -> Self {
        let grid = Grid::new(store.space(), side).expect("store space is non-degenerate");
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for o in store.objects() {
            for ov in grid.overlaps(&o.region) {
                *counts.entry(ov.cell.linear(side)).or_insert(0) += 1;
            }
        }
        GridScheme { grid, counts }
    }

    /// The underlying grid.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Granularity (cells per side).
    #[inline]
    pub fn side(&self) -> u32 {
        self.grid.side()
    }

    /// `count(g)` for a cell (0 when no region touches it).
    #[inline]
    pub fn count(&self, cell: u64) -> u32 {
        self.counts.get(&cell).copied().unwrap_or(0)
    }

    /// The signature of a region: intersecting cells with overlap
    /// weights, sorted ascending by `count(g)` then cell id.
    pub fn signature(&self, region: &Rect) -> GridSignature {
        let mut sig = GridSignature::default();
        self.signature_into(region, &mut sig);
        sig
    }

    /// [`signature`](Self::signature) into an existing signature,
    /// reusing its buffers (the per-query path).
    pub fn signature_into(&self, region: &Rect, sig: &mut GridSignature) {
        let side = self.side();
        sig.refill(|elements| {
            elements.extend(self.grid.overlaps(region).map(|ov| GridElement {
                cell: ov.cell.linear(side),
                weight: ov.area,
            }));
            // (count, cell) keys are distinct: the unstable sort is
            // deterministic and never allocates.
            elements.sort_unstable_by_key(|e| (self.count(e.cell), e.cell));
        });
    }

    /// The rectangle of a cell (diagnostics / tests).
    pub fn cell_rect(&self, cell: u64) -> Rect {
        self.grid
            .cell_rect(GridCell::from_linear(cell, self.side()))
    }

    /// Bytes used by the count statistics (part of index accounting).
    pub fn size_bytes(&self) -> usize {
        self.counts.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;

    #[test]
    fn counts_cover_all_objects() {
        let (store, _q) = figure1_store();
        let scheme = GridScheme::build(&store, 4);
        // Every object intersects at least one cell, and the total count
        // equals the sum of per-object cell counts.
        let total: u32 = scheme.counts.values().sum();
        let expect: u64 = store
            .objects()
            .iter()
            .map(|o| scheme.grid().overlap_count(&o.region))
            .sum();
        assert_eq!(u64::from(total), expect);
    }

    #[test]
    fn signature_weights_sum_to_clipped_area() {
        let (store, q) = figure1_store();
        let scheme = GridScheme::build(&store, 8);
        let sig = scheme.signature(&q.region);
        let total: f64 = sig.elements().iter().map(|e| e.weight).sum();
        let clipped = q.region.intersection_area(&store.space());
        assert!((total - clipped).abs() < 1e-9);
    }

    #[test]
    fn signature_sorted_by_ascending_count() {
        let (store, q) = figure1_store();
        let scheme = GridScheme::build(&store, 4);
        let sig = scheme.signature(&q.region);
        let counts: Vec<u32> = sig
            .elements()
            .iter()
            .map(|e| scheme.count(e.cell))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn prefix_obeys_lemma2() {
        let (store, q) = figure1_store();
        let scheme = GridScheme::build(&store, 8);
        let sig = scheme.signature(&q.region);
        let c = 0.25 * q.region.area();
        let p = sig.prefix(c);
        let dropped: f64 = sig.elements()[p.len()..].iter().map(|e| e.weight).sum();
        assert!(dropped < c);
        if p.len() < sig.elements().len() {
            let one_more: f64 = sig.elements()[p.len() - 1..].iter().map(|e| e.weight).sum();
            assert!(one_more >= c, "prefix not minimal");
        }
    }

    #[test]
    fn bounds_nonincreasing() {
        let (store, q) = figure1_store();
        let scheme = GridScheme::build(&store, 16);
        let sig = scheme.signature(&q.region);
        for i in 1..sig.elements().len() {
            assert!(sig.bound(i - 1) >= sig.bound(i));
        }
    }

    #[test]
    fn degenerate_region_signature() {
        let (store, _q) = figure1_store();
        let scheme = GridScheme::build(&store, 4);
        let p = Rect::new(50.0, 50.0, 50.0, 50.0).unwrap();
        let sig = scheme.signature(&p);
        assert_eq!(sig.elements().len(), 1);
        assert_eq!(sig.elements()[0].weight, 0.0);
        // With threshold 0 (degenerate query area) the prefix keeps it.
        assert_eq!(sig.prefix(0.0).len(), 1);
    }

    #[test]
    fn scheme_size_accounting() {
        let (store, _q) = figure1_store();
        let scheme = GridScheme::build(&store, 4);
        assert!(scheme.size_bytes() > 0);
    }
}
