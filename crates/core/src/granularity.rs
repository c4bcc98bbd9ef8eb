//! Cost estimates for grid granularity (Section 4.3).
//!
//! The expected query cost of a grid set `G` is
//! `cost(G) = π1 · Σ_g P(g)·|I(g)| + π2 · |C|` (Equation 4): the filter
//! step pays `π1` per posting retrieved, the verification step pays `π2`
//! per candidate. [`level_costs`] estimates the cost of each
//! `2^l × 2^l` partition against a query workload; the reproduction of
//! Figure 13 reads its optimum. The paper's top-down walk, which stops
//! once a split's benefit falls below a threshold `B`, is not kept: no
//! caller ever set `B`.

use crate::{ObjectStore, Query};
use seal_geom::Grid;

/// The per-posting / per-candidate cost weights `π1`, `π2`.
///
/// Defaults reflect the paper's observation that verification is the
/// bottleneck (Section 5.2): verifying a candidate — fetching the
/// object, exact area arithmetic, a token-set merge — costs roughly an
/// order of magnitude more than streaming one posting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of retrieving one posting and merging it into candidates.
    pub pi1: f64,
    /// Cost of verifying one candidate.
    pub pi2: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            pi1: 1.0,
            pi2: 10.0,
        }
    }
}

/// Estimated cost of one grid level for a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelCost {
    /// Tree level (`side = 2^level`).
    pub level: u8,
    /// Cells per side.
    pub side: u32,
    /// `π1 · Σ` postings the workload would retrieve (worst case
    /// `|Ic(g)| = |I(g)|`, as in the paper's analysis).
    pub filter_cost: f64,
    /// `π2 · Σ` candidates the workload would verify.
    pub verify_cost: f64,
}

impl LevelCost {
    /// Total expected cost.
    pub fn total(&self) -> f64 {
        self.filter_cost + self.verify_cost
    }
}

/// Estimates the per-level costs for levels `0..=max_level`.
///
/// `|I(g)|` is computed exactly per level with a 2-D difference array
/// (`O(|O| + 4^l)` per level); `|C|` per query is the number of objects
/// intersecting the query's cell-aligned expansion — exactly the
/// candidate set the grid filter would produce in the worst case.
pub fn level_costs(
    store: &ObjectStore,
    workload: &[Query],
    max_level: u8,
    model: CostModel,
) -> Vec<LevelCost> {
    let mut out = Vec::with_capacity(usize::from(max_level) + 1);
    for level in 0..=max_level {
        let side = 1u32 << level;
        let grid = Grid::new(store.space(), side).expect("store space non-degenerate");
        let counts = cell_counts(store, &grid);
        let mut filter = 0.0;
        let mut verify = 0.0;
        for q in workload {
            let (cols, rows) = grid.cell_range(&q.region);
            let mut postings = 0u64;
            for iy in rows.clone() {
                let row_base = u64::from(iy) * u64::from(side);
                for ix in cols.clone() {
                    postings += u64::from(counts[(row_base + u64::from(ix)) as usize]);
                }
            }
            filter += postings as f64;
            // Candidates: objects intersecting the cell-aligned
            // expansion of the query region.
            let expanded = expansion_rect(&grid, q);
            let cands = store
                .objects()
                .iter()
                .filter(|o| o.region.intersects(&expanded))
                .count();
            verify += cands as f64;
        }
        let n = workload.len().max(1) as f64;
        out.push(LevelCost {
            level,
            side,
            filter_cost: model.pi1 * filter / n,
            verify_cost: model.pi2 * verify / n,
        });
    }
    out
}

/// Per-cell `|I(g)|` via a 2-D difference array: each object's cell
/// range contributes +1 over a rectangle of cells.
fn cell_counts(store: &ObjectStore, grid: &Grid) -> Vec<u32> {
    let side = grid.side() as usize;
    let mut diff = vec![0i64; (side + 1) * (side + 1)];
    for o in store.objects() {
        let (cols, rows) = grid.cell_range(&o.region);
        let (c0, c1) = (*cols.start() as usize, *cols.end() as usize);
        let (r0, r1) = (*rows.start() as usize, *rows.end() as usize);
        diff[r0 * (side + 1) + c0] += 1;
        diff[r0 * (side + 1) + c1 + 1] -= 1;
        diff[(r1 + 1) * (side + 1) + c0] -= 1;
        diff[(r1 + 1) * (side + 1) + c1 + 1] += 1;
    }
    let mut counts = vec![0u32; side * side];
    let mut rowacc = vec![0i64; side + 1];
    for r in 0..side {
        let mut acc = 0i64;
        for c in 0..side {
            rowacc[c] += diff[r * (side + 1) + c];
            acc += rowacc[c];
            counts[r * side + c] = u32::try_from(acc).expect("count never negative");
        }
        rowacc[side] += diff[r * (side + 1) + side];
    }
    counts
}

/// The query region expanded to the boundaries of the cells it touches.
fn expansion_rect(grid: &Grid, q: &Query) -> seal_geom::Rect {
    let (cols, rows) = grid.cell_range(&q.region);
    let lo = grid.cell_rect(seal_geom::GridCell {
        ix: *cols.start(),
        iy: *rows.start(),
    });
    let hi = grid.cell_rect(seal_geom::GridCell {
        ix: *cols.end(),
        iy: *rows.end(),
    });
    lo.mbr_with(&hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;

    #[test]
    fn cell_counts_match_bruteforce() {
        let (store, _q) = figure1_store();
        for level in 0..5u8 {
            let grid = Grid::new(store.space(), 1 << level).unwrap();
            let counts = cell_counts(&store, &grid);
            let side = grid.side();
            for iy in 0..side {
                for ix in 0..side {
                    let cell = seal_geom::GridCell { ix, iy };
                    let rect = grid.cell_rect(cell);
                    let expect = store
                        .objects()
                        .iter()
                        .filter(|o| {
                            let (cols, rows) = grid.cell_range(&o.region);
                            cols.contains(&ix) && rows.contains(&iy)
                        })
                        .count() as u32;
                    assert_eq!(
                        counts[(u64::from(iy) * u64::from(side) + u64::from(ix)) as usize],
                        expect,
                        "level {level} cell {cell:?} rect {rect:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn verification_cost_decreases_with_level() {
        // Finer grids expand queries less → fewer worst-case candidates.
        let (store, q) = figure1_store();
        let costs = level_costs(&store, &[q], 5, CostModel::default());
        for w in costs.windows(2) {
            assert!(
                w[1].verify_cost <= w[0].verify_cost + 1e-9,
                "verify cost increased from level {} to {}",
                w[0].level,
                w[1].level
            );
        }
    }

    #[test]
    fn empty_workload_is_safe() {
        let (store, _q) = figure1_store();
        let costs = level_costs(&store, &[], 3, CostModel::default());
        assert_eq!(costs.len(), 4);
        assert!(costs.iter().all(|c| c.total() == 0.0));
    }
}
