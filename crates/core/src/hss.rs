//! `HSS-Greedy` — hierarchical hybrid signature selection (Section 5.2,
//! Figure 11).
//!
//! For one token `t`, the algorithm picks at most `m_t` grid-tree cells
//! that tile the data space, greedily splitting the cell with the
//! largest *error* (Definition 6):
//!
//! ```text
//! Error(n) = Σ_{children c} (Î(n) − Î(c))²
//! Î(g) = Σ_{o ∈ I(g)} |g ∩ o.R| / |g|
//! ```
//!
//! `Î(g)` is the *expected* inverted-list length of cell `g` under the
//! uniform-query assumption, so a cell has high error when its children
//! would summarize the objects much more precisely than it does. The
//! exact optimization (the HSS problem, Definition 7) is NP-hard by
//! reduction from rectangular partitioning; the greedy walk is the
//! paper's Algorithm 2. Scoring a node needs its children's subsets and
//! `Î`, so each node is split once, when queued, and a later split
//! reuses those children.

use seal_geom::{GridCellId, GridTree, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A cell selected for one token, with the objects (indices into the
/// caller's region list) whose regions intersect it.
#[derive(Debug, Clone)]
pub struct SelectedCell {
    /// The tree cell.
    pub id: GridCellId,
    /// The cell's rectangle.
    pub rect: Rect,
    /// Indices (into the input `regions`) of intersecting objects —
    /// the `count(g)` statistic is `objects.len()`.
    pub objects: Vec<u32>,
}

/// A grid-tree cell with the regions intersecting it and its `Î`.
struct Node {
    cell: GridCellId,
    rect: Rect,
    /// Indices of regions intersecting this cell.
    subset: Vec<u32>,
    /// `Î(cell)` over `subset`.
    len: f64,
}

/// Priority-queue entry ordered by error (max-heap), with a
/// deterministic tie-break on the packed cell id. `Error(n)` needs the
/// children's `Î`, hence their subsets; the entry keeps them, so a
/// split reuses them instead of intersecting the subset again.
struct QueueEntry {
    error: f64,
    node: Node,
    /// The node's four children; `None` at the tree's maximum level.
    children: Option<Box<[Node; 4]>>,
}

impl QueueEntry {
    /// Splits `node` once and scores it: `Error(n) = Σ_children
    /// (Î(n) − Î(child))²`, approximated from the node's immediate
    /// children as in Figure 11's description, and 0 for a node that
    /// cannot split. The error is a finite sum of finite squared
    /// differences by construction; the debug assertion pins that down
    /// so the `total_cmp` heap order below is the documented
    /// deterministic one.
    fn new(tree: &GridTree, regions: &[Rect], node: Node) -> Self {
        let children = split(tree, regions, &node);
        let error = children.as_ref().map_or(0.0, |children| {
            children
                .iter()
                .map(|c| (node.len - c.len) * (node.len - c.len))
                .sum()
        });
        debug_assert!(
            error.is_finite(),
            "Error(n) must be finite, got {error} for cell {:?}",
            node.cell
        );
        QueueEntry {
            error,
            node,
            children,
        }
    }
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // `total_cmp` keeps the order total (and the tie-break on the
        // cell id deterministic) even for a non-finite error.
        self.error
            .total_cmp(&other.error)
            .then_with(|| other.node.cell.pack().cmp(&self.node.cell.pack()))
    }
}

/// Expected inverted-list length `Î(g)` over the given region subset.
fn expected_len(rect: &Rect, regions: &[Rect], subset: &[u32]) -> f64 {
    let cell_area = rect.area();
    if cell_area <= 0.0 {
        return 0.0;
    }
    subset
        .iter()
        .map(|&i| rect.intersection_area(&regions[i as usize]) / cell_area)
        .sum()
}

/// The four children of `node` with their subsets (one pass over the
/// node's subset, membership by `intersects`, subset order kept) and
/// their `Î`; `None` at the tree's maximum level.
fn split(tree: &GridTree, regions: &[Rect], node: &Node) -> Option<Box<[Node; 4]>> {
    if node.cell.level() >= tree.max_level() {
        return None;
    }
    let mut children = node.cell.children()?.map(|cell| Node {
        cell,
        rect: tree.cell_rect(cell).expect("child within tree"),
        subset: Vec::new(),
        len: 0.0,
    });
    for &i in &node.subset {
        let region = &regions[i as usize];
        for child in &mut children {
            if child.rect.intersects(region) {
                child.subset.push(i);
            }
        }
    }
    for child in &mut children {
        child.len = expected_len(&child.rect, regions, &child.subset);
    }
    Some(Box::new(children))
}

/// Runs `HSS-Greedy` for one token.
///
/// * `regions` — the regions of the objects containing the token
///   (`I(t)`).
/// * `tree` — the grid tree over the data space.
/// * `budget` — `m_t`, the maximum number of selected cells (≥ 1).
///
/// Returns the selected cells; their rectangles exactly tile the data
/// space (a cut of the quad tree), which the hierarchical filter's
/// completeness proof relies on. Each queued node is split once, when
/// its error is computed; popping it either selects it or queues the
/// children that split produced.
pub fn hss_greedy(regions: &[Rect], tree: &GridTree, budget: usize) -> Vec<SelectedCell> {
    let budget = budget.max(1);
    let rect = tree.space();
    let subset: Vec<u32> = (0..regions.len() as u32).collect();
    let root = Node {
        cell: GridCellId::ROOT,
        len: expected_len(&rect, regions, &subset),
        rect,
        subset,
    };
    let mut queue: BinaryHeap<QueueEntry> = BinaryHeap::new();
    queue.push(QueueEntry::new(tree, regions, root));

    let mut selected: Vec<SelectedCell> = Vec::new();
    while let Some(entry) = queue.pop() {
        // Figure 11 line 10: splitting replaces 1 queued node by 4, so
        // the post-split cell count is |Gt| + |Q| + |children| − 1.
        let over_budget = selected.len() + queue.len() + 1 + 4 - 1 > budget;
        match entry.children {
            Some(children) if !over_budget => {
                for child in *children {
                    queue.push(QueueEntry::new(tree, regions, child));
                }
            }
            _ => selected.push(SelectedCell {
                id: entry.node.cell,
                rect: entry.node.rect,
                objects: entry.node.subset,
            }),
        }
    }
    selected
}

/// One token's `HSS-Greedy` selection in the token's global order — a
/// pure function of (the token's regions in id order, the tree, the
/// budget), which is what makes per-token reuse across store
/// generations (`HierarchicalScheme::extend_from`) sound.
///
/// "Judiciously select": a token occurring in k objects gains nothing
/// from more than ~k grids (its inverted lists hold k postings total),
/// so rare tokens keep coarse tilings. This is the index-size
/// constraint of Section 5.2 applied per-token, and it is what keeps
/// HierarchicalInv smaller than HashInv in Table 1.
pub fn select_ordered(regions: &[Rect], tree: &GridTree, budget: usize) -> Vec<GridCellId> {
    let budget_t = budget.min(regions.len()).max(1);
    let mut cells = hss_greedy(regions, tree, budget_t);
    // Global order within the token: level asc, count asc, id. The
    // per-cell object lists are selection scratch and end here.
    cells.sort_by_key(|c| (c.id.level(), c.objects.len(), c.id.pack()));
    cells.into_iter().map(|c| c.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The selection before each node was split only once, kept as the
    /// oracle: `node_error` splits the subset to score a node and the
    /// split splits it again.
    mod reference {
        use super::super::expected_len;
        use seal_geom::{GridCellId, GridTree, Rect};
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        pub struct Selected {
            pub id: GridCellId,
            pub rect: Rect,
            pub objects: Vec<u32>,
        }

        struct QueueEntry {
            error: f64,
            cell: GridCellId,
            rect: Rect,
            subset: Vec<u32>,
        }

        impl PartialEq for QueueEntry {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl Eq for QueueEntry {}
        impl PartialOrd for QueueEntry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for QueueEntry {
            fn cmp(&self, other: &Self) -> Ordering {
                self.error
                    .total_cmp(&other.error)
                    .then_with(|| other.cell.pack().cmp(&self.cell.pack()))
            }
        }

        pub fn hss_greedy(regions: &[Rect], tree: &GridTree, budget: usize) -> Vec<Selected> {
            let budget = budget.max(1);
            let root_rect = tree.space();
            let all: Vec<u32> = (0..regions.len() as u32).collect();
            let root_len = expected_len(&root_rect, regions, &all);
            let root_error = node_error(tree, GridCellId::ROOT, root_len, regions, &all);
            let mut queue = BinaryHeap::new();
            queue.push(QueueEntry {
                error: root_error,
                cell: GridCellId::ROOT,
                rect: root_rect,
                subset: all,
            });
            let mut selected = Vec::new();
            while let Some(entry) = queue.pop() {
                let at_max_level = entry.cell.level() >= tree.max_level();
                let over_budget = selected.len() + queue.len() + 1 + 4 - 1 > budget;
                if at_max_level || over_budget {
                    selected.push(Selected {
                        id: entry.cell,
                        rect: entry.rect,
                        objects: entry.subset,
                    });
                    continue;
                }
                for child in entry.cell.children().expect("level < max_level") {
                    let rect = tree.cell_rect(child).expect("child within tree");
                    let subset: Vec<u32> = entry
                        .subset
                        .iter()
                        .copied()
                        .filter(|&i| rect.intersects(&regions[i as usize]))
                        .collect();
                    let len = expected_len(&rect, regions, &subset);
                    let error = node_error(tree, child, len, regions, &subset);
                    queue.push(QueueEntry {
                        error,
                        cell: child,
                        rect,
                        subset,
                    });
                }
            }
            selected
        }

        fn node_error(
            tree: &GridTree,
            cell: GridCellId,
            own_len: f64,
            regions: &[Rect],
            subset: &[u32],
        ) -> f64 {
            let Some(children) = cell.children() else {
                return 0.0;
            };
            if cell.level() >= tree.max_level() {
                return 0.0;
            }
            children
                .iter()
                .map(|&c| {
                    let r = tree.cell_rect(c).expect("child within tree");
                    let child_subset: Vec<u32> = subset
                        .iter()
                        .copied()
                        .filter(|&i| r.intersects(&regions[i as usize]))
                        .collect();
                    let l = expected_len(&r, regions, &child_subset);
                    (own_len - l) * (own_len - l)
                })
                .sum()
        }
    }

    /// A selection as comparable bits: id, rect corners, object list.
    type CellBits = (u64, [u64; 4], Vec<u32>);

    fn cell_bits(id: GridCellId, rect: &Rect, objects: &[u32]) -> CellBits {
        let corners = [rect.min().x, rect.min().y, rect.max().x, rect.max().y];
        (id.pack(), corners.map(f64::to_bits), objects.to_vec())
    }

    /// One shape of region, as fractions `[x0, y0, x1, y1]` of the
    /// space: random, a nested pair, edges on the dyadic split lines or
    /// the space's border, or zero-area (a point or a segment).
    fn shape(kind: u8, (x, y): (f64, f64), (w, h): (f64, f64), s: f64) -> Vec<[f64; 4]> {
        let outer = [x, y, x + w * (1.0 - x), y + h * (1.0 - y)];
        match kind {
            0 => vec![outer],
            1 => {
                let (dx, dy) = ((outer[2] - x) * s / 2.0, (outer[3] - y) * s / 2.0);
                vec![outer, [x + dx, y + dy, outer[2] - dx, outer[3] - dy]]
            }
            2 => {
                let snap = |v: f64| (v * 16.0).round() / 16.0;
                vec![outer.map(snap)]
            }
            _ if s < 1.0 / 3.0 => vec![[x, y, x, y]],
            _ if s < 2.0 / 3.0 => vec![[x, y, outer[2], y]],
            _ => vec![[x, y, x, outer[3]]],
        }
    }

    fn arb_regions() -> impl Strategy<Value = Vec<[f64; 4]>> {
        let unit = || 0.0f64..=1.0;
        let region = (0u8..4, (unit(), unit()), (unit(), unit()), unit())
            .prop_map(|(kind, at, size, s)| shape(kind, at, size, s));
        proptest::collection::vec(region, 0..24).prop_map(|r| r.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn split_once_selects_exactly_what_the_reference_selects(
            fractions in arb_regions(),
            dyadic_space in (0u8..2).prop_map(|b| b == 1),
            depth in 1u8..=8,
            budget in 1usize..=32,
        ) {
            let space = if dyadic_space {
                Rect::new(0.0, 0.0, 128.0, 128.0).unwrap()
            } else {
                Rect::new(-3.7, 1.1, 103.3, 77.9).unwrap()
            };
            let (sx, sy, w, h) = (space.min().x, space.min().y, space.width(), space.height());
            let regions: Vec<Rect> = fractions
                .iter()
                .map(|f| Rect::new(sx + f[0] * w, sy + f[1] * h, sx + f[2] * w, sy + f[3] * h).unwrap())
                .collect();
            let tree = GridTree::new(space, depth).unwrap();
            let got: Vec<CellBits> = hss_greedy(&regions, &tree, budget)
                .iter()
                .map(|c| cell_bits(c.id, &c.rect, &c.objects))
                .collect();
            let want: Vec<CellBits> = reference::hss_greedy(&regions, &tree, budget)
                .iter()
                .map(|c| cell_bits(c.id, &c.rect, &c.objects))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    fn tree() -> GridTree {
        GridTree::new(Rect::new(0.0, 0.0, 128.0, 128.0).unwrap(), 5).unwrap()
    }

    fn tiles_space(cells: &[SelectedCell], space: &Rect) -> bool {
        let total: f64 = cells.iter().map(|c| c.rect.area()).sum();
        if (total - space.area()).abs() > 1e-6 {
            return false;
        }
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                if a.rect.intersection_area(&b.rect) > 1e-9 {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn budget_one_returns_root() {
        let regions = vec![Rect::new(0.0, 0.0, 10.0, 10.0).unwrap()];
        let cells = hss_greedy(&regions, &tree(), 1);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].id, GridCellId::ROOT);
        assert_eq!(cells[0].objects, vec![0]);
    }

    #[test]
    fn selection_respects_budget_and_tiles() {
        let regions: Vec<Rect> = (0..20)
            .map(|i| {
                let x = f64::from(i % 5) * 25.0;
                let y = f64::from(i / 5) * 30.0;
                Rect::new(x, y, x + 20.0, y + 25.0).unwrap()
            })
            .collect();
        for budget in [1usize, 4, 8, 16, 32] {
            let cells = hss_greedy(&regions, &tree(), budget);
            assert!(
                cells.len() <= budget,
                "budget {budget}: got {}",
                cells.len()
            );
            assert!(tiles_space(&cells, &tree().space()), "budget {budget}");
        }
    }

    #[test]
    fn clustered_regions_attract_fine_cells() {
        // All regions inside the bottom-left level-1 quadrant: the
        // greedy should refine there, leaving the rest coarse.
        let regions: Vec<Rect> = (0..16)
            .map(|i| {
                let x = f64::from(i % 4) * 14.0;
                let y = f64::from(i / 4) * 14.0;
                Rect::new(x, y, x + 10.0, y + 10.0).unwrap()
            })
            .collect();
        let cells = hss_greedy(&regions, &tree(), 16);
        assert!(tiles_space(&cells, &tree().space()));
        // The deepest selected cell must lie in the bottom-left
        // quadrant (x,y < 64).
        let deepest = cells.iter().max_by_key(|c| c.id.level()).unwrap();
        assert!(deepest.id.level() >= 2, "no refinement happened");
        assert!(deepest.rect.min().x < 64.0 && deepest.rect.min().y < 64.0);
        // Cells far from the data keep few objects.
        for c in &cells {
            if c.rect.min().x >= 64.0 && c.rect.min().y >= 64.0 {
                assert!(c.objects.is_empty());
            }
        }
    }

    #[test]
    fn empty_token_is_fine() {
        let cells = hss_greedy(&[], &tree(), 8);
        assert!(!cells.is_empty());
        assert!(tiles_space(&cells, &tree().space()));
        assert!(cells.iter().all(|c| c.objects.is_empty()));
    }

    #[test]
    fn subsets_are_exact() {
        let regions = vec![
            Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(),
            Rect::new(100.0, 100.0, 120.0, 120.0).unwrap(),
        ];
        let cells = hss_greedy(&regions, &tree(), 16);
        for c in &cells {
            for i in 0..regions.len() as u32 {
                let expect = c.rect.intersects(&regions[i as usize]);
                assert_eq!(c.objects.contains(&i), expect, "cell {:?}", c.id);
            }
        }
    }

    #[test]
    fn max_level_caps_depth() {
        let shallow = GridTree::new(Rect::new(0.0, 0.0, 64.0, 64.0).unwrap(), 2).unwrap();
        let regions = vec![Rect::new(0.0, 0.0, 1.0, 1.0).unwrap()];
        let cells = hss_greedy(&regions, &shallow, 1024);
        assert!(cells.iter().all(|c| c.id.level() <= 2));
        assert!(tiles_space(&cells, &shallow.space()));
    }
}
