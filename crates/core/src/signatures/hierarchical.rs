//! Hierarchical hybrid signatures (Section 5.2).
//!
//! For every token `t`, `HSS-Greedy` selects at most `m_t` grid-tree
//! cells `G_t` that tile the data space, adapting the cell sizes to the
//! regions of the objects containing `t` (Figure 10). The hybrid
//! signature of an object `o` for token `t` is then the cells of `G_t`
//! intersecting `o.R`, with weights `|g ∩ o.R|`, in the token's global
//! order: ascending tree level, then ascending intersect-count, then
//! packed id.
//!
//! # Layout
//!
//! Tokens share cells heavily (the coarse levels of the tree are in
//! almost every `G_t`), so the scheme factors the product out once:
//!
//! ```text
//! offsets: [o_0, o_1, ..., o_V]     one u32 per vocabulary slot (+1)
//! entries: [ G_0 | G_1 | ... ]      (cell index, list slot) pairs, each
//!                                   token's run in its global order
//! cells:   [(id, rect), ...]        the distinct cells, sorted by id
//! ```
//!
//! A signature is a linear scan of the token's run — at most `m_t`
//! rectangle tests against the shared cell table — and comes out in
//! global order with no sort, no hashing and, written into a reused
//! [`HierSignature`], no allocation.
//!
//! Every entry also carries the *slot* of its `(token, cell)` list in
//! the filter's [`HybridIndex`], so a probe reads the list by position
//! instead of searching the key table. Before
//! [`HierarchicalScheme::bind`] an entry's slot is its build-time
//! group number — its own index in `entries` — which is how the build
//! tags each posting with its list without hashing a key. `bind`, which
//! `HierarchicalFilter` calls last on every construction path (build,
//! load, refresh), resolves the slots against the frozen arena.

use crate::hss::select_ordered;
use crate::signatures::{Signature, SignatureElement};
use crate::ObjectStore;
use seal_geom::{GridCellId, GridTree, Rect};
use seal_index::HybridIndex;
use seal_text::TokenId;
use std::ops::Range;

/// Slot value of a bound entry whose `(token, cell)` key has no list.
const NO_SLOT: u32 = u32::MAX;

fn slot_of(raw: u32) -> Option<usize> {
    (raw != NO_SLOT).then_some(raw as usize)
}

/// One distinct selected cell, shared by every token that selected it.
#[derive(Debug, Clone, Copy)]
struct SharedCell {
    id: GridCellId,
    rect: Rect,
}

/// One `(token, cell)` pair: an index into the shared cell table and
/// the slot of the pair's list in the bound index (before binding, the
/// entry's own index).
#[derive(Debug, Clone, Copy)]
struct CellEntry {
    cell: u32,
    slot: u32,
}

/// A cell of a token's hierarchical signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierElement {
    /// The tree cell.
    pub cell: GridCellId,
    /// `|g ∩ R|`.
    pub weight: f64,
    slot: u32,
}

impl HierElement {
    /// The slot of this element's list in the bound index (`None` for
    /// a `(token, cell)` pair no object has a posting for); before
    /// [`HierarchicalScheme::bind`], the entry's build-time group
    /// number.
    #[inline]
    pub fn slot(&self) -> Option<usize> {
        slot_of(self.slot)
    }

    /// The element's build-time group number (see
    /// [`HierarchicalScheme::group_keys`]); meaningful before `bind`.
    #[inline]
    pub(crate) fn group(&self) -> u32 {
        self.slot
    }
}

impl SignatureElement for HierElement {
    #[inline]
    fn weight(&self) -> f64 {
        self.weight
    }
}

/// A per-token spatial signature with Lemma 2/3 support.
pub type HierSignature = Signature<HierElement>;

/// Runs `HSS-Greedy` for every token of `store` that `wanted` accepts
/// and that occurs in an object, fanned out over `threads` workers;
/// returns `(token, cells in global order)` in ascending token order.
/// Each selection depends only on that token's regions, so the result
/// is **identical for every thread count**.
fn select_tokens(
    store: &ObjectStore,
    tree: &GridTree,
    budget: usize,
    threads: usize,
    wanted: impl Fn(TokenId) -> bool,
) -> Vec<(TokenId, Vec<GridCellId>)> {
    let mut regions: Vec<Vec<Rect>> = vec![Vec::new(); store.vocab_size()];
    for o in store.objects() {
        for t in o.tokens.iter().filter(|&t| wanted(t)) {
            regions[t.index()].push(o.region);
        }
    }
    let tokens: Vec<usize> = (0..regions.len())
        .filter(|&t| !regions[t].is_empty())
        .collect();
    let cells = seal_index::parallel::map_indexed(tokens.len(), threads, |i| {
        select_ordered(&regions[tokens[i]], tree, budget)
    });
    let ids = tokens.into_iter().map(|t| TokenId(t as u32));
    ids.zip(cells).collect()
}

/// The rectangle of a tree cell by repeated halving from the space
/// MBR, one quadrant split per level — the rectangle every posting
/// bound is computed against (`GridTree::cell_rect` agrees only up to
/// floating-point rounding).
fn halving_rect(space: Rect, id: GridCellId) -> Rect {
    let (mut x0, mut y0) = (space.min().x, space.min().y);
    let (mut x1, mut y1) = (space.max().x, space.max().y);
    for bit in (0..id.level()).rev() {
        let (midx, midy) = ((x0 + x1) / 2.0, (y0 + y1) / 2.0);
        (x0, x1) = if (id.ix() >> bit) & 1 == 0 {
            (x0, midx)
        } else {
            (midx, x1)
        };
        (y0, y1) = if (id.iy() >> bit) & 1 == 0 {
            (y0, midy)
        } else {
            (midy, y1)
        };
    }
    Rect::new(x0, y0, x1, y1).expect("quadrant rect is valid")
}

/// The corpus-level hierarchical scheme: every token's selected cells
/// in the flat layout of the [module docs](self).
#[derive(Debug, Clone)]
pub struct HierarchicalScheme {
    tree: GridTree,
    budget: usize,
    /// Token id → start of its run in `entries`; `vocab + 1` entries.
    offsets: Vec<u32>,
    /// Every token's cells, each run in the token's global order.
    entries: Vec<CellEntry>,
    /// The distinct selected cells, ascending by id.
    cells: Vec<SharedCell>,
}

impl HierarchicalScheme {
    /// Builds per-token grids for every token in the store.
    ///
    /// * `max_level` — depth of the grid tree (the finest granularity
    ///   `HSS-Greedy` may select).
    /// * `budget` — `m_t`, identical for every token here; Figure 15's
    ///   index-size sweep varies it.
    pub fn build(store: &ObjectStore, max_level: u8, budget: usize) -> Self {
        Self::build_with_threads(store, max_level, budget, 1)
    }

    /// [`build`](Self::build) with the per-token `HSS-Greedy`
    /// selections fanned out over `threads` workers (0 = one per
    /// core); the selected cells are identical for every thread count.
    pub fn build_with_threads(
        store: &ObjectStore,
        max_level: u8,
        budget: usize,
        threads: usize,
    ) -> Self {
        let tree = GridTree::new(store.space(), max_level).expect("valid store space");
        let runs = select_tokens(store, &tree, budget, threads, |_| true);
        Self::from_runs(tree, budget, store.vocab_size(), runs)
    }

    /// Builds the scheme for the **next generation** of a store by
    /// reusing `prev`'s per-token selections wherever they are
    /// provably unchanged.
    ///
    /// A token's `HSS-Greedy` selection is a pure function of (the
    /// regions of the objects containing it, the grid tree, the
    /// budget). `store` must be `prev`'s store with `delta_start..`
    /// appended (ids stable); then a token absent from the delta has
    /// exactly the regions it had, so its run is copied verbatim, and
    /// only tokens occurring in the delta are re-selected (over their
    /// full region list, so the result is *identical* to
    /// [`build_with_threads`] over the union — the generation
    /// contract). The result is unbound: `prev`'s list slots name
    /// `prev`'s arena, not the next one.
    ///
    /// Returns `None` when the reuse precondition fails: the delta
    /// extended the space MBR, so the grid tree — and with it every
    /// selection — changed, and the caller must fall back to a fresh
    /// build.
    ///
    /// [`build_with_threads`]: Self::build_with_threads
    pub fn extend_from(
        prev: &HierarchicalScheme,
        store: &ObjectStore,
        delta_start: usize,
        threads: usize,
    ) -> Option<Self> {
        let tree = GridTree::new(store.space(), prev.tree.max_level()).ok()?;
        if tree != prev.tree {
            return None;
        }
        let vocab = store.vocab_size();
        let mut touched = vec![false; vocab];
        for o in &store.objects()[delta_start..] {
            for t in o.tokens.iter() {
                touched[t.index()] = true;
            }
        }
        let is_touched = |t: TokenId| touched[t.index()];
        let mut reselected = select_tokens(store, &tree, prev.budget, threads, is_touched)
            .into_iter()
            .peekable();
        let runs = (0..vocab as u32).map(|t| {
            let copied = || prev.token_cells(TokenId(t)).map(|(id, _)| id).collect();
            reselected
                .next_if(|(fresh, _)| fresh.0 == t)
                .unwrap_or_else(|| (TokenId(t), copied()))
        });
        Some(Self::from_runs(tree, prev.budget, vocab, runs))
    }

    /// Lays per-token runs (each token's cells in its global order,
    /// tokens strictly ascending and below `vocab`) out flat — the one
    /// constructor behind the fresh build, the generation-extending
    /// build and the container load. The cells of one token must not
    /// repeat or contain one another; the result is unbound: each
    /// entry's slot is its own index, its group number.
    pub(crate) fn from_runs(
        tree: GridTree,
        budget: usize,
        vocab: usize,
        runs: impl IntoIterator<Item = (TokenId, Vec<GridCellId>)>,
    ) -> Self {
        let mut offsets: Vec<u32> = Vec::with_capacity(vocab + 1);
        let mut ids: Vec<GridCellId> = Vec::new();
        let len = |ids: &Vec<GridCellId>| u32::try_from(ids.len()).expect("pair count fits u32");
        for (t, run) in runs {
            let i = t.index();
            assert!(
                offsets.len() <= i && i < vocab,
                "token {i} out of order or range"
            );
            offsets.resize(i + 1, len(&ids));
            ids.extend(run);
        }
        offsets.resize(vocab + 1, len(&ids));
        let mut distinct = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let entries = ids.iter().zip(0..).map(|(id, group)| CellEntry {
            cell: distinct.binary_search(id).expect("id is in its own set") as u32,
            slot: group,
        });
        let space = tree.space();
        let cells = distinct.iter().map(|&id| SharedCell {
            id,
            rect: halving_rect(space, id),
        });
        HierarchicalScheme {
            entries: entries.collect(),
            cells: cells.collect(),
            tree,
            budget,
            offsets,
        }
    }

    /// The key of every group — entry — in group-number order: the key
    /// table an unbound scheme's postings are frozen against
    /// ([`HybridIndex::from_groups`]).
    pub(crate) fn group_keys(&self) -> Vec<u128> {
        let mut keys = Vec::with_capacity(self.entries.len());
        for t in 0..self.offsets.len() - 1 {
            let run = &self.entries[self.run(t)];
            let token = TokenId(t as u32);
            keys.extend(
                run.iter()
                    .map(|e| Self::key(token, self.cells[e.cell as usize].id)),
            );
        }
        keys
    }

    /// Resolves every entry's list slot against `index` — the frozen
    /// arena this scheme's signatures were pushed into. One pass over
    /// the index's keys, each matched against its token's run; must be
    /// repeated whenever the arena is rebuilt or re-finalized.
    pub fn bind(&mut self, index: &HybridIndex<u128>) {
        for e in &mut self.entries {
            e.slot = NO_SLOT;
        }
        for (slot, (key, _)) in index.iter().enumerate() {
            // A key is (token << 64) | packed cell.
            let (token, cell) = (key >> 64, key as u64);
            let run = usize::try_from(token).map_or(0..0, |t| self.run(t));
            let cells = &self.cells;
            let pair = self.entries[run]
                .iter_mut()
                .find(|e| cells[e.cell as usize].id.pack() == cell);
            if let Some(e) = pair {
                e.slot = u32::try_from(slot).expect("list count fits u32");
            }
        }
    }

    /// The range of `token`'s run in `entries` (empty outside the
    /// vocabulary the scheme was built for).
    #[inline]
    fn run(&self, token: usize) -> Range<usize> {
        match (
            self.offsets.get(token),
            self.offsets.get(token.wrapping_add(1)),
        ) {
            (Some(&lo), Some(&hi)) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }

    /// The spatial signature of `region` over token `t`'s grids,
    /// written into `sig` (buffers reused): intersecting cells with
    /// weights `|g ∩ R|` in the token's global order, plus the suffix
    /// bounds. Empty for a token that occurs in no object — probing it
    /// can produce no candidates.
    pub fn signature_into(&self, t: TokenId, region: &Rect, sig: &mut HierSignature) {
        sig.refill(|elements| {
            for e in &self.entries[self.run(t.index())] {
                let cell = &self.cells[e.cell as usize];
                if cell.rect.intersects(region) {
                    elements.push(HierElement {
                        cell: cell.id,
                        weight: cell.rect.intersection_area(region),
                        slot: e.slot,
                    });
                }
            }
        });
    }

    /// The cells selected for a token in its global order, each with
    /// the slot of its list (see [`HierElement::slot`]); empty if the
    /// token occurs in no object.
    pub fn token_cells(
        &self,
        t: TokenId,
    ) -> impl Iterator<Item = (GridCellId, Option<usize>)> + '_ {
        let run = &self.entries[self.run(t.index())];
        run.iter()
            .map(|e| (self.cells[e.cell as usize].id, slot_of(e.slot)))
    }

    /// The tokens with at least one selected cell — those occurring in
    /// an object — in ascending id order.
    pub fn tokens(&self) -> impl Iterator<Item = TokenId> + '_ {
        (0..self.offsets.len() - 1)
            .filter(|&t| !self.run(t).is_empty())
            .map(|t| TokenId(t as u32))
    }

    /// Every token's selected cells as sorted `(token, packed cell)`
    /// pairs — a canonical fingerprint of the whole HSS selection.
    /// Two schemes built from the same store select the same cells iff
    /// these vectors are equal; the parallel-determinism tests compare
    /// them across thread counts.
    pub fn selected_cells_sorted(&self) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = self
            .tokens()
            .flat_map(|t| self.token_cells(t).map(move |(id, _)| (t.0, id.pack())))
            .collect();
        out.sort_unstable();
        out
    }

    /// The grid tree.
    pub fn tree(&self) -> &GridTree {
        &self.tree
    }

    /// The per-token budget `m_t`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Total selected cells across tokens (index-size accounting).
    pub fn total_cells(&self) -> usize {
        self.entries.len()
    }

    /// Heap bytes of the three tables (the same for a built, an
    /// extended and a loaded scheme over the same store).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..])
            + std::mem::size_of_val(&self.entries[..])
            + std::mem::size_of_val(&self.cells[..])
    }

    /// Packs a `(token, cell)` pair into the hybrid-index key space.
    #[inline]
    pub fn key(t: TokenId, cell: GridCellId) -> u128 {
        (u128::from(t.0) << 64) | u128::from(cell.pack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;
    use crate::RoiObject;
    use proptest::prelude::*;
    use seal_text::TokenSet;
    use std::collections::{HashMap, HashSet};

    /// The rectangle of `child` given its parent's rectangle (quadrant
    /// split; exact halves).
    fn child_rect(parent: &Rect, child: GridCellId) -> Rect {
        let midx = (parent.min().x + parent.max().x) / 2.0;
        let midy = (parent.min().y + parent.max().y) / 2.0;
        let (x0, x1) = if child.ix().is_multiple_of(2) {
            (parent.min().x, midx)
        } else {
            (midx, parent.max().x)
        };
        let (y0, y1) = if child.iy().is_multiple_of(2) {
            (parent.min().y, midy)
        } else {
            (midy, parent.max().y)
        };
        Rect::new(x0, y0, x1, y1).unwrap()
    }

    /// The signature generator the flat scan replaced, kept as the
    /// oracle: descend the quad tree from the root, pruning branches
    /// disjoint from the region, collect the selected cells reached
    /// and sort them by their rank in the token's global order.
    /// Returns `(cell, weight, suffix bound)` triples.
    fn descent_signature(
        scheme: &HierarchicalScheme,
        t: TokenId,
        region: &Rect,
    ) -> Vec<(GridCellId, f64, f64)> {
        let mut rank: HashMap<u64, usize> = HashMap::new();
        let mut ancestors: HashSet<u64> = HashSet::new();
        for (i, (id, _)) in scheme.token_cells(t).enumerate() {
            rank.insert(id.pack(), i);
            let mut cur = id;
            while let Some(p) = cur.parent() {
                ancestors.insert(p.pack());
                cur = p;
            }
        }
        let mut hits: Vec<(usize, GridCellId, Rect)> = Vec::new();
        let mut stack = vec![(GridCellId::ROOT, scheme.tree().space())];
        while let Some((id, rect)) = stack.pop() {
            if !rect.intersects(region) {
                continue;
            }
            if let Some(&pos) = rank.get(&id.pack()) {
                hits.push((pos, id, rect));
            } else if ancestors.contains(&id.pack()) {
                for child in id.children().unwrap() {
                    stack.push((child, child_rect(&rect, child)));
                }
            }
        }
        hits.sort_unstable_by_key(|(pos, _, _)| *pos);
        let weights: Vec<f64> = hits
            .iter()
            .map(|(_, _, rect)| rect.intersection_area(region))
            .collect();
        let suffix = crate::signatures::suffix_sums(&weights);
        hits.iter()
            .zip(weights.iter().zip(suffix))
            .map(|((_, id, _), (&w, s))| (*id, w, s))
            .collect()
    }

    fn flat_signature(
        scheme: &HierarchicalScheme,
        t: TokenId,
        region: &Rect,
    ) -> Vec<(GridCellId, f64, f64)> {
        let mut sig = HierSignature::default();
        scheme.signature_into(t, region, &mut sig);
        sig.elements_with_bounds()
            .map(|(e, bound)| (e.cell, e.weight, bound))
            .collect()
    }

    fn bits(sig: &[(GridCellId, f64, f64)]) -> Vec<(u64, u64, u64)> {
        sig.iter()
            .map(|(id, w, s)| (id.pack(), w.to_bits(), s.to_bits()))
            .collect()
    }

    fn arb_objects(vocab: u32) -> impl Strategy<Value = Vec<RoiObject>> {
        let object = (
            0.0f64..900.0,
            0.0f64..900.0,
            0.5f64..300.0,
            0.5f64..300.0,
            proptest::collection::vec(0u32..vocab, 1..5),
        )
            .prop_map(|(x, y, w, h, tokens)| {
                RoiObject::new(
                    Rect::new(x, y, x + w, y + h).unwrap(),
                    TokenSet::from_ids(tokens.into_iter().map(TokenId)),
                )
            });
        proptest::collection::vec(object, 1..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn flat_scan_equals_quad_descent(
            objects in arb_objects(12),
            max_level in 1u8..11,
            budget in 1usize..65,
            fx in 0.0f64..1.0,
            fy in 0.0f64..1.0,
            fw in 0.0f64..1.0,
            fh in 0.0f64..1.0,
        ) {
            let store = ObjectStore::from_objects(objects, 12);
            let scheme = HierarchicalScheme::build(&store, max_level, budget);
            let space = store.space();
            let (sx, sy) = (space.min().x, space.min().y);
            let (w, h) = (space.width(), space.height());
            let at = |x0: f64, y0: f64, x1: f64, y1: f64| {
                Rect::new(sx + x0 * w, sy + y0 * h, sx + x1 * w, sy + y1 * h).unwrap()
            };
            let (x1, y1) = (fx + fw * (1.0 - fx), fy + fh * (1.0 - fy));
            let regions = [
                at(fx, fy, x1, y1),                    // inside the space
                at(fx - 0.5, fy - 0.5, x1, y1),        // straddling its border
                at(0.5, fy, x1.max(0.5), y1),          // edge on the root split line
                at(0.25, 0.25, 0.5, 0.5),              // exactly a level-2 cell
                at(fx, fy, fx, fy),                    // zero area
                at(1.5, 1.5, 2.0, 2.0),                // outside: zero overlap
                at(1.0, fy, 1.5, y1),                  // touching the space's edge
                at(-1.0, -1.0, 2.0, 2.0),              // covering the space
            ];
            for t in (0..13).map(TokenId) {
                for region in &regions {
                    prop_assert_eq!(
                        bits(&flat_signature(&scheme, t, region)),
                        bits(&descent_signature(&scheme, t, region)),
                        "token {:?} region {:?}", t, region
                    );
                }
            }
        }
    }

    #[test]
    fn every_token_gets_a_tiling() {
        let (store, _q) = figure1_store();
        let scheme = HierarchicalScheme::build(&store, 4, 8);
        for t in 0..5u32 {
            let cells: Vec<_> = scheme.token_cells(TokenId(t)).collect();
            let total: f64 = cells
                .iter()
                .map(|(id, _)| halving_rect(store.space(), *id).area())
                .sum();
            assert!(
                (total - store.space().area()).abs() < 1e-6,
                "token {t} does not tile the space"
            );
            assert!(!cells.is_empty() && cells.len() <= 8);
        }
        // Unbound: every entry's slot is its own index, its group.
        let slots: Vec<Option<usize>> = scheme
            .tokens()
            .flat_map(|t| scheme.token_cells(t))
            .map(|c| c.1)
            .collect();
        assert!(slots
            .iter()
            .copied()
            .eq((0..scheme.total_cells()).map(Some)));
        assert_eq!(scheme.group_keys().len(), scheme.total_cells());
        assert_eq!(scheme.token_cells(TokenId(99)).count(), 0);
        assert_eq!(scheme.tokens().count(), 5);
        assert!(flat_signature(&scheme, TokenId(99), &store.space()).is_empty());
    }

    #[test]
    fn halving_agrees_with_the_tree_on_dyadic_spaces() {
        let space = Rect::new(0.0, 0.0, 128.0, 128.0).unwrap();
        let tree = GridTree::new(space, 6).unwrap();
        for (l, x, y) in [(0u8, 0u32, 0u32), (1, 1, 0), (3, 5, 2), (6, 63, 17)] {
            let id = GridCellId::new(l, x, y).unwrap();
            assert_eq!(halving_rect(space, id), tree.cell_rect(id).unwrap());
        }
    }

    #[test]
    fn signature_weights_sum_to_clipped_region() {
        let (store, q) = figure1_store();
        let scheme = HierarchicalScheme::build(&store, 4, 8);
        let total: f64 = flat_signature(&scheme, TokenId(0), &q.region)
            .iter()
            .map(|(_, w, _)| w)
            .sum();
        let clipped = q.region.intersection_area(&store.space());
        assert!((total - clipped).abs() < 1e-9);
    }

    #[test]
    fn order_is_level_then_count() {
        let (store, _q) = figure1_store();
        let scheme = HierarchicalScheme::build(&store, 4, 16);
        for t in 0..5u32 {
            let regions: Vec<Rect> = store
                .objects()
                .iter()
                .filter(|o| o.tokens.contains(TokenId(t)))
                .map(|o| o.region)
                .collect();
            let count = |id: GridCellId| {
                let rect = halving_rect(store.space(), id);
                regions.iter().filter(|r| rect.intersects(r)).count()
            };
            let cells: Vec<GridCellId> = scheme.token_cells(TokenId(t)).map(|c| c.0).collect();
            for w in cells.windows(2) {
                let (a, b) = (w[0], w[1]);
                assert!(
                    a.level() < b.level() || (a.level() == b.level() && count(a) <= count(b)),
                    "order violated for token {t}"
                );
            }
        }
    }

    #[test]
    fn prefix_lemma_holds() {
        let (store, q) = figure1_store();
        let scheme = HierarchicalScheme::build(&store, 4, 8);
        let mut sig = HierSignature::default();
        scheme.signature_into(TokenId(1), &q.region, &mut sig);
        let c = 0.25 * q.region.area();
        let p = sig.prefix(c);
        let dropped: f64 = sig.elements()[p.len()..].iter().map(|e| e.weight).sum();
        assert!(dropped < c);
    }

    #[test]
    fn keys_are_injective_across_tokens_and_cells() {
        let a = HierarchicalScheme::key(TokenId(1), GridCellId::new(1, 0, 0).unwrap());
        let b = HierarchicalScheme::key(TokenId(1), GridCellId::new(1, 1, 0).unwrap());
        let c = HierarchicalScheme::key(TokenId(2), GridCellId::new(1, 0, 0).unwrap());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn extend_from_matches_fresh_build() {
        let (store, _q) = figure1_store();
        let prev = HierarchicalScheme::build(&store, 4, 8);
        // Delta inside the existing space: reuse applies.
        let delta = vec![
            RoiObject::new(
                Rect::new(30.0, 30.0, 55.0, 55.0).unwrap(),
                TokenSet::from_ids([TokenId(0), TokenId(3)]),
            ),
            RoiObject::new(
                Rect::new(100.0, 100.0, 110.0, 115.0).unwrap(),
                TokenSet::from_ids([TokenId(3), TokenId(7)]), // 7 grows the vocabulary
            ),
        ];
        let union = store.extended(&delta);
        for threads in [1usize, 2, 0] {
            let extended = HierarchicalScheme::extend_from(&prev, &union, store.len(), threads)
                .expect("space unchanged: reuse applies");
            let fresh = HierarchicalScheme::build(&union, 4, 8);
            assert_eq!(
                extended.selected_cells_sorted(),
                fresh.selected_cells_sorted(),
                "threads={threads}: extended scheme diverged from the fresh build"
            );
            // Not just the same cells: the same order, token by token.
            for t in fresh.tokens() {
                assert!(extended.token_cells(t).eq(fresh.token_cells(t)), "{t:?}");
            }
            assert_eq!(extended.size_bytes(), fresh.size_bytes());
        }
    }

    #[test]
    fn extend_from_refuses_when_space_grows() {
        let (store, _q) = figure1_store();
        let prev = HierarchicalScheme::build(&store, 4, 8);
        let delta = vec![RoiObject::new(
            Rect::new(-50.0, -50.0, -40.0, -40.0).unwrap(), // outside the MBR
            TokenSet::from_ids([TokenId(0)]),
        )];
        let union = store.extended(&delta);
        assert!(
            HierarchicalScheme::extend_from(&prev, &union, store.len(), 1).is_none(),
            "grown space must force a fresh build"
        );
    }

    #[test]
    fn extend_from_with_empty_delta_is_identity() {
        let (store, _q) = figure1_store();
        let prev = HierarchicalScheme::build(&store, 4, 8);
        let same = HierarchicalScheme::extend_from(&prev, &store, store.len(), 1).unwrap();
        assert_eq!(same.selected_cells_sorted(), prev.selected_cells_sorted());
    }

    #[test]
    fn sizes_follow_the_tables() {
        let (store, _q) = figure1_store();
        let scheme = HierarchicalScheme::build(&store, 4, 4);
        assert!(scheme.total_cells() <= 5 * 4);
        assert!(scheme.cells.len() <= scheme.total_cells());
        assert_eq!(scheme.budget(), 4);
        assert_eq!(
            scheme.size_bytes(),
            4 * (store.vocab_size() + 1)
                + 8 * scheme.total_cells()
                + std::mem::size_of::<SharedCell>() * scheme.cells.len()
        );
    }
}
