//! Keyed hybrid index over dual-bounded postings (Section 5), stored
//! as parallel id/spatial/textual columns in a single contiguous arena
//! (columnar CSR layout) once finalized.

use crate::columns::{DualColumns, DualPostingsView};
use crate::csr::CsrCore;
use crate::{DualPosting, ObjId};
use std::hash::Hash;

/// The hybrid inverted index of Sections 5.1/5.2: hash-based hybrid
/// signature element `(t, g)` → dual-bounded posting list.
///
/// Keys are packed `(token, grid-cell)` pairs; `seal-core` packs them as
/// `u128 = (token as u128) << 64 | cell`.
///
/// A thin wrapper over the same frozen-CSR container as
/// [`crate::InvertedIndex`], with one id column and **two** bound
/// columns. Each group is sorted by descending *spatial* bound — the
/// axis with the most distinct values, so the cut is deepest on
/// average — and the textual bound column is checked row-by-row for
/// the surviving prefix. The probe touches the spatial column for the
/// cut, the textual column for the per-row check, and the id column
/// for the survivors; never an interleaved struct.
#[derive(Debug, Clone)]
pub struct HybridIndex<K: Eq + Hash + Ord> {
    pub(crate) core: CsrCore<K, DualColumns>,
}

impl<K: Eq + Hash + Ord + Copy> Default for HybridIndex<K> {
    fn default() -> Self {
        HybridIndex {
            core: CsrCore::default(),
        }
    }
}

fn cmp_dual(a: &DualPosting, b: &DualPosting) -> std::cmp::Ordering {
    crate::csr::desc_f64(a.spatial_bound, b.spatial_bound).then(a.object.cmp(&b.object))
}

impl<K: Eq + Hash + Ord + Copy + Sync> HybridIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a posting for `key` with the two bounds of Section 5.1.
    ///
    /// # Panics
    /// If either bound is NaN — rejected at insert time so the
    /// descending spatial sort and both qualifying comparisons stay
    /// well-defined.
    pub fn push(&mut self, key: K, object: ObjId, spatial_bound: f64, textual_bound: f64) {
        crate::csr::check_bound(spatial_bound, "spatial bound");
        crate::csr::check_bound(textual_bound, "textual bound");
        self.core
            .push(key, DualPosting::new(object, spatial_bound, textual_bound));
    }

    /// Compacts all postings into the contiguous columnar arena
    /// (groups in descending spatial-bound order). Must be called
    /// before querying; pushing after a finalize and re-finalizing
    /// **merges** the new postings in — staged postings are sorted,
    /// frozen groups merged, never re-sorted.
    pub fn finalize(&mut self) {
        self.core.finalize(cmp_dual);
    }

    /// [`finalize`](Self::finalize) with the staged per-group sorts
    /// fanned out over `threads` workers (0 = all cores). The result
    /// is bit-identical for every thread count.
    pub fn finalize_with_threads(&mut self, threads: usize) {
        self.core.finalize_with_threads(cmp_dual, threads);
    }

    /// True when every pushed posting is in the frozen arena (no
    /// staged postings awaiting [`finalize`](Self::finalize)).
    pub fn is_finalized(&self) -> bool {
        self.core.is_finalized()
    }

    /// The generation of the frozen arena: 0 before the first
    /// finalize, then +1 for every finalize that folded staged
    /// postings in (no-op finalizes do not count).
    pub fn generation(&self) -> u64 {
        self.core.generation()
    }

    /// The largest object id in the **frozen** arena (`None` when
    /// empty). Load paths use this to check a deserialized index
    /// against the store it is being attached to before any probe
    /// indexes a per-object scratch table with an id.
    pub fn max_object_id(&self) -> Option<ObjId> {
        self.core.arena().ids.iter().copied().max()
    }

    /// The slot of `key`'s list: its position among the frozen keys in
    /// ascending order (the order [`iter`](Self::iter) yields them in),
    /// `None` when the key has no postings. Valid until the next
    /// finalize that folds staged postings in — resolve once per
    /// [`generation`](Self::generation), then probe with
    /// [`qualifying_at`](Self::qualifying_at) and no key search.
    #[inline]
    pub fn slot(&self, key: &K) -> Option<usize> {
        self.core.slot(key)
    }

    /// The full list for a key, if any, as a columnar view (descending
    /// spatial-bound order).
    pub fn list(&self, key: &K) -> Option<DualPostingsView<'_>> {
        self.slot(key).map(|slot| self.list_at(slot))
    }

    /// The full list at `slot` (see [`slot`](Self::slot)).
    ///
    /// # Panics
    /// If `slot` is not below the number of frozen keys.
    #[inline]
    pub fn list_at(&self, slot: usize) -> DualPostingsView<'_> {
        self.view(self.core.span_at(slot))
    }

    fn view(&self, span: std::ops::Range<usize>) -> DualPostingsView<'_> {
        let a = self.core.arena();
        DualPostingsView {
            ids: &a.ids[span.clone()],
            spatial_bounds: &a.spatial[span.clone()],
            textual_bounds: &a.textual[span],
        }
    }

    /// Iterates the object ids qualifying under both thresholds,
    /// `I_{c_R, c_T}(key)`: one [`bound_cut`](crate::bound_cut) over
    /// the spatial column, then a textual-column check per surviving
    /// row, yielding ids from the id column.
    #[inline]
    pub fn qualifying<'a>(
        &'a self,
        key: &K,
        c_spatial: f64,
        c_textual: f64,
    ) -> impl Iterator<Item = ObjId> + 'a {
        let span = self.core.group_span(key).unwrap_or(0..0);
        self.qualifying_in(span, c_spatial, c_textual)
    }

    /// [`qualifying`](Self::qualifying) for the list at `slot`, with no
    /// key search.
    ///
    /// # Panics
    /// If `slot` is not below the number of frozen keys.
    #[inline]
    pub fn qualifying_at(
        &self,
        slot: usize,
        c_spatial: f64,
        c_textual: f64,
    ) -> impl Iterator<Item = ObjId> + '_ {
        self.qualifying_in(self.core.span_at(slot), c_spatial, c_textual)
    }

    #[inline]
    fn qualifying_in(
        &self,
        span: std::ops::Range<usize>,
        c_spatial: f64,
        c_textual: f64,
    ) -> impl Iterator<Item = ObjId> + '_ {
        debug_assert!(self.core.is_finalized(), "query on non-finalized index");
        let list = self.view(span);
        let cut = crate::csr::bound_cut(list.spatial_bounds, c_spatial);
        list.ids[..cut]
            .iter()
            .zip(&list.textual_bounds[..cut])
            .filter(move |&(_, &tb)| tb >= c_textual)
            .map(|(&id, _)| id)
    }

    /// `|I_{c_R}(key)|` before the textual check — the spatial-cut
    /// length alone, costed without touching the id or textual
    /// columns.
    #[inline]
    pub fn qualifying_len(&self, key: &K, c_spatial: f64) -> usize {
        debug_assert!(self.core.is_finalized(), "query on non-finalized index");
        match self.core.group_span(key) {
            Some(span) => crate::csr::bound_cut(&self.core.arena().spatial[span], c_spatial),
            None => 0,
        }
    }

    /// Number of distinct keys (hash buckets actually populated).
    pub fn key_count(&self) -> usize {
        self.core.key_count()
    }

    /// Total number of postings.
    pub fn posting_count(&self) -> usize {
        self.core.posting_count()
    }

    /// Exact heap size in bytes of the frozen layout (the three
    /// columns + key table + offsets, plus any staged postings).
    pub fn size_bytes(&self) -> usize {
        self.core.size_bytes()
    }

    /// Iterates `(key, group view)` in ascending key order.
    ///
    /// # Panics
    /// If postings are staged (push without a following
    /// [`finalize`](Self::finalize)): iteration sees only the frozen
    /// arena and would silently drop the staged postings.
    pub fn iter(&self) -> impl Iterator<Item = (K, DualPostingsView<'_>)> + '_ {
        self.core
            .iter_spans()
            .map(move |(k, span)| (k, self.view(span)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(token: u64, cell: u64) -> u128 {
        (u128::from(token) << 64) | u128::from(cell)
    }

    #[test]
    fn figure9_example() {
        // Figure 9's inverted lists (token t1 = 1, grids by number):
        // (t1,g10): o1 2400/1.1, o2 1525/1.9
        // (t1,g11): o5 1100/1.7, o1 1075/1.9
        // (t1,g14): o1 900/1.7,  o2 550/1.9
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        idx.push(key(1, 10), 0, 2400.0, 1.1);
        idx.push(key(1, 10), 1, 1525.0, 1.9);
        idx.push(key(1, 11), 4, 1100.0, 1.7);
        idx.push(key(1, 11), 0, 1075.0, 1.9);
        idx.push(key(1, 14), 0, 900.0, 1.7);
        idx.push(key(1, 14), 1, 550.0, 1.9);
        idx.finalize();

        // cR = 600, cT = 0.57: the (t1,g14) list returns only o1, as the
        // paper notes ("the inverted list of element (t1, g14) only
        // returns o1").
        let got: Vec<ObjId> = idx.qualifying(&key(1, 14), 600.0, 0.57).collect();
        assert_eq!(got, vec![0]);

        // (t1,g10): o1's textual bound 1.1 ≥ 0.57 and o2 1.9 ≥ 0.57 —
        // both qualify spatially too.
        let got: Vec<ObjId> = idx.qualifying(&key(1, 10), 600.0, 0.57).collect();
        assert_eq!(got, vec![0, 1]);

        assert_eq!(idx.key_count(), 3);
        assert_eq!(idx.posting_count(), 6);
        assert_eq!(idx.qualifying(&key(9, 9), 0.0, 0.0).count(), 0);
        assert_eq!(idx.qualifying_len(&key(1, 10), 600.0), 2);
        assert_eq!(idx.qualifying_len(&key(9, 9), 0.0), 0);
    }

    #[test]
    fn spatial_cut_and_textual_filter() {
        // Sorted by spatial bound; textual bound prunes within the cut.
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        idx.push(key(1, 1), 4, 1100.0, 1.7);
        idx.push(key(1, 1), 0, 1075.0, 1.9);
        idx.finalize();
        let got: Vec<ObjId> = idx.qualifying(&key(1, 1), 600.0, 1.8).collect();
        assert_eq!(got, vec![0], "o5's textual bound 1.7 < 1.8 is pruned");
        let got: Vec<ObjId> = idx.qualifying(&key(1, 1), 1090.0, 0.0).collect();
        assert_eq!(got, vec![4], "spatial cut drops o1");
    }

    #[test]
    fn slots_read_the_lists_their_keys_name() {
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        idx.push(key(2, 7), 3, 5.0, 1.0);
        idx.push(key(1, 9), 4, 1100.0, 1.7);
        idx.push(key(1, 9), 0, 1075.0, 1.9);
        idx.finalize();
        // Slots are positions in ascending key order.
        assert_eq!(idx.slot(&key(1, 9)), Some(0));
        assert_eq!(idx.slot(&key(2, 7)), Some(1));
        assert_eq!(idx.slot(&key(1, 8)), None);
        for (slot, (k, list)) in idx.iter().enumerate() {
            assert_eq!(idx.slot(&k), Some(slot));
            assert_eq!(idx.list_at(slot).ids, list.ids);
            for (c_r, c_t) in [(0.0, 0.0), (1090.0, 0.0), (600.0, 1.8), (1e9, 0.0)] {
                assert!(idx
                    .qualifying_at(slot, c_r, c_t)
                    .eq(idx.qualifying(&k, c_r, c_t)));
            }
        }
        // A folding finalize may move every later slot.
        idx.push(key(0, 1), 9, 1.0, 1.0);
        idx.finalize();
        assert_eq!(idx.slot(&key(1, 9)), Some(1));
    }

    #[test]
    fn list_view_columns_are_row_aligned() {
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        idx.push(key(1, 1), 4, 1100.0, 1.7);
        idx.push(key(1, 1), 0, 1075.0, 1.9);
        idx.finalize();
        let v = idx.list(&key(1, 1)).unwrap();
        assert_eq!(v.ids, &[4, 0]);
        assert_eq!(v.spatial_bounds, &[1100.0, 1075.0]);
        assert_eq!(v.textual_bounds, &[1.7, 1.9]);
        assert_eq!(v.get(1), DualPosting::new(0, 1075.0, 1.9));
    }

    #[test]
    #[should_panic(expected = "NaN spatial bound rejected at insert time")]
    fn nan_spatial_bound_rejected_at_insert() {
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        idx.push(key(1, 1), 0, f64::NAN, 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN textual bound rejected at insert time")]
    fn nan_textual_bound_rejected_at_insert() {
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        idx.push(key(1, 1), 0, 1.0, f64::NAN);
    }

    #[test]
    fn size_accounting() {
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        let base = idx.size_bytes();
        idx.push(key(1, 1), 0, 1.0, 1.0);
        assert!(idx.size_bytes() > base);
    }

    #[test]
    fn iteration() {
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        idx.push(key(1, 2), 0, 1.0, 1.0);
        idx.push(key(3, 4), 1, 1.0, 1.0);
        idx.finalize();
        assert_eq!(idx.iter().count(), 2);
        let total: usize = idx.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, idx.posting_count(), "arena holds every posting");
    }
}
