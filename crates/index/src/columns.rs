//! Columnar (structure-of-arrays) posting storage — the frozen-arena
//! form behind [`crate::InvertedIndex`] and [`crate::HybridIndex`].
//!
//! The paper's pruning rule is a threshold cut over a *bound* column
//! (`bound ≥ c`); everything else a probe touches is the *id* column.
//! Storing postings as an array of structs interleaves the two, so a
//! `partition_point` probe strides over ids it never reads and a
//! qualifying-prefix copy strides over bounds it never reads. The
//! frozen arenas therefore keep **parallel columns**:
//!
//! ```text
//! single-bound: ids: [o0, o1, ...]        bounds:  [b0, b1, ...]
//! dual-bound:   ids: [o0, o1, ...]        spatial: [s0, s1, ...]
//!                                         textual: [t0, t1, ...]
//! ```
//!
//! Row `j` of every column belongs to the same posting. The bound
//! column is a dense `f64` run the chunked scan in
//! [`crate::bound_cut`] can compare 16-per-iteration, and the id
//! column is a dense `u32` run a qualifying prefix can be returned
//! from (uncompressed) or memcpy'd out of (scratch decode) without
//! touching a single bound.
//!
//! Staged postings (between `push` and `finalize`) remain ordinary
//! structs ([`Posting`] / [`DualPosting`]) — sorting small staged runs
//! as structs is simpler and the staging map is never probed. The
//! [`PostingColumns`] trait is the bridge: the shared CSR machinery
//! sorts/merges *items* while splicing *columns*.

use crate::{DualPosting, ObjId, Posting};
use std::ops::Range;

/// A columnar posting store the CSR core can splice: append items,
/// copy ranges from another store of the same shape, and account for
/// heap use. Implemented by [`SingleColumns`], [`DualColumns`], and —
/// for tests and degenerate single-column uses — any `Vec<T>`.
pub(crate) trait PostingColumns: Default + Clone + std::fmt::Debug + Send + Sync {
    /// The logical posting a row represents (the staging/sort unit).
    type Item: Copy + Send + Sync;

    /// Number of rows.
    fn len(&self) -> usize;

    /// A store with room for `n` rows in every column.
    fn with_capacity(n: usize) -> Self;

    /// Materializes row `i` as an item (merge comparisons only — the
    /// probe path never materializes items).
    fn get(&self, i: usize) -> Self::Item;

    /// Appends one item as a new row.
    fn push_item(&mut self, item: Self::Item);

    /// Appends `src[range]` column-by-column (bulk copies, no
    /// per-item work).
    fn extend_from_range(&mut self, src: &Self, range: Range<usize>);

    /// Appends a run of items (a sorted staged group).
    fn extend_from_items(&mut self, items: &[Self::Item]);

    /// Trims every column's capacity to its length.
    fn shrink_to_fit(&mut self);

    /// Capacity-based heap bytes across all columns.
    fn heap_bytes(&self) -> usize;
}

/// Degenerate single-column store: lets the CSR machinery be exercised
/// (and tested) with plain values.
impl<T: Copy + Send + Sync + std::fmt::Debug> PostingColumns for Vec<T> {
    type Item = T;

    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn with_capacity(n: usize) -> Self {
        Vec::with_capacity(n)
    }

    fn get(&self, i: usize) -> T {
        self[i]
    }

    fn push_item(&mut self, item: T) {
        self.push(item);
    }

    fn extend_from_range(&mut self, src: &Self, range: Range<usize>) {
        self.extend_from_slice(&src[range]);
    }

    fn extend_from_items(&mut self, items: &[T]) {
        self.extend_from_slice(items);
    }

    fn shrink_to_fit(&mut self) {
        Vec::shrink_to_fit(self);
    }

    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

/// The single-bound frozen arena: one id column, one bound column.
#[derive(Debug, Clone, Default)]
pub(crate) struct SingleColumns {
    /// Object ids, row-aligned with `bounds`.
    pub(crate) ids: Vec<ObjId>,
    /// Threshold bounds (non-increasing within each finalized group).
    pub(crate) bounds: Vec<f64>,
}

impl PostingColumns for SingleColumns {
    type Item = Posting;

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn with_capacity(n: usize) -> Self {
        SingleColumns {
            ids: Vec::with_capacity(n),
            bounds: Vec::with_capacity(n),
        }
    }

    fn get(&self, i: usize) -> Posting {
        Posting::new(self.ids[i], self.bounds[i])
    }

    fn push_item(&mut self, item: Posting) {
        self.ids.push(item.object);
        self.bounds.push(item.bound);
    }

    fn extend_from_range(&mut self, src: &Self, range: Range<usize>) {
        self.ids.extend_from_slice(&src.ids[range.clone()]);
        self.bounds.extend_from_slice(&src.bounds[range]);
    }

    fn extend_from_items(&mut self, items: &[Posting]) {
        self.ids.extend(items.iter().map(|p| p.object));
        self.bounds.extend(items.iter().map(|p| p.bound));
    }

    fn shrink_to_fit(&mut self) {
        self.ids.shrink_to_fit();
        self.bounds.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<ObjId>()
            + self.bounds.capacity() * std::mem::size_of::<f64>()
    }
}

/// The dual-bound frozen arena: one id column, two bound columns.
#[derive(Debug, Clone, Default)]
pub(crate) struct DualColumns {
    /// Object ids, row-aligned with both bound columns.
    pub(crate) ids: Vec<ObjId>,
    /// Spatial bounds (non-increasing within each finalized group —
    /// the cut axis).
    pub(crate) spatial: Vec<f64>,
    /// Textual bounds (checked per surviving row, unordered).
    pub(crate) textual: Vec<f64>,
}

impl PostingColumns for DualColumns {
    type Item = DualPosting;

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn with_capacity(n: usize) -> Self {
        DualColumns {
            ids: Vec::with_capacity(n),
            spatial: Vec::with_capacity(n),
            textual: Vec::with_capacity(n),
        }
    }

    fn get(&self, i: usize) -> DualPosting {
        DualPosting::new(self.ids[i], self.spatial[i], self.textual[i])
    }

    fn push_item(&mut self, item: DualPosting) {
        self.ids.push(item.object);
        self.spatial.push(item.spatial_bound);
        self.textual.push(item.textual_bound);
    }

    fn extend_from_range(&mut self, src: &Self, range: Range<usize>) {
        self.ids.extend_from_slice(&src.ids[range.clone()]);
        self.spatial.extend_from_slice(&src.spatial[range.clone()]);
        self.textual.extend_from_slice(&src.textual[range]);
    }

    fn extend_from_items(&mut self, items: &[DualPosting]) {
        self.ids.extend(items.iter().map(|p| p.object));
        self.spatial.extend(items.iter().map(|p| p.spatial_bound));
        self.textual.extend(items.iter().map(|p| p.textual_bound));
    }

    fn shrink_to_fit(&mut self) {
        self.ids.shrink_to_fit();
        self.spatial.shrink_to_fit();
        self.textual.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<ObjId>()
            + (self.spatial.capacity() + self.textual.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Columnar view of one single-bound posting group: row `j` of `ids`
/// and `bounds` describe the same posting. Returned by
/// [`InvertedIndex::list`](crate::InvertedIndex::list) and
/// [`InvertedIndex::iter`](crate::InvertedIndex::iter); consumers read
/// whichever column they need instead of striding over interleaved
/// structs.
#[derive(Debug, Clone, Copy)]
pub struct PostingsView<'a> {
    /// Object ids.
    pub ids: &'a [ObjId],
    /// Threshold bounds, non-increasing (ties broken by ascending id).
    pub bounds: &'a [f64],
}

impl<'a> PostingsView<'a> {
    /// Number of postings in the group.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the group is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Row `i` materialized as a [`Posting`].
    pub fn get(&self, i: usize) -> Posting {
        Posting::new(self.ids[i], self.bounds[i])
    }

    /// Iterates rows as materialized [`Posting`]s (convenience for
    /// consumers that genuinely need both columns per row).
    pub fn iter(&self) -> impl Iterator<Item = Posting> + 'a {
        self.ids
            .iter()
            .zip(self.bounds)
            .map(|(&object, &bound)| Posting::new(object, bound))
    }
}

/// Columnar view of one dual-bound posting group (see
/// [`PostingsView`]; same alignment contract with two bound columns).
#[derive(Debug, Clone, Copy)]
pub struct DualPostingsView<'a> {
    /// Object ids.
    pub ids: &'a [ObjId],
    /// Spatial bounds, non-increasing (the group's sort axis).
    pub spatial_bounds: &'a [f64],
    /// Textual bounds (unordered).
    pub textual_bounds: &'a [f64],
}

impl<'a> DualPostingsView<'a> {
    /// Number of postings in the group.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the group is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Row `i` materialized as a [`DualPosting`].
    pub fn get(&self, i: usize) -> DualPosting {
        DualPosting::new(self.ids[i], self.spatial_bounds[i], self.textual_bounds[i])
    }

    /// Iterates rows as materialized [`DualPosting`]s.
    pub fn iter(&self) -> impl Iterator<Item = DualPosting> + 'a {
        self.ids
            .iter()
            .zip(self.spatial_bounds)
            .zip(self.textual_bounds)
            .map(|((&object, &sb), &tb)| DualPosting::new(object, sb, tb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_columns_roundtrip_items() {
        let mut c = SingleColumns::default();
        c.push_item(Posting::new(3, 9.5));
        c.push_item(Posting::new(7, 1.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Posting::new(3, 9.5));
        let mut d = SingleColumns::with_capacity(4);
        d.extend_from_range(&c, 1..2);
        assert_eq!(d.get(0), Posting::new(7, 1.0));
        d.extend_from_items(&[Posting::new(9, 2.0)]);
        assert_eq!(d.len(), 2);
        assert!(d.heap_bytes() >= 2 * (4 + 8));
    }

    #[test]
    fn dual_columns_roundtrip_items() {
        let mut c = DualColumns::default();
        c.push_item(DualPosting::new(1, 100.0, 0.5));
        c.push_item(DualPosting::new(2, 50.0, 0.9));
        assert_eq!(c.get(1), DualPosting::new(2, 50.0, 0.9));
        let mut d = DualColumns::with_capacity(2);
        d.extend_from_range(&c, 0..2);
        d.shrink_to_fit();
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(0), DualPosting::new(1, 100.0, 0.5));
        assert!(d.heap_bytes() >= 2 * (4 + 8 + 8));
    }

    #[test]
    fn views_align_rows() {
        let ids = [5u32, 6];
        let bounds = [2.0f64, 1.0];
        let v = PostingsView {
            ids: &ids,
            bounds: &bounds,
        };
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert_eq!(v.get(1), Posting::new(6, 1.0));
        let all: Vec<Posting> = v.iter().collect();
        assert_eq!(all, vec![Posting::new(5, 2.0), Posting::new(6, 1.0)]);

        let spatial = [9.0f64, 4.0];
        let textual = [0.1f64, 0.2];
        let d = DualPostingsView {
            ids: &ids,
            spatial_bounds: &spatial,
            textual_bounds: &textual,
        };
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.get(0), DualPosting::new(5, 9.0, 0.1));
        assert_eq!(d.iter().count(), 2);
    }
}
