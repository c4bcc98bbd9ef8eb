//! Keyed inverted index over threshold-bounded postings, stored as
//! parallel id/bound columns in a single contiguous arena (columnar
//! CSR layout) once finalized.

use crate::columns::{PostingsView, SingleColumns};
use crate::csr::CsrCore;
use crate::{ObjId, Posting};
use std::hash::Hash;

/// An inverted index: signature element → threshold-bounded posting
/// list. Keys are `u64`-like packed signature elements (token ids, grid
/// cell ids, or hashed hybrid elements).
///
/// # Layout
///
/// A thin wrapper over the shared frozen-CSR container: one id column
/// and one bound column (structure-of-arrays), plus a sorted key table
/// with row offsets. [`finalize`](InvertedIndex::finalize) sorts each
/// per-key group in **descending bound order** (ties broken by object
/// id for determinism), so the qualifying prefix `I_c(k)` of Lemma 3
/// is one [`bound_cut`](crate::bound_cut) of the group's span of the
/// bound column, and [`qualifying`](InvertedIndex::qualifying) returns
/// the matching span of the **id column** — the probe never touches a
/// byte it does not use.
///
/// The paper keeps inverted lists on disk with an in-memory offset map;
/// we keep everything in memory but report exact byte sizes of the
/// arena layout via [`size_bytes`](InvertedIndex::size_bytes) so
/// Table 1's relative index sizes can be reproduced.
#[derive(Debug, Clone)]
pub struct InvertedIndex<K: Eq + Hash + Ord> {
    pub(crate) core: CsrCore<K, SingleColumns>,
}

impl<K: Eq + Hash + Ord + Copy> Default for InvertedIndex<K> {
    fn default() -> Self {
        InvertedIndex {
            core: CsrCore::default(),
        }
    }
}

fn cmp_posting(a: &Posting, b: &Posting) -> std::cmp::Ordering {
    crate::csr::desc_f64(a.bound, b.bound).then(a.object.cmp(&b.object))
}

impl<K: Eq + Hash + Ord + Copy + Sync> InvertedIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a posting for `key`. Not visible to queries until
    /// [`finalize`](Self::finalize).
    ///
    /// # Panics
    /// If `bound` is NaN: a NaN bound would poison the descending sort
    /// and break every bound cut, so it is rejected here, at insert
    /// time, rather than corrupting queries later.
    pub fn push(&mut self, key: K, object: ObjId, bound: f64) {
        crate::csr::check_bound(bound, "bound");
        self.core.push(key, Posting::new(object, bound));
    }

    /// Compacts all postings into the contiguous columnar arena
    /// (groups in descending bound order). Must be called after the
    /// last [`push`](Self::push) and before querying; pushing after a
    /// finalize and re-finalizing **merges** the new postings in —
    /// only the staged postings are sorted, frozen groups are merged,
    /// never re-sorted, so streaming push → finalize cycles pay for
    /// the delta rather than the whole index.
    pub fn finalize(&mut self) {
        self.core.finalize(cmp_posting);
    }

    /// [`finalize`](Self::finalize) with the staged per-group sorts
    /// fanned out over `threads` workers (0 = all cores). The result
    /// is bit-identical for every thread count; only build wall-clock
    /// changes.
    pub fn finalize_with_threads(&mut self, threads: usize) {
        self.core.finalize_with_threads(cmp_posting, threads);
    }

    /// True when every pushed posting is in the frozen arena (no
    /// staged postings awaiting [`finalize`](Self::finalize)).
    pub fn is_finalized(&self) -> bool {
        self.core.is_finalized()
    }

    /// The generation of the frozen arena: 0 before the first
    /// finalize, then +1 for every finalize that folded staged
    /// postings in (no-op finalizes do not count). Generation-swapping
    /// serving layers use this to name the arena a reader snapshot
    /// captured.
    pub fn generation(&self) -> u64 {
        self.core.generation()
    }

    /// The full list for a key, if any, as a columnar view
    /// (descending bound order).
    pub fn list(&self, key: &K) -> Option<PostingsView<'_>> {
        let span = self.core.group_span(key)?;
        let a = self.core.arena();
        Some(PostingsView {
            ids: &a.ids[span.clone()],
            bounds: &a.bounds[span],
        })
    }

    /// The object ids of the qualifying postings `I_c(key)` (empty
    /// slice if the key is absent): one [`bound_cut`](crate::bound_cut)
    /// over the group's bound column, then the matching prefix of the
    /// id column — returned in place, no copy, no struct striding.
    #[inline]
    pub fn qualifying(&self, key: &K, c: f64) -> &[ObjId] {
        debug_assert!(self.core.is_finalized(), "query on non-finalized index");
        match self.core.group_span(key) {
            Some(span) => {
                let a = self.core.arena();
                let cut = crate::csr::bound_cut(&a.bounds[span.clone()], c);
                &a.ids[span.start..span.start + cut]
            }
            None => &[],
        }
    }

    /// `|I_c(key)|` — the qualifying-prefix length without touching
    /// the id column at all (the §4.3 cost-model probe): the chunked
    /// [`bound_cut`](crate::bound_cut) over the bound column alone.
    #[inline]
    pub fn qualifying_len(&self, key: &K, c: f64) -> usize {
        debug_assert!(self.core.is_finalized(), "query on non-finalized index");
        match self.core.group_span(key) {
            Some(span) => crate::csr::bound_cut(&self.core.arena().bounds[span], c),
            None => 0,
        }
    }

    /// Number of distinct keys (frozen plus staged).
    pub fn key_count(&self) -> usize {
        self.core.key_count()
    }

    /// Total number of postings across all lists.
    pub fn posting_count(&self) -> usize {
        self.core.posting_count()
    }

    /// Length of the **frozen** list for `key` (0 if absent) — the
    /// `|I(g)|` used by the cost model of Section 4.3. Matches exactly
    /// what a probe can scan: postings staged since the last
    /// [`finalize`](Self::finalize) are not counted, because
    /// [`qualifying`](Self::qualifying) cannot return them.
    pub fn list_len(&self, key: &K) -> usize {
        self.core.group_span(key).map(|s| s.len()).unwrap_or(0)
    }

    /// Exact heap size in bytes of the frozen layout: the id and bound
    /// columns plus the key table and CSR offsets (plus any staged
    /// postings not yet folded in).
    pub fn size_bytes(&self) -> usize {
        self.core.size_bytes()
    }

    /// The largest object id in the **frozen** arena (`None` when
    /// empty). Load paths use this to check a deserialized index
    /// against the store it is being attached to before any probe
    /// indexes a per-object scratch table with an id.
    pub fn max_object_id(&self) -> Option<ObjId> {
        self.core.arena().ids.iter().copied().max()
    }

    /// Iterates `(key, group view)` in ascending key order.
    ///
    /// # Panics
    /// If postings are staged (push without a following
    /// [`finalize`](Self::finalize)): iteration sees only the frozen
    /// arena and would silently drop the staged postings.
    pub fn iter(&self) -> impl Iterator<Item = (K, PostingsView<'_>)> + '_ {
        let a = self.core.arena();
        self.core.iter_spans().map(move |(k, span)| {
            (
                k,
                PostingsView {
                    ids: &a.ids[span.clone()],
                    bounds: &a.bounds[span],
                },
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_probe() {
        // Figure 4's textual inverted index (keys are token ids).
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        // t4 -> {o3, o6}
        idx.push(4, 2, 1.3);
        idx.push(4, 5, 1.3);
        // t1 -> {o1, o2, o5}
        idx.push(1, 0, 1.9);
        idx.push(1, 1, 1.9);
        idx.push(1, 4, 1.7);
        idx.finalize();
        assert_eq!(idx.key_count(), 2);
        assert_eq!(idx.posting_count(), 5);
        assert_eq!(idx.list_len(&4), 2);
        assert_eq!(idx.list_len(&99), 0);
        assert_eq!(idx.qualifying(&1, 1.8), &[0, 1]);
        assert_eq!(idx.qualifying_len(&1, 1.8), 2);
        assert!(idx.qualifying(&99, 0.0).is_empty());
        assert_eq!(idx.qualifying_len(&99, 0.0), 0);
    }

    #[test]
    fn size_bytes_grows_with_postings() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        let empty = idx.size_bytes();
        idx.push(1, 0, 1.0);
        idx.push(1, 1, 1.0);
        idx.push(2, 0, 1.0);
        assert!(idx.size_bytes() > empty);
        assert_eq!(idx.posting_count(), 3);
    }

    #[test]
    fn iter_covers_all_keys() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(10, 0, 1.0);
        idx.push(20, 1, 2.0);
        idx.finalize();
        let keys: Vec<u64> = idx.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![10, 20], "iteration is key-sorted");
    }

    #[test]
    fn arena_is_contiguous_and_grouped() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        for key in [3u64, 1, 2] {
            for obj in 0..4u32 {
                idx.push(key, obj, f64::from(obj));
            }
        }
        idx.finalize();
        // Groups come back in key order with descending bounds, and
        // every view's columns are row-aligned.
        let groups: Vec<(u64, Vec<f64>)> =
            idx.iter().map(|(k, v)| (k, v.bounds.to_vec())).collect();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, 1);
        assert_eq!(groups[2].0, 3);
        for (_, bounds) in &groups {
            assert!(bounds.windows(2).all(|w| w[0] >= w[1]));
        }
        for (_, v) in idx.iter() {
            assert_eq!(v.ids.len(), v.bounds.len(), "columns row-aligned");
        }
        // Total column size equals the posting count: one arena.
        let total: usize = idx.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, idx.posting_count());
    }

    #[test]
    fn qualifying_returns_the_id_column_prefix() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 9, 3.0);
        idx.push(1, 4, 2.0);
        idx.push(1, 7, 1.0);
        idx.finalize();
        let view = idx.list(&1).unwrap();
        assert_eq!(view.ids, &[9, 4, 7]);
        assert_eq!(view.bounds, &[3.0, 2.0, 1.0]);
        let q = idx.qualifying(&1, 2.0);
        assert_eq!(q, &view.ids[..2], "prefix of the id column, in place");
        assert_eq!(idx.qualifying_len(&1, 2.0), q.len());
    }

    #[test]
    fn push_after_finalize_merges_on_refinalize() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 0, 5.0);
        idx.finalize();
        assert!(idx.is_finalized());
        idx.push(1, 1, 9.0);
        idx.push(2, 2, 1.0);
        assert!(!idx.is_finalized());
        idx.finalize();
        assert_eq!(idx.key_count(), 2);
        assert_eq!(idx.posting_count(), 3);
        assert_eq!(
            idx.qualifying(&1, 0.0),
            &[1, 0],
            "merged list re-sorted by bound"
        );
    }

    #[test]
    #[should_panic(expected = "NaN bound rejected at insert time")]
    fn nan_bound_rejected_at_insert() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 0, f64::NAN);
    }

    #[test]
    fn list_len_counts_only_queryable_postings() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 0, 1.0);
        idx.finalize();
        idx.push(1, 1, 2.0); // staged, invisible to probes
        assert_eq!(idx.list_len(&1), 1, "staged posting not counted");
        assert_eq!(idx.list_len(&1), idx.list(&1).unwrap().len());
        idx.finalize();
        assert_eq!(idx.list_len(&1), 2);
    }
}
