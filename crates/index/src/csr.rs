//! The shared frozen-CSR container behind [`crate::InvertedIndex`] and
//! [`crate::HybridIndex`], plus the **one shared bound-cut path** every
//! qualifying probe in the crate goes through.
//!
//! Building appends into a per-key staging map; [`CsrCore::finalize`]
//! compacts everything into **one contiguous columnar arena**
//! (structure-of-arrays — see [`crate::columns`]) plus a sorted key
//! table with CSR offsets:
//!
//! ```text
//! keys:    [k0, k1, k2, ...]          sorted ascending
//! offsets: [0, |I(k0)|, |I(k0)|+|I(k1)|, ...]   len = keys.len() + 1
//! columns: ids    [ I(k0) | I(k1) | ... ]       row-aligned parallel
//!          bounds [ I(k0) | I(k1) | ... ]       columns, one span per
//!          ...                                  group
//! ```
//!
//! A probe is one binary search over `keys` plus one [`bound_cut`] over
//! the group's span of the bound column — no pointer chasing, no
//! per-list heap objects, no struct striding, and the whole read path
//! is `&self` (shared-nothing across query threads). The wrappers
//! choose the per-group sort order (descending bound vs. descending
//! spatial bound) via the comparator passed to
//! [`finalize`](CsrCore::finalize).
//!
//! The same `keys`/`offsets` directory shape backs the compressed
//! arena of [`crate::compress`]: there the offsets are *byte* offsets
//! into one compressed byte arena instead of row offsets into the
//! columns, but the lookup ([`group_range`]), the sorted-key
//! invariant, and the cut ([`bound_cut_u16`] over the quantized bound
//! column) are the same machinery.
//!
//! Re-finalizing is **incremental**: a frozen group is already in
//! comparator order, so [`CsrCore::finalize`] sorts only the *staged*
//! postings (kept as plain structs — the sort unit) and
//! two-pointer-merges each staged run against its frozen group while
//! splicing new columns — `O(staged·log staged + total)` comparator
//! work instead of re-sorting everything. Frozen groups are never
//! re-sorted; repeated push → finalize cycles (streaming ingest) pay
//! for the delta, not the index.
//!
//! # Invariants
//!
//! 1. **Sorted keys.** `keys` is strictly ascending; [`group_range`]
//!    binary-searches it. `finalize` establishes this by sorting the
//!    drained staging entries and key-merging them with the (already
//!    sorted) frozen key table.
//! 2. **Staged postings are an error for whole-index consumers.**
//!    Between a `push` and the next `finalize`, postings live only in
//!    the staging map; probes cannot see them (by design — queries
//!    read the frozen arena only), and [`CsrCore::iter_spans`]
//!    *panics* rather than silently dropping them, because its
//!    consumers (serializers, compressors) would otherwise persist a
//!    truncated index.
//! 3. **Bounds are never NaN.** The wrappers call [`check_bound`] at
//!    insert time, so the descending sort inside `finalize` is a total
//!    order ([`desc_f64`] via `f64::total_cmp`) and every [`bound_cut`]
//!    over a bound column is well-defined. A NaN bound would otherwise
//!    poison the sort and silently corrupt the qualifying-prefix
//!    property.
//! 4. **Columns are row-aligned.** Every column of the arena has the
//!    same length and row `j` of each describes the same posting; all
//!    splicing goes through [`crate::columns::PostingColumns`], which
//!    appends to every column in lockstep.

use crate::columns::PostingColumns;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

/// Rejects NaN threshold bounds at insert time (invariant 3): panics
/// with a message naming the offending slot. Infinities are allowed —
/// they order fine under `total_cmp` — but NaN has no place in a bound
/// column that gets cut.
#[inline]
pub(crate) fn check_bound(bound: f64, what: &str) {
    assert!(!bound.is_nan(), "NaN {what} rejected at insert time");
}

/// Descending total order over bound values. Safe as a sort comparator
/// because [`check_bound`] keeps NaN out of the arena; `total_cmp`
/// makes the order total without an `unwrap_or(Equal)` escape hatch.
#[inline]
pub(crate) fn desc_f64(a: f64, b: f64) -> std::cmp::Ordering {
    b.total_cmp(&a)
}

/// Lists at or below this length are cut by the chunked scan; longer
/// ones fall back to `partition_point`. At 256 the scan's worst case
/// (all rows qualify) costs about what one branchy binary search does,
/// while the common case (selective threshold, early chunk exit) is a
/// handful of vector compares.
const SCAN_MAX: usize = 256;

/// Bounds compared per scan iteration. 16 `f64`s = two cache lines =
/// four AVX2 lanes' worth of branch-free compares per loop trip.
const LANES: usize = 16;

/// The qualifying-prefix length of a **non-increasing** bound column at
/// threshold `c` — the one cut every probe in this crate goes through
/// (uncompressed single and dual arenas and, via its private `u16`
/// twin, the compressed arenas).
///
/// Equivalent to `bounds.partition_point(|&b| b >= c)` (the column is
/// sorted, so the count of qualifying bounds *is* the partition
/// point), but short lists — the common case for per-key posting
/// groups — take a chunked branch-free scan instead: 16 bounds are
/// compared per iteration with a pure `b >= c` accumulate the
/// compiler auto-vectorizes, and a chunk that is not all-qualifying
/// ends the scan (the boundary is inside it). Lists longer than 256
/// rows use `partition_point`, so a length-only probe of a huge list
/// stays `O(log n)`.
///
/// Requires a NaN-free column (the indexes reject NaN bounds at
/// insert time); a NaN threshold `c` yields 0, matching
/// `partition_point`.
#[inline]
pub fn bound_cut(bounds: &[f64], c: f64) -> usize {
    if bounds.len() > SCAN_MAX {
        return bounds.partition_point(|&b| b >= c);
    }
    let mut count = 0usize;
    let mut chunks = bounds.chunks_exact(LANES);
    for chunk in &mut chunks {
        let mut hits = 0usize;
        for &b in chunk {
            hits += usize::from(b >= c);
        }
        count += hits;
        if hits < LANES {
            // Sorted column: the qualifying prefix ends inside this
            // chunk, and `hits` counted exactly its rows.
            return count;
        }
    }
    for &b in chunks.remainder() {
        count += usize::from(b >= c);
    }
    count
}

/// Reads the `j`-th entry of a little-endian `u16` column (the
/// compressed arenas' quantized bound columns).
#[inline]
pub(crate) fn column_u16(col: &[u8], j: usize) -> u16 {
    u16::from_le_bytes([col[2 * j], col[2 * j + 1]])
}

/// [`bound_cut`] over a little-endian `u16` column of `len` entries:
/// the qualifying-prefix length at *quantized* threshold `qc`
/// (`entry ≥ qc`). The compressed probe path quantizes the `f64`
/// threshold once per group and then cuts entirely in the integer
/// domain — same chunked scan, no dequantization per comparison.
#[inline]
pub(crate) fn bound_cut_u16(col: &[u8], len: usize, qc: u16) -> usize {
    debug_assert!(col.len() >= 2 * len, "column shorter than its row count");
    if len > SCAN_MAX {
        let mut lo = 0usize;
        let mut hi = len;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if column_u16(col, mid) >= qc {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }
    let mut count = 0usize;
    let mut j = 0usize;
    while j + LANES <= len {
        let mut hits = 0usize;
        for k in 0..LANES {
            hits += usize::from(column_u16(col, j + k) >= qc);
        }
        count += hits;
        if hits < LANES {
            return count;
        }
        j += LANES;
    }
    while j < len {
        count += usize::from(column_u16(col, j) >= qc);
        j += 1;
    }
    count
}

/// The shared directory lookup: binary-searches `keys` (invariant 1)
/// and returns the group's index plus its `offsets[i]..offsets[i+1]`
/// range. Used by [`CsrCore::group_span`] (row offsets) and by the
/// compressed indexes of [`crate::compress`] (byte offsets).
#[inline]
pub(crate) fn group_range<K: Ord>(
    keys: &[K],
    offsets: &[usize],
    key: &K,
) -> Option<(usize, Range<usize>)> {
    let i = keys.binary_search(key).ok()?;
    Some((i, offsets[i]..offsets[i + 1]))
}

/// Two-pointer merge of a frozen column range with a sorted staged run
/// into `out` (stable: frozen wins ties, preserving positions of
/// already-served postings). At most `frozen + staged - 1` comparator
/// calls — the incremental-finalize cost the comparator-counting test
/// in this module pins down. Frozen rows are read through
/// [`PostingColumns::get`] only while both runs are live; the tails
/// are bulk column copies.
fn merge_group<C: PostingColumns>(
    out: &mut C,
    frozen: &C,
    range: Range<usize>,
    staged: &[C::Item],
    cmp: &impl Fn(&C::Item, &C::Item) -> std::cmp::Ordering,
) {
    let mut i = range.start;
    let mut j = 0usize;
    while i < range.end && j < staged.len() {
        let f = frozen.get(i);
        if cmp(&f, &staged[j]) != std::cmp::Ordering::Greater {
            out.push_item(f);
            i += 1;
        } else {
            out.push_item(staged[j]);
            j += 1;
        }
    }
    out.extend_from_range(frozen, i..range.end);
    out.extend_from_items(&staged[j..]);
}

/// A keyed collection of posting groups in the frozen-CSR columnar
/// layout. `C` chooses the column set ([`crate::columns`]); staged
/// postings are held as `C::Item` structs until the next finalize.
#[derive(Debug, Clone)]
pub(crate) struct CsrCore<K: Eq + Hash + Ord, C: PostingColumns> {
    /// Postings pushed since the last finalize, keyed for grouping.
    staging: HashMap<K, Vec<C::Item>>,
    /// Sorted keys of the frozen arena.
    keys: Vec<K>,
    /// CSR row offsets into the arena columns; `keys.len() + 1`
    /// entries.
    offsets: Vec<usize>,
    /// All postings, grouped by key, one parallel column per field.
    arena: C,
    posting_count: usize,
    /// Which frozen arena is being served: bumped by every finalize
    /// that folds staged postings in, untouched by no-op finalizes.
    /// Generation-swapping callers (online ingest) use this to tell
    /// "the arena I captured" from "the arena after the next freeze".
    generation: u64,
}

impl<K: Eq + Hash + Ord + Copy, C: PostingColumns> Default for CsrCore<K, C> {
    fn default() -> Self {
        CsrCore {
            staging: HashMap::new(),
            keys: Vec::new(),
            offsets: vec![0],
            arena: C::default(),
            posting_count: 0,
            generation: 0,
        }
    }
}

impl<K: Eq + Hash + Ord + Copy, C: PostingColumns> CsrCore<K, C> {
    /// Appends a posting for `key`. Not visible to queries until
    /// [`finalize`](Self::finalize).
    pub(crate) fn push(&mut self, key: K, posting: C::Item) {
        self.staging.entry(key).or_default().push(posting);
        self.posting_count += 1;
    }

    /// Rebuilds a frozen core from already-validated parts (the SoA
    /// codec's direct load path). The caller guarantees the CSR
    /// invariants: strictly ascending keys, offsets covering exactly
    /// the arena, groups in comparator order, NaN-free bounds.
    /// Generation starts at 1, matching a build that finalized once.
    pub(crate) fn from_frozen(keys: Vec<K>, offsets: Vec<usize>, arena: C) -> Self {
        debug_assert_eq!(offsets.len(), keys.len() + 1);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), arena.len());
        let posting_count = arena.len();
        CsrCore {
            staging: HashMap::new(),
            keys,
            offsets,
            arena,
            posting_count,
            generation: 1,
        }
    }

    /// Compacts all postings into the contiguous columnar arena:
    /// groups sorted by key, postings within a group ordered by `cmp`.
    /// Re-finalizing after further pushes **merges** the new postings
    /// in: only the staged groups are sorted, each is then
    /// two-pointer-merged with its already-ordered frozen group
    /// (comparator work `O(staged·log staged + total)`, never a
    /// re-sort of frozen postings). Single-threaded; see
    /// [`finalize_with_threads`](Self::finalize_with_threads).
    pub(crate) fn finalize(&mut self, cmp: impl Fn(&C::Item, &C::Item) -> std::cmp::Ordering + Sync)
    where
        K: Sync,
    {
        self.finalize_with_threads(cmp, 1);
    }

    /// [`finalize`](Self::finalize) with the staged per-group sorts
    /// fanned out over `threads` workers (work stealing over group
    /// indexes — group sizes are Zipf-skewed, so static chunking would
    /// idle threads). `threads` follows the
    /// [`resolve_threads`](crate::parallel::resolve_threads)
    /// convention: 0 = all cores, 1 = inline. The merge/splice pass is
    /// sequential (it is a memcpy-bound walk of the columns); results
    /// are bit-identical for every thread count.
    pub(crate) fn finalize_with_threads(
        &mut self,
        cmp: impl Fn(&C::Item, &C::Item) -> std::cmp::Ordering + Sync,
        threads: usize,
    ) where
        K: Sync,
    {
        if self.staging.is_empty() {
            return;
        }
        // Sort only the staged groups (the frozen arena is already in
        // comparator order). Mutex per group gives the work-stealing
        // workers mutable access to disjoint entries without unsafe;
        // each lock is taken exactly once, uncontended.
        let mut staged: Vec<(K, std::sync::Mutex<Vec<C::Item>>)> = self
            .staging
            .drain()
            .map(|(k, v)| (k, std::sync::Mutex::new(v)))
            .collect();
        staged.sort_unstable_by_key(|e| e.0);
        crate::parallel::for_each_index(staged.len(), threads, |i| {
            staged[i]
                .1
                .lock()
                .expect("group sort cannot poison")
                .sort_unstable_by(&cmp);
        });
        let staged: Vec<(K, Vec<C::Item>)> = staged
            .into_iter()
            .map(|(k, m)| (k, m.into_inner().expect("group sort cannot poison")))
            .collect();

        // Merge the sorted staged runs with the frozen arena: walk both
        // key tables in tandem, splicing groups into fresh columns.
        let old_keys = std::mem::take(&mut self.keys);
        let old_offsets = std::mem::take(&mut self.offsets);
        let old_arena = std::mem::take(&mut self.arena);
        let mut keys: Vec<K> = Vec::with_capacity(old_keys.len() + staged.len());
        let mut offsets: Vec<usize> = Vec::with_capacity(old_keys.len() + staged.len() + 2);
        offsets.push(0);
        let mut arena = C::with_capacity(self.posting_count);
        let (mut fi, mut si) = (0usize, 0usize);
        while fi < old_keys.len() || si < staged.len() {
            let frozen_next = old_keys.get(fi).copied();
            let staged_next = staged.get(si).map(|e| e.0);
            match (frozen_next, staged_next) {
                (Some(fk), Some(sk)) if fk == sk => {
                    merge_group(
                        &mut arena,
                        &old_arena,
                        old_offsets[fi]..old_offsets[fi + 1],
                        &staged[si].1,
                        &cmp,
                    );
                    keys.push(fk);
                    fi += 1;
                    si += 1;
                }
                (Some(fk), sk) if sk.is_none_or(|sk| fk < sk) => {
                    // Untouched frozen group: copied, never compared.
                    arena.extend_from_range(&old_arena, old_offsets[fi]..old_offsets[fi + 1]);
                    keys.push(fk);
                    fi += 1;
                }
                _ => {
                    arena.extend_from_items(&staged[si].1);
                    keys.push(staged[si].0);
                    si += 1;
                }
            }
            offsets.push(arena.len());
        }
        // Shared keys make the reserved capacities overshoot; trim so
        // capacity-based size accounting stays exact for frozen state.
        keys.shrink_to_fit();
        offsets.shrink_to_fit();
        arena.shrink_to_fit();
        self.keys = keys;
        self.offsets = offsets;
        self.arena = arena;
        self.generation += 1;
    }

    /// True when every pushed posting is in the frozen arena.
    pub(crate) fn is_finalized(&self) -> bool {
        self.staging.is_empty()
    }

    /// The generation of the frozen arena: 0 before the first
    /// finalize, then +1 per finalize that folded staged postings.
    /// No-op finalizes (nothing staged) do not bump it, so equal
    /// generations mean byte-identical frozen state.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// The frozen arena's row span for `key` (None if absent or only
    /// in staging). Wrappers slice whichever columns they need.
    #[inline]
    pub(crate) fn group_span(&self, key: &K) -> Option<Range<usize>> {
        self.slot(key).map(|slot| self.span_at(slot))
    }

    /// The slot of `key`'s group: its position in the sorted key
    /// table. A slot stays valid until the next finalize that folds
    /// staged postings in (which may shift every later group), so a
    /// caller that resolves its keys once per
    /// [`generation`](Self::generation) can skip the key search on
    /// every probe.
    #[inline]
    pub(crate) fn slot(&self, key: &K) -> Option<usize> {
        self.keys.binary_search(key).ok()
    }

    /// The row span of the group at `slot`.
    ///
    /// # Panics
    /// If `slot` is not below the number of frozen groups.
    #[inline]
    pub(crate) fn span_at(&self, slot: usize) -> Range<usize> {
        self.offsets[slot]..self.offsets[slot + 1]
    }

    /// The frozen columnar arena (row spans come from
    /// [`group_span`](Self::group_span) / [`iter_spans`](Self::iter_spans)).
    #[inline]
    pub(crate) fn arena(&self) -> &C {
        &self.arena
    }

    /// Number of distinct keys (frozen plus staged).
    pub(crate) fn key_count(&self) -> usize {
        self.keys.len()
            + self
                .staging
                .keys()
                .filter(|k| self.keys.binary_search(k).is_err())
                .count()
    }

    /// Total number of postings ever pushed.
    pub(crate) fn posting_count(&self) -> usize {
        self.posting_count
    }

    /// Exact heap size in bytes: arena columns + key table + offsets,
    /// plus any staged postings not yet folded in. All terms are
    /// **capacity**-based: a staging `Vec` owns its whole
    /// growth-doubled allocation, not just the initialized prefix, so
    /// `len`-based accounting undercounted pre-finalize heap use
    /// (visible in `table1` when sizing a mid-build index). Frozen
    /// columns are trimmed to exact size by `finalize`, so for a
    /// finalized index capacity and length agree.
    pub(crate) fn size_bytes(&self) -> usize {
        let arena = self.arena.heap_bytes();
        let table = self.keys.capacity() * std::mem::size_of::<K>()
            + self.offsets.capacity() * std::mem::size_of::<usize>();
        let staged: usize = self
            .staging
            .values()
            .map(|v| {
                std::mem::size_of::<K>()
                    + std::mem::size_of::<Vec<C::Item>>()
                    + v.capacity() * std::mem::size_of::<C::Item>()
            })
            .sum();
        arena + table + staged
    }

    /// Iterates `(key, row span)` groups in ascending key order.
    ///
    /// # Panics
    /// If postings are staged: iteration sees only the frozen arena,
    /// so consumers (serializers, compressors) would silently drop the
    /// staged postings.
    pub(crate) fn iter_spans(&self) -> impl Iterator<Item = (K, Range<usize>)> + '_ {
        assert!(
            self.is_finalized(),
            "iteration requires finalize() after the last push"
        );
        (0..self.keys.len()).map(move |i| (self.keys[i], self.offsets[i]..self.offsets[i + 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_value(a: &u32, b: &u32) -> std::cmp::Ordering {
        b.cmp(a) // descending
    }

    /// Collects `(key, rows)` for a frozen core backed by a plain
    /// `Vec` column (the degenerate test store).
    fn groups(c: &CsrCore<u64, Vec<u32>>) -> Vec<(u64, Vec<u32>)> {
        c.iter_spans()
            .map(|(k, span)| (k, c.arena()[span].to_vec()))
            .collect()
    }

    #[test]
    fn groups_are_key_sorted_and_cmp_ordered() {
        let mut c: CsrCore<u64, Vec<u32>> = CsrCore::default();
        for (k, v) in [(9u64, 1u32), (2, 5), (9, 7), (2, 3), (5, 4)] {
            c.push(k, v);
        }
        c.finalize(by_value);
        assert_eq!(
            groups(&c),
            vec![(2, vec![5, 3]), (5, vec![4]), (9, vec![7, 1])]
        );
        assert_eq!(c.key_count(), 3);
        assert_eq!(c.posting_count(), 5);
        assert!(c.group_span(&5).is_some());
        assert!(c.group_span(&6).is_none());
    }

    #[test]
    fn refinalize_merges() {
        let mut c: CsrCore<u64, Vec<u32>> = CsrCore::default();
        c.push(1, 10);
        c.finalize(by_value);
        c.push(1, 20);
        assert!(!c.is_finalized());
        c.finalize(by_value);
        let span = c.group_span(&1).unwrap();
        assert_eq!(&c.arena()[span], &[20, 10]);
    }

    #[test]
    #[should_panic(expected = "requires finalize()")]
    fn staged_iteration_panics() {
        let mut c: CsrCore<u64, Vec<u32>> = CsrCore::default();
        c.push(1, 1);
        let _ = c.iter_spans().count();
    }

    #[test]
    fn desc_f64_is_total_and_descending() {
        let mut v = [1.0f64, f64::INFINITY, 0.0, 3.5, f64::NEG_INFINITY];
        v.sort_by(|a, b| desc_f64(*a, *b));
        assert_eq!(v[0], f64::INFINITY);
        assert_eq!(v[4], f64::NEG_INFINITY);
        assert!(v.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    #[should_panic(expected = "NaN bound rejected at insert time")]
    fn check_bound_rejects_nan() {
        check_bound(f64::NAN, "bound");
    }

    #[test]
    fn check_bound_accepts_finite_and_infinite() {
        check_bound(0.0, "bound");
        check_bound(-1.5, "bound");
        check_bound(f64::INFINITY, "bound");
    }

    #[test]
    fn refinalize_merges_instead_of_resorting() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Freeze one large group, then splice in a single staged
        // posting. A full re-sort would cost O(n log n) comparator
        // calls; the merge path pays at most `staged·log staged`
        // (= 0 here) plus one pass over the merged group.
        const FROZEN: usize = 4096;
        let mut c: CsrCore<u64, Vec<u32>> = CsrCore::default();
        for v in 0..FROZEN as u32 {
            c.push(7, v);
        }
        c.finalize(by_value);
        c.push(7, 9_999_999); // sorts to the front (descending)
        let calls = AtomicUsize::new(0);
        c.finalize(|a: &u32, b: &u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            by_value(a, b)
        });
        let calls = calls.load(Ordering::Relaxed);
        // Merge bound: ≤ frozen + staged − 1. Re-sort would need at
        // least n·log₂(n)/2 ≈ 24k comparisons for n = 4097.
        assert!(
            calls <= FROZEN + 1,
            "re-finalize made {calls} comparator calls — frozen group re-sorted?"
        );
        let span = c.group_span(&7).unwrap();
        assert_eq!(span.len(), FROZEN + 1);
        assert_eq!(c.arena()[span.start], 9_999_999);
    }

    #[test]
    fn refinalize_leaves_untouched_groups_uncompared() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Staged postings for key 1 only: key 2's frozen group must be
        // copied without a single comparator call.
        let mut c: CsrCore<u64, Vec<u32>> = CsrCore::default();
        for v in 0..64u32 {
            c.push(1, v);
            c.push(2, v);
        }
        c.finalize(by_value);
        c.push(1, 1000);
        let calls = AtomicUsize::new(0);
        c.finalize(|a: &u32, b: &u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            by_value(a, b)
        });
        assert!(
            calls.load(Ordering::Relaxed) <= 64,
            "untouched group paid comparator calls"
        );
        assert_eq!(c.group_span(&2).unwrap().len(), 64);
    }

    #[test]
    fn merge_keeps_frozen_prefix_stable() {
        // Staged postings all order *after* the frozen ones: the merged
        // group must be exactly [frozen..., staged...] with the frozen
        // prefix byte-identical (the merge never reorders it).
        let mut c: CsrCore<u64, Vec<u32>> = CsrCore::default();
        for v in [90u32, 70, 50] {
            c.push(3, v);
        }
        c.finalize(by_value);
        let span = c.group_span(&3).unwrap();
        let frozen: Vec<u32> = c.arena()[span].to_vec();
        for v in [40u32, 20] {
            c.push(3, v);
        }
        c.finalize(by_value);
        let span = c.group_span(&3).unwrap();
        let merged = &c.arena()[span];
        assert_eq!(&merged[..frozen.len()], &frozen[..], "frozen prefix moved");
        assert_eq!(&merged[frozen.len()..], &[40, 20]);
    }

    #[test]
    fn finalize_with_threads_matches_sequential() {
        // Many Zipf-ish groups, staged + frozen interleavings: every
        // thread count must produce the identical arena.
        let build = |threads: usize| {
            let mut c: CsrCore<u64, Vec<u32>> = CsrCore::default();
            for i in 0..2000u32 {
                c.push(u64::from(i % 37), i.wrapping_mul(2_654_435_761));
            }
            c.finalize_with_threads(by_value, threads);
            for i in 0..500u32 {
                c.push(u64::from(i % 53), i.wrapping_mul(40_503) ^ 0xAAAA);
            }
            c.finalize_with_threads(by_value, threads);
            groups(&c)
        };
        let sequential = build(1);
        for threads in [2usize, 4, 8, 0] {
            assert_eq!(build(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn merge_group_is_stable_and_complete() {
        let frozen: Vec<u32> = vec![9, 7, 7, 3];
        let staged = [8u32, 7, 2];
        let mut out: Vec<u32> = Vec::new();
        merge_group(&mut out, &frozen, 0..frozen.len(), &staged, &by_value);
        assert_eq!(out, vec![9, 8, 7, 7, 7, 3, 2]);
        // Ties: frozen's 7s must come before staged's 7 — check by
        // merging marked values.
        let frozen: Vec<(u32, char)> = vec![(7, 'f')];
        let staged = [(7u32, 's')];
        let mut out: Vec<(u32, char)> = Vec::new();
        merge_group(&mut out, &frozen, 0..1, &staged, &|a: &(u32, char), b| {
            b.0.cmp(&a.0)
        });
        assert_eq!(out, vec![(7, 'f'), (7, 's')]);
    }

    #[test]
    fn size_bytes_counts_staged_capacity() {
        let mut c: CsrCore<u64, Vec<u32>> = CsrCore::default();
        c.push(1, 1);
        let one = c.size_bytes();
        // The staging Vec's capacity (≥ its len) is what the heap
        // actually holds; pushing within capacity must not shrink the
        // report, and the report must cover at least the capacity.
        let cap = 1 + c.staging[&1].capacity() - c.staging[&1].len();
        for v in 0..cap as u32 {
            c.push(1, v);
        }
        assert!(c.size_bytes() >= one);
        let staged_bytes = c.staging[&1].capacity() * std::mem::size_of::<u32>();
        assert!(c.size_bytes() >= staged_bytes);
    }

    #[test]
    fn generation_counts_folding_finalizes_only() {
        let mut c: CsrCore<u64, Vec<u32>> = CsrCore::default();
        assert_eq!(c.generation(), 0);
        c.finalize(by_value); // nothing staged: no-op, no bump
        assert_eq!(c.generation(), 0);
        c.push(1, 1);
        c.finalize(by_value);
        assert_eq!(c.generation(), 1);
        c.finalize(by_value); // idempotent freeze: still generation 1
        assert_eq!(c.generation(), 1);
        c.push(2, 2);
        c.push(1, 3);
        c.finalize(by_value);
        assert_eq!(c.generation(), 2);
    }

    #[test]
    fn from_frozen_serves_like_a_finalized_build() {
        let core = CsrCore::<u64, Vec<u32>>::from_frozen(vec![2, 9], vec![0, 2, 3], vec![5, 3, 7]);
        assert!(core.is_finalized());
        assert_eq!(core.generation(), 1);
        assert_eq!(core.posting_count(), 3);
        assert_eq!(groups(&core), vec![(2, vec![5, 3]), (9, vec![7])]);
    }

    #[test]
    fn group_range_matches_offsets() {
        let keys = [2u64, 5, 9];
        let offsets = [0usize, 3, 3, 7];
        assert_eq!(group_range(&keys, &offsets, &2), Some((0, 0..3)));
        assert_eq!(group_range(&keys, &offsets, &5), Some((1, 3..3)));
        assert_eq!(group_range(&keys, &offsets, &9), Some((2, 3..7)));
        assert_eq!(group_range(&keys, &offsets, &4), None);
    }

    /// Oracle for both cut variants.
    fn pp(bounds: &[f64], c: f64) -> usize {
        bounds.partition_point(|&b| b >= c)
    }

    #[test]
    fn bound_cut_matches_partition_point_on_adversarial_columns() {
        // Ties, all-pass, all-fail, lengths not divisible by the lane
        // width, and lengths straddling the scan/binary-search cutover.
        let mk = |len: usize| -> Vec<f64> {
            (0..len)
                .map(|i| ((len - i) / 3) as f64) // runs of equal bounds
                .collect()
        };
        for len in [0usize, 1, 5, 15, 16, 17, 31, 33, 100, 255, 256, 257, 1000] {
            let col = mk(len);
            let max = col.first().copied().unwrap_or(0.0);
            for c in [
                -1.0,
                0.0,
                0.5,
                1.0,
                max / 2.0,
                max / 2.0 + 0.5,
                max,
                max + 1.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ] {
                assert_eq!(bound_cut(&col, c), pp(&col, c), "len {len} c {c}");
            }
            assert_eq!(bound_cut(&col, f64::NAN), pp(&col, f64::NAN), "NaN c");
        }
        // All-pass / all-fail at both sides of the cutover.
        for len in [37usize, 256, 300] {
            let col = vec![5.0; len];
            assert_eq!(bound_cut(&col, 5.0), len, "all-pass (ties) len {len}");
            assert_eq!(bound_cut(&col, 5.1), 0, "all-fail len {len}");
            assert_eq!(bound_cut(&col, 4.9), len);
        }
    }

    #[test]
    fn bound_cut_u16_matches_linear_oracle() {
        let mk = |len: usize| -> Vec<u8> {
            let mut col = Vec::with_capacity(2 * len);
            for i in 0..len {
                let v = ((len - i) as u16 / 3).saturating_mul(7);
                col.extend_from_slice(&v.to_le_bytes());
            }
            col
        };
        for len in [0usize, 1, 7, 16, 17, 63, 255, 256, 257, 513] {
            let col = mk(len);
            let vals: Vec<u16> = (0..len).map(|j| column_u16(&col, j)).collect();
            for qc in [0u16, 1, 3, 7, 14, 100, 600, u16::MAX] {
                let oracle = vals.partition_point(|&v| v >= qc);
                assert_eq!(bound_cut_u16(&col, len, qc), oracle, "len {len} qc {qc}");
            }
        }
    }
}
