//! The uncompressed posting arena ([`Arena`]), its frozen columns and
//! the columnar view of one list.

use crate::cut::bound_cut;
use crate::ObjId;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Mutex;

/// A posting being sorted: the object and its `N` bounds.
type Row<const N: usize> = (ObjId, [f64; N]);

/// A staged posting tagged with its group: `(group, object, bounds)`,
/// where `group` indexes a key table (24 bytes for the hybrid lists).
pub type GroupedRow<const N: usize> = (u32, ObjId, [f64; N]);

/// The finalize order within a group: descending cut-axis bound, ties
/// by ascending object id. A total order, because no bound is NaN
/// (invariant 3).
fn cmp_rows<const N: usize>(a: &Row<N>, b: &Row<N>) -> std::cmp::Ordering {
    b.1[0].total_cmp(&a.1[0]).then(a.0.cmp(&b.0))
}

/// Invariant 3: rejects a NaN bound.
fn check_bounds<const N: usize>(bounds: &[f64; N]) {
    for (col, b) in bounds.iter().enumerate() {
        assert!(!b.is_nan(), "NaN bound {col} rejected at insert time");
    }
}

/// Rows per chunk of a [`RowBuffer`] once it has grown (3 MiB of
/// hybrid rows).
const CHUNK_ROWS: usize = 1 << 17;

/// Staged rows in chunks: appending never moves a row, so the buffer
/// never holds a row twice (a doubling `Vec` does, mid-reallocation).
/// Chunk capacities double from 64 rows up to 2¹⁷, so a small arena
/// stages small; the freeze frees the chunks one by one as it scatters
/// them. The cap was chosen on `peak_rss_mb` over the six benchmark
/// workloads: one doubling `Vec` raised it up to 16 %, caps of 2¹⁶ or
/// 2²⁰ rows up to 5–7 % on one workload each.
#[derive(Debug, Clone, Default)]
pub struct RowBuffer<const N: usize> {
    chunks: Vec<Vec<GroupedRow<N>>>,
    len: usize,
}

impl<const N: usize> RowBuffer<N> {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row.
    #[inline]
    pub fn push(&mut self, row: GroupedRow<N>) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < chunk.capacity() => chunk.push(row),
            _ => {
                let mut chunk = Vec::with_capacity(self.len.clamp(64, CHUNK_ROWS));
                chunk.push(row);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity-based heap bytes.
    fn heap_bytes(&self) -> usize {
        let rows: usize = self.chunks.iter().map(Vec::capacity).sum();
        rows * std::mem::size_of::<GroupedRow<N>>()
            + self.chunks.capacity() * std::mem::size_of::<Vec<GroupedRow<N>>>()
    }

    fn iter(&self) -> impl Iterator<Item = &GroupedRow<N>> {
        self.chunks.iter().flatten()
    }
}

/// The frozen columns: one id column, `N` bound columns.
#[derive(Debug, Clone)]
pub(crate) struct Columns<const N: usize> {
    /// Object ids, row-aligned with every bound column.
    pub(crate) ids: Vec<ObjId>,
    /// Bound columns; column 0 is non-increasing within each group.
    pub(crate) bounds: [Vec<f64>; N],
}

impl<const N: usize> Columns<N> {
    fn with_capacity(n: usize) -> Self {
        Columns {
            ids: Vec::with_capacity(n),
            bounds: std::array::from_fn(|_| Vec::with_capacity(n)),
        }
    }

    /// Capacity-based heap bytes across all columns.
    fn heap_bytes(&self) -> usize {
        let bounds: usize = self.bounds.iter().map(Vec::capacity).sum();
        self.ids.capacity() * std::mem::size_of::<ObjId>() + bounds * std::mem::size_of::<f64>()
    }
}

/// Columnar view of one posting group: row `j` of `ids` and of every
/// bound column describe the same posting. Consumers read whichever
/// column they need instead of striding over interleaved structs.
#[derive(Debug, Clone, Copy)]
pub struct PostingsView<'a, const N: usize> {
    /// Object ids.
    pub ids: &'a [ObjId],
    /// Bound columns; `bounds[0]` is non-increasing (ties by ascending
    /// id), the others are unordered.
    pub bounds: [&'a [f64]; N],
}

impl<'a, const N: usize> PostingsView<'a, N> {
    /// Number of postings in the group.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the group is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates rows as `(object, bounds)` (for consumers that
    /// genuinely need every column per row).
    pub fn rows(&self) -> impl Iterator<Item = (ObjId, [f64; N])> + 'a {
        let (ids, bounds) = (self.ids, self.bounds);
        (0..ids.len()).map(move |j| (ids[j], bounds.map(|col| col[j])))
    }
}

/// The one uncompressed posting arena: keyed, threshold-bounded
/// posting lists with `N` bounds per posting, frozen **once** into
/// parallel columns (structure of arrays) behind a sorted key table
/// with CSR offsets.
///
/// ```text
/// keys:    [k0, k1, k2, ...]                    sorted ascending
/// offsets: [0, |I(k0)|, |I(k0)|+|I(k1)|, ...]   len = keys.len() + 1
/// ids:     [ I(k0) | I(k1) | ... ]              row-aligned parallel
/// bounds:  [ I(k0) | I(k1) | ... ]  × N         columns, one span per
///                                               group
/// ```
///
/// The paper's pruning rule is a threshold cut over a *bound* column
/// (`bound ≥ c`); everything else a probe touches is the *id* column.
/// Keeping the two apart lets [`bound_cut`] search a dense `f64` run and
/// the qualifying prefix come back as a slice of a dense `u32` run. A
/// probe is one binary search over `keys` (or none, by [`Arena::slot`])
/// plus one cut over the group's span of bound column 0 — no pointer
/// chasing, no per-list heap objects, and the whole read path is
/// `&self`.
///
/// `N` is the number of bounds a posting carries: one for the token and
/// grid lists of §4.2 ([`InvertedIndex`]), two for the hybrid lists of
/// §5.1–5.2 ([`HybridIndex`]: spatial, then textual). Column 0 is the
/// **cut axis** — groups are sorted by it, descending — and the other
/// columns are checked row by row over the surviving prefix.
///
/// # Lifecycle
///
/// `push*` tags each row with its key's group number (a `HashMap`
/// from key to group) and appends it to a [`RowBuffer`];
/// [`Arena::finalize`] freezes the rows, and [`Arena::from_groups`]
/// freezes rows a caller has already grouped. The Token build (a
/// token id is its group) and the Seal build (a scheme entry is its
/// group) stage through `from_groups` and hash no key; the Grid and
/// HashHybrid builds still `push` their `u64` keys and finalize. The
/// freeze is one routine: count the rows per group, order the groups by
/// key, scatter the rows straight into the columns (push order kept),
/// then sort each group's span (descending bound 0, ties by ascending
/// object id). A
/// re-finalize returns the frozen rows to the buffer first, so it is by
/// construction the fresh build over the same pushes.
///
/// # Invariants
///
/// 1. **Sorted keys.** `keys` is strictly ascending.
/// 2. **Staged postings are an error for whole-index consumers.**
///    Probes read the frozen columns only, and [`Arena::iter`]
///    *panics* rather than let a serializer or compressor persist an
///    index without its staged rows.
/// 3. **Bounds are never NaN.** `push*` rejects them, so the descending
///    sort is a total order and every [`bound_cut`] is well-defined.
/// 4. **Columns are row-aligned.** Every column has the same length and
///    row `j` of each describes the same posting.
///
/// The paper keeps inverted lists on disk with an in-memory offset map;
/// we keep everything in memory but report exact byte sizes of the
/// layout via [`size_bytes`](Arena::size_bytes) so Table 1's relative
/// index sizes can be reproduced.
#[derive(Debug, Clone)]
pub struct Arena<K, const N: usize> {
    /// Group number of every staged key; `group_keys` maps it back.
    groups: HashMap<K, u32>,
    group_keys: Vec<K>,
    /// Rows pushed since the last finalize, tagged with their group.
    rows: RowBuffer<N>,
    keys: Vec<K>,
    offsets: Vec<usize>,
    columns: Columns<N>,
    posting_count: usize,
}

/// The single-bound index of §4.2: signature element (token id, grid
/// cell id) → posting list with one Lemma 3 bound per posting.
pub type InvertedIndex<K> = Arena<K, 1>;

/// The hybrid index of §5.1/§5.2: `(token, cell)` element → posting
/// list with a spatial (cut axis) and a textual bound per posting.
pub type HybridIndex<K> = Arena<K, 2>;

impl<K, const N: usize> Default for Arena<K, N> {
    fn default() -> Self {
        Arena {
            groups: HashMap::new(),
            group_keys: Vec::new(),
            rows: RowBuffer::new(),
            keys: Vec::new(),
            offsets: vec![0],
            columns: Columns::with_capacity(0),
            posting_count: 0,
        }
    }
}

impl<K: Eq + Hash + Ord + Copy + Sync, const N: usize> Arena<K, N> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a posting for `key`. Not visible to queries until
    /// [`finalize`](Self::finalize).
    ///
    /// # Panics
    /// If any bound is NaN (invariant 3).
    pub fn push_row(&mut self, key: K, object: ObjId, bounds: [f64; N]) {
        check_bounds(&bounds);
        let group = self.group_of(key);
        self.rows.push((group, object, bounds));
        self.posting_count += 1;
    }

    /// `key`'s group number, assigned on first sight.
    fn group_of(&mut self, key: K) -> u32 {
        let next = u32::try_from(self.group_keys.len()).expect("group count fits u32");
        let group_keys = &mut self.group_keys;
        *self.groups.entry(key).or_insert_with(|| {
            group_keys.push(key);
            next
        })
    }

    /// A frozen arena over `rows`, each tagged with a group number
    /// whose key is `keys[group]` — the same arena as pushing every row
    /// under its group's key and finalizing with `threads`, for callers
    /// that already know their groups and so need hash no key. A group
    /// with no rows leaves no list.
    ///
    /// # Panics
    /// If a key repeats in `keys` (invariant 1), a bound is NaN
    /// (invariant 3) or a group number is not below `keys.len()`.
    pub fn from_groups(keys: &[K], rows: RowBuffer<N>, threads: usize) -> Self {
        let (keys, offsets, columns) = freeze(keys, rows, threads);
        Self::from_frozen(keys, offsets, columns)
    }

    /// Rebuilds a frozen arena from already-validated parts (the
    /// codec's load path). The caller guarantees invariants 1–4 and
    /// the finalize order within every group.
    pub(crate) fn from_frozen(keys: Vec<K>, offsets: Vec<usize>, columns: Columns<N>) -> Self {
        debug_assert_eq!(offsets.len(), keys.len() + 1);
        debug_assert_eq!(offsets.last(), Some(&columns.ids.len()));
        Arena {
            posting_count: columns.ids.len(),
            keys,
            offsets,
            columns,
            ..Self::default()
        }
    }

    /// Freezes every pushed posting into the columns. Must be called
    /// after the last push and before querying; a no-op when nothing
    /// is staged. Single-threaded; see
    /// [`finalize_with_threads`](Self::finalize_with_threads).
    pub fn finalize(&mut self) {
        self.finalize_with_threads(1);
    }

    /// [`finalize`](Self::finalize) with the per-group sorts fanned out
    /// over `threads` workers (work stealing over runs of whole groups
    /// — group sizes are Zipf-skewed, so one run per worker would idle
    /// threads). `threads` follows the
    /// [`resolve_threads`](crate::parallel::resolve_threads)
    /// convention: 0 = all cores, 1 = inline. Results are bit-identical
    /// for every thread count.
    pub fn finalize_with_threads(&mut self, threads: usize) {
        if self.rows.is_empty() {
            return;
        }
        // A re-freeze is a fresh build: rows already frozen rejoin the
        // staged ones, after them, under their keys' groups.
        let mut rows = std::mem::take(&mut self.rows);
        let frozen = std::mem::replace(&mut self.columns, Columns::with_capacity(0));
        for (slot, key) in std::mem::take(&mut self.keys).into_iter().enumerate() {
            let group = self.group_of(key);
            for j in self.offsets[slot]..self.offsets[slot + 1] {
                let bounds = std::array::from_fn(|col| frozen.bounds[col][j]);
                rows.push((group, frozen.ids[j], bounds));
            }
        }
        drop(frozen);
        self.groups = HashMap::new();
        let group_keys = std::mem::take(&mut self.group_keys);
        (self.keys, self.offsets, self.columns) = freeze(&group_keys, rows, threads);
    }

    /// True when every pushed posting is in the frozen columns.
    pub fn is_finalized(&self) -> bool {
        self.rows.is_empty()
    }

    /// The slot of `key`'s list: its position among the frozen keys in
    /// ascending order (the order [`iter`](Self::iter) yields them in),
    /// `None` when the key has no frozen postings. Valid until the
    /// next finalize that freezes new postings — resolve once per
    /// freeze, then probe by slot with no key search.
    #[inline]
    pub fn slot(&self, key: &K) -> Option<usize> {
        self.keys.binary_search(key).ok()
    }

    #[inline]
    fn span_at(&self, slot: usize) -> Range<usize> {
        self.offsets[slot]..self.offsets[slot + 1]
    }

    #[inline]
    fn view(&self, span: Range<usize>) -> PostingsView<'_, N> {
        PostingsView {
            ids: &self.columns.ids[span.clone()],
            bounds: std::array::from_fn(|col| &self.columns.bounds[col][span.clone()]),
        }
    }

    /// The full list for a key, if any (finalize order).
    pub fn list(&self, key: &K) -> Option<PostingsView<'_, N>> {
        self.slot(key).map(|slot| self.list_at(slot))
    }

    /// The full list at `slot` (see [`slot`](Self::slot)).
    ///
    /// # Panics
    /// If `slot` is not below the number of frozen keys.
    #[inline]
    pub fn list_at(&self, slot: usize) -> PostingsView<'_, N> {
        self.view(self.span_at(slot))
    }

    /// The object ids of the postings qualifying under every threshold,
    /// `I_c(key)` (empty if the key is absent): one [`bound_cut`] over
    /// bound column 0, then — for `N > 1` — a check of the other
    /// columns per surviving row. With one bound the result is the
    /// matching prefix of the id column, in place, and `scratch` is
    /// not touched; otherwise the survivors are collected into
    /// `scratch` (cleared first).
    #[inline]
    pub fn qualifying_into<'a>(
        &'a self,
        key: &K,
        c: [f64; N],
        scratch: &'a mut Vec<ObjId>,
    ) -> &'a [ObjId] {
        debug_assert!(self.is_finalized(), "query on non-finalized index");
        let Some(list) = self.list(key) else {
            return &[];
        };
        let cut = bound_cut(list.bounds[0], c[0]);
        if N == 1 {
            return &list.ids[..cut];
        }
        scratch.clear();
        scratch.extend(
            (0..cut)
                .filter(|&j| (1..N).all(|col| list.bounds[col][j] >= c[col]))
                .map(|j| list.ids[j]),
        );
        scratch
    }

    /// Length of the **frozen** list for `key` (0 if absent) — the
    /// `|I(g)|` of the §4.3 cost model, exactly what a probe can scan.
    pub fn list_len(&self, key: &K) -> usize {
        self.slot(key).map_or(0, |slot| self.span_at(slot).len())
    }

    /// Number of distinct keys (frozen plus staged).
    pub fn key_count(&self) -> usize {
        let staged_only = |k: &&K| self.keys.binary_search(k).is_err();
        self.keys.len() + self.group_keys.iter().filter(staged_only).count()
    }

    /// Total number of postings ever pushed.
    pub fn posting_count(&self) -> usize {
        self.posting_count
    }

    /// Exact heap size in bytes: the columns, the key table and the
    /// offsets, plus the staged rows and group table. All terms are
    /// **capacity**-based (a row chunk owns its whole allocation); a
    /// freeze sizes the frozen parts exactly and frees the staging, so
    /// for a finalized index capacity and length agree.
    pub fn size_bytes(&self) -> usize {
        let table = self.keys.capacity() * std::mem::size_of::<K>()
            + self.offsets.capacity() * std::mem::size_of::<usize>();
        let staged = self.rows.heap_bytes()
            + self.group_keys.capacity() * std::mem::size_of::<K>()
            + self.groups.capacity() * std::mem::size_of::<(K, u32)>();
        self.columns.heap_bytes() + table + staged
    }

    /// The largest object id in the **frozen** columns (`None` when
    /// empty). Load paths use this to check a deserialized index
    /// against the store it is being attached to before any probe
    /// indexes a per-object scratch table with an id.
    pub fn max_object_id(&self) -> Option<ObjId> {
        self.columns.ids.iter().copied().max()
    }

    /// The frozen columns, whole (the codec dumps them as they sit).
    pub(crate) fn columns(&self) -> &Columns<N> {
        &self.columns
    }

    /// Iterates `(key, group view)` in ascending key order.
    ///
    /// # Panics
    /// If postings are staged (invariant 2).
    pub fn iter(&self) -> impl Iterator<Item = (K, PostingsView<'_, N>)> + '_ {
        assert!(
            self.is_finalized(),
            "iteration requires finalize() after the last push"
        );
        (0..self.keys.len()).map(move |slot| (self.keys[slot], self.list_at(slot)))
    }
}

impl<K: Eq + Hash + Ord + Copy + Sync> Arena<K, 1> {
    /// [`push_row`](Self::push_row) with the single bound as a scalar.
    pub fn push(&mut self, key: K, object: ObjId, bound: f64) {
        self.push_row(key, object, [bound]);
    }

    /// The object ids of the qualifying postings `I_c(key)`: the
    /// matching prefix of the id column — returned in place, no copy.
    #[inline]
    pub fn qualifying(&self, key: &K, c: f64) -> &[ObjId] {
        debug_assert!(self.is_finalized(), "query on non-finalized index");
        self.list(key)
            .map_or(&[], |l| &l.ids[..bound_cut(l.bounds[0], c)])
    }
}

impl<K: Eq + Hash + Ord + Copy + Sync> Arena<K, 2> {
    /// [`push_row`](Self::push_row) with the two bounds of §5.1 as
    /// scalars.
    pub fn push(&mut self, key: K, object: ObjId, spatial_bound: f64, textual_bound: f64) {
        self.push_row(key, object, [spatial_bound, textual_bound]);
    }

    /// Iterates the object ids qualifying under both thresholds,
    /// `I_{c_R, c_T}(key)`: a cut over the spatial column, then a
    /// textual-column check per surviving row, fused into the
    /// consumer's loop (no scratch).
    #[inline]
    pub fn qualifying<'a>(
        &'a self,
        key: &K,
        c_spatial: f64,
        c_textual: f64,
    ) -> impl Iterator<Item = ObjId> + 'a {
        let span = self.slot(key).map_or(0..0, |slot| self.span_at(slot));
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
        self.qualifying_in(self.span_at(slot), c_spatial, c_textual)
    }

    #[inline]
    fn qualifying_in(
        &self,
        span: Range<usize>,
        c_spatial: f64,
        c_textual: f64,
    ) -> impl Iterator<Item = ObjId> + '_ {
        debug_assert!(self.is_finalized(), "query on non-finalized index");
        let PostingsView {
            ids,
            bounds: [spatial, textual],
        } = self.view(span);
        let cut = bound_cut(spatial, c_spatial);
        ids[..cut]
            .iter()
            .zip(&textual[..cut])
            .filter(move |&(_, &tb)| tb >= c_textual)
            .map(|(&id, _)| id)
    }
}

/// The one freeze: `rows`, tagged with groups numbered into
/// `group_keys`, into the key table, the CSR offsets and the columns.
/// Counts the rows per group, orders the groups by key (skipping empty
/// ones), scatters the rows straight into the columns in push order and
/// sorts each group's span by [`cmp_rows`]. Each chunk of rows is
/// freed once scattered, before the sort, so no row sits in two
/// row-sized buffers.
fn freeze<K: Ord + Copy, const N: usize>(
    group_keys: &[K],
    rows: RowBuffer<N>,
    threads: usize,
) -> (Vec<K>, Vec<usize>, Columns<N>) {
    let mut counts = vec![0usize; group_keys.len()];
    for (group, _, bounds) in rows.iter() {
        check_bounds(bounds);
        counts[*group as usize] += 1;
    }
    let mut order: Vec<u32> = (0..group_keys.len() as u32).collect();
    order.sort_unstable_by_key(|&g| group_keys[g as usize]);
    assert!(
        order
            .windows(2)
            .all(|w| group_keys[w[0] as usize] < group_keys[w[1] as usize]),
        "repeated key in the group table"
    );
    // Exact capacities: size accounting is capacity-based.
    let listed = counts.iter().filter(|&&c| c > 0).count();
    let mut keys = Vec::with_capacity(listed);
    let mut offsets = Vec::with_capacity(listed + 1);
    offsets.push(0);
    // `counts[g]` becomes the next free row of group `g`.
    let mut at = 0;
    for g in order {
        let count = std::mem::replace(&mut counts[g as usize], at);
        if count > 0 {
            at += count;
            keys.push(group_keys[g as usize]);
            offsets.push(at);
        }
    }
    let mut columns = Columns {
        ids: vec![0; at],
        bounds: std::array::from_fn(|_| vec![0.0; at]),
    };
    for (group, id, bounds) in rows.chunks.into_iter().flatten() {
        let j = &mut counts[group as usize];
        columns.ids[*j] = id;
        for (col, b) in bounds.into_iter().enumerate() {
            columns.bounds[col][*j] = b;
        }
        *j += 1;
    }
    sort_groups(&offsets, &mut columns, threads);
    (keys, offsets, columns)
}

/// Sorts every group's span of the columns by [`cmp_rows`], over
/// `threads` workers stealing runs of whole groups.
fn sort_groups<const N: usize>(offsets: &[usize], columns: &mut Columns<N>, threads: usize) {
    let groups = offsets.len() - 1;
    let workers = crate::parallel::worker_count(threads, groups);
    let bounds = columns.bounds.each_mut().map(|col| col.as_mut_slice());
    if workers <= 1 {
        sort_run(offsets, &mut columns.ids, bounds);
        return;
    }
    // Runs of about a quarter of a worker's share of the rows; a lock
    // per run hands each worker its disjoint slices, taken once.
    let target = columns.ids.len().div_ceil(4 * workers).max(1);
    let mut runs = Vec::new();
    let (mut ids, mut bounds) = (columns.ids.as_mut_slice(), bounds);
    let mut first = 0;
    while first < groups {
        let mut last = first + 1;
        while last < groups && offsets[last] - offsets[first] < target {
            last += 1;
        }
        let len = offsets[last] - offsets[first];
        let (run_ids, rest) = std::mem::take(&mut ids).split_at_mut(len);
        ids = rest;
        let run_bounds: [&mut [f64]; N] = std::array::from_fn(|col| {
            let (run, rest) = std::mem::take(&mut bounds[col]).split_at_mut(len);
            bounds[col] = rest;
            run
        });
        runs.push(Mutex::new((&offsets[first..=last], run_ids, run_bounds)));
        first = last;
    }
    crate::parallel::for_each_index(runs.len(), workers, |i| {
        let mut run = runs[i].lock().expect("run sort cannot poison");
        let (offsets, ids, bounds) = &mut *run;
        let bounds = bounds.each_mut().map(|col| &mut **col);
        sort_run(offsets, ids, bounds);
    });
}

/// Sorts the consecutive groups `offsets` delimits (absolute rows;
/// the slices start at `offsets[0]`), each gathered into a scratch of
/// rows, sorted and written back.
fn sort_run<const N: usize>(offsets: &[usize], ids: &mut [ObjId], mut bounds: [&mut [f64]; N]) {
    let mut scratch: Vec<Row<N>> = Vec::new();
    let base = offsets[0];
    for span in offsets.windows(2) {
        let (lo, hi) = (span[0] - base, span[1] - base);
        if hi - lo < 2 {
            continue;
        }
        scratch.clear();
        scratch.extend((lo..hi).map(|j| (ids[j], std::array::from_fn(|col| bounds[col][j]))));
        scratch.sort_unstable_by(cmp_rows);
        for (j, &(id, row)) in (lo..hi).zip(scratch.iter()) {
            ids[j] = id;
            for (col, column) in bounds.iter_mut().enumerate() {
                column[j] = row[col];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(token: u64, cell: u64) -> u128 {
        (u128::from(token) << 64) | u128::from(cell)
    }

    fn buffer<const N: usize>(rows: impl IntoIterator<Item = GroupedRow<N>>) -> RowBuffer<N> {
        let mut buffer = RowBuffer::new();
        rows.into_iter().for_each(|row| buffer.push(row));
        buffer
    }

    /// `(key, ids)` per frozen group.
    fn groups<const N: usize>(a: &Arena<u64, N>) -> Vec<(u64, Vec<ObjId>)> {
        a.iter().map(|(k, g)| (k, g.ids.to_vec())).collect()
    }

    #[test]
    fn groups_are_key_sorted_and_cmp_ordered() {
        let mut a: InvertedIndex<u64> = InvertedIndex::new();
        for (k, id, b) in [
            (9u64, 1u32, 1.0),
            (2, 5, 5.0),
            (9, 7, 7.0),
            (2, 3, 3.0),
            (5, 4, 4.0),
        ] {
            a.push(k, id, b);
        }
        a.finalize();
        assert_eq!(
            groups(&a),
            vec![(2, vec![5, 3]), (5, vec![4]), (9, vec![7, 1])]
        );
        assert_eq!(a.key_count(), 3);
        assert_eq!(a.posting_count(), 5);
        assert!(a.list(&5).is_some());
        assert!(a.list(&6).is_none());
    }

    #[test]
    fn ties_break_by_ascending_id_and_infinities_order() {
        let mut a: InvertedIndex<u64> = InvertedIndex::new();
        for (id, b) in [
            (4u32, 1.0),
            (2, f64::INFINITY),
            (9, 1.0),
            (1, f64::NEG_INFINITY),
            (3, 1.0),
        ] {
            a.push(1, id, b);
        }
        a.finalize();
        let list = a.list(&1).unwrap();
        assert_eq!(list.ids, &[2, 3, 4, 9, 1]);
        assert!(list.bounds[0].windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    #[should_panic(expected = "requires finalize()")]
    fn staged_iteration_panics() {
        let mut a: InvertedIndex<u64> = InvertedIndex::new();
        a.push(1, 1, 1.0);
        let _ = a.iter().count();
    }

    #[test]
    fn finalize_with_threads_matches_sequential() {
        // Many Zipf-ish groups and a re-freeze: every thread count must
        // produce the identical arena.
        let build = |threads: usize| {
            let mut a: HybridIndex<u64> = HybridIndex::new();
            for i in 0..2000u32 {
                let b = f64::from(i.wrapping_mul(2_654_435_761) % 997);
                a.push(u64::from(i % 37), i, b, 1000.0 - b);
            }
            a.finalize_with_threads(threads);
            for i in 0..500u32 {
                let b = f64::from((i.wrapping_mul(40_503) ^ 0xAAAA) % 997);
                a.push(u64::from(i % 53), 2000 + i, b, b / 2.0);
            }
            a.finalize_with_threads(threads);
            a.to_bytes()
        };
        let sequential = build(1);
        for threads in [2usize, 4, 8, 0] {
            assert_eq!(build(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn size_bytes_counts_staged_capacity() {
        let mut a: InvertedIndex<u64> = InvertedIndex::new();
        a.push(1, 1, 1.0);
        let one = a.size_bytes();
        // A row chunk's capacity (≥ its len) is what the heap actually
        // holds; pushing within it must not change the report, and the
        // report must cover at least the chunks' capacity.
        let staged = |a: &InvertedIndex<u64>| {
            let rows: usize = a.rows.chunks.iter().map(Vec::capacity).sum();
            rows * std::mem::size_of::<GroupedRow<1>>()
        };
        let spare = a.rows.chunks[0].capacity() - a.rows.len;
        for v in 0..spare as u32 {
            a.push(1, v, 1.0);
        }
        assert_eq!(a.size_bytes(), one, "pushes within capacity");
        assert!(a.size_bytes() >= staged(&a));
        a.push(1, 0, 1.0); // opens a second chunk
        assert_eq!(a.rows.chunks.len(), 2);
        assert!(a.size_bytes() > one);
        assert!(a.size_bytes() >= staged(&a));
    }

    #[test]
    fn row_chunks_double_and_keep_push_order() {
        let rows = buffer((0..300_000u32).map(|i| (0, i, [0.0])));
        let caps: Vec<usize> = rows.chunks.iter().map(Vec::capacity).collect();
        // Each chunk holds as many rows as all before it (64 at first).
        let mut before = 0;
        for &cap in &caps {
            assert_eq!(cap, before.clamp(64, CHUNK_ROWS));
            before += cap;
        }
        assert_eq!(rows.len, 300_000);
        assert!(rows.iter().map(|r| r.1).eq(0..300_000));
    }

    #[test]
    fn finalized_size_is_exactly_the_columns_and_the_directory() {
        let mut a: HybridIndex<u128> = HybridIndex::new();
        for i in 0..100u32 {
            a.push(key(u64::from(i % 7), 1), i, f64::from(i), 1.0);
        }
        a.finalize();
        a.push(key(9, 9), 100, 1.0, 1.0);
        a.finalize(); // the re-freeze sizes everything exactly, too
        assert_eq!(a.size_bytes(), 101 * (4 + 8 + 8) + 8 * 16 + 9 * 8);
    }

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
        assert!(idx.qualifying(&99, 0.0).is_empty());
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
        let keys: Vec<u64> = idx.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3], "iteration is key-sorted");
        for (_, v) in idx.iter() {
            assert!(v.bounds[0].windows(2).all(|w| w[0] >= w[1]));
            assert_eq!(v.ids.len(), v.bounds[0].len(), "columns row-aligned");
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
        assert_eq!(view.bounds, [&[3.0, 2.0, 1.0][..]]);
        assert!(!view.is_empty());
        let rows: Vec<(ObjId, [f64; 1])> = view.rows().collect();
        assert_eq!(rows, vec![(9, [3.0]), (4, [2.0]), (7, [1.0])]);
        let q = idx.qualifying(&1, 2.0);
        assert_eq!(q, &view.ids[..2], "prefix of the id column, in place");
        // The generic probe returns the same slice and leaves the
        // scratch alone.
        let mut scratch = vec![77];
        assert_eq!(idx.qualifying_into(&1, [2.0], &mut scratch), q);
        assert_eq!(
            idx.qualifying_into(&5, [0.0], &mut Vec::new()),
            &[] as &[ObjId]
        );
    }

    #[test]
    fn push_after_finalize_is_frozen_by_the_next_finalize() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 0, 5.0);
        idx.finalize();
        assert!(idx.is_finalized());
        idx.push(1, 1, 9.0);
        idx.push(2, 2, 1.0);
        assert!(!idx.is_finalized());
        assert_eq!(idx.key_count(), 2, "frozen plus staged");
        idx.finalize();
        assert_eq!(idx.key_count(), 2);
        assert_eq!(idx.posting_count(), 3);
        assert_eq!(idx.qualifying(&1, 0.0), &[1, 0], "list re-sorted by bound");
    }

    #[test]
    #[should_panic(expected = "NaN bound 0 rejected at insert time")]
    fn nan_bound_rejected_at_insert() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN bound 0 rejected at insert time")]
    fn nan_spatial_bound_rejected_at_insert() {
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        idx.push(key(1, 1), 0, f64::NAN, 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN bound 1 rejected at insert time")]
    fn nan_textual_bound_rejected_at_insert() {
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        idx.push(key(1, 1), 0, 1.0, f64::NAN);
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
        let v = idx.list(&key(1, 1)).unwrap();
        assert_eq!(v.ids, &[4, 0]);
        assert_eq!(v.bounds, [&[1100.0, 1075.0][..], &[1.7, 1.9][..]]);
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
        let mut scratch = Vec::new();
        for (slot, (k, list)) in idx.iter().enumerate() {
            assert_eq!(idx.slot(&k), Some(slot));
            assert_eq!(idx.list_at(slot).ids, list.ids);
            for (c_r, c_t) in [(0.0, 0.0), (1090.0, 0.0), (600.0, 1.8), (1e9, 0.0)] {
                let by_key: Vec<ObjId> = idx.qualifying(&k, c_r, c_t).collect();
                assert!(idx.qualifying_at(slot, c_r, c_t).eq(by_key.iter().copied()));
                assert_eq!(idx.qualifying_into(&k, [c_r, c_t], &mut scratch), by_key);
            }
        }
        // A finalize that freezes new postings may move every slot.
        idx.push(key(0, 1), 9, 1.0, 1.0);
        idx.finalize();
        assert_eq!(idx.slot(&key(1, 9)), Some(1));
    }

    /// The group table: keys in scrambled order, so a group's number
    /// says nothing about its key's rank.
    fn group_keys(groups: usize) -> Vec<u64> {
        (0..groups as u64).map(|g| (g * 7 + 3) % 11 * 100).collect()
    }

    /// `raw` rows `(group, id, bound level)` over `groups` keys — few
    /// bound levels, so ties broken by id are common; rows naming a
    /// group past the table are dropped, leaving some groups empty.
    fn grouped_equals_pushed<const N: usize>(
        groups: usize,
        raw: &[(u32, u32, u8)],
        threads: usize,
    ) {
        let keys = group_keys(groups);
        let rows: RowBuffer<N> = buffer(raw.iter().filter(|r| (r.0 as usize) < groups).map(
            |&(g, id, b)| {
                (
                    g,
                    id,
                    std::array::from_fn(|col| f64::from(b) * (col + 1) as f64),
                )
            },
        ));
        let mut pushed: Arena<u64, N> = Arena::new();
        for &(g, id, bounds) in rows.iter() {
            pushed.push_row(keys[g as usize], id, bounds);
        }
        pushed.finalize();
        let grouped = Arena::from_groups(&keys, rows, threads);
        assert_eq!(grouped.to_bytes(), pushed.to_bytes());
        assert_eq!(grouped.size_bytes(), pushed.size_bytes());
        assert_eq!(grouped.key_count(), pushed.key_count());
        assert_eq!(grouped.posting_count(), pushed.posting_count());
        // A group with no rows leaves no list.
        assert!(grouped.iter().all(|(_, list)| !list.is_empty()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn grouped_freeze_equals_push_and_finalize(
            groups in 1usize..9,
            raw in proptest::collection::vec((0u32..9, 0u32..40, 0u8..4), 0..120),
            threads in 1usize..4,
        ) {
            grouped_equals_pushed::<1>(groups, &raw, threads);
            grouped_equals_pushed::<2>(groups, &raw, threads);
        }
    }

    #[test]
    fn grouped_freeze_breaks_ties_by_id_and_drops_empty_groups() {
        let rows = [(2, 9, [1.0, 0.0]), (2, 4, [1.0, 5.0]), (0, 1, [3.0, 1.0])];
        let a = Arena::from_groups(&[30u64, 20, 10], buffer(rows), 1);
        assert_eq!(groups(&a), vec![(10, vec![4, 9]), (30, vec![1])]);
        assert_eq!(a.list(&10).unwrap().bounds[1], &[5.0, 0.0]);
        assert!(a.list(&20).is_none());
    }

    #[test]
    #[should_panic(expected = "repeated key in the group table")]
    fn grouped_freeze_rejects_a_repeated_key() {
        let _ = InvertedIndex::from_groups(&[5u64, 7, 5], buffer([(0, 1, [1.0])]), 1);
    }

    #[test]
    #[should_panic(expected = "NaN bound 1 rejected")]
    fn grouped_freeze_rejects_a_nan_bound() {
        let _ = HybridIndex::from_groups(&[5u64], buffer([(0, 1, [1.0, f64::NAN])]), 1);
    }
}
