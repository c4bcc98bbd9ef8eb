//! Compressed posting arenas served **in place**: quantized bound
//! columns plus delta-coded, block-bitpacked object-id columns, laid
//! out exactly like the uncompressed columnar arena so queries run
//! directly off the compressed bytes.
//!
//! Table 1 is an index-size study: the paper's inverted lists live on
//! disk and their footprint is a first-class metric. This module
//! mirrors the layout of the uncompressed [`Arena`] — **one contiguous
//! compressed arena plus a sorted key/offset table** — and serves
//! [`qualifying_into`] probes straight off the arena through a
//! caller-owned scratch buffer. Compressed indexes are a serving mode,
//! not just a storage artifact. The compressor reads the arena's id
//! and bound columns directly — quantizing one dense `f64` run per
//! bound column and packing one dense `u32` run per group.
//!
//! [`CompressedArena<K, N>`] is the one-shot frozen form of an
//! [`Arena<K, N>`] ([`compress`], and [`decompress`] back):
//! [`CompressedInvertedIndex`] is `N = 1`, [`CompressedHybridIndex`]
//! is `N = 2`.
//!
//! # Arena layout (the index-layout contract)
//!
//! Groups appear in ascending key order, postings within a group in
//! the *same order as the uncompressed group* (descending primary
//! bound, ties by ascending object id — the `finalize()` order):
//!
//! ```text
//! directory (one entry per key, sorted ascending):
//!   keys:    [k0, k1, ...]
//!   offsets: [byte start of group 0, ..., arena.len()]  len = keys+1
//!   meta:    [(len, scale ×N), ...]     one scale per bound column
//! arena (one contiguous byte buffer):
//!   group i: [ q_bound: u16 ×len ] ×N | ids
//!            (N = 1: the bound column; N = 2: spatial, then textual)
//!   ids:     [ block ×(len/128) | tail ]
//!   block:   [ width: u8 (1..=64) | first: varint (absolute id)
//!            | zigzag deltas ×127 at `width` bits, LSB-first,
//!              ceil(127·width/8) bytes ]
//!   tail (len%128 ids, only if > 0):
//!            [ first: varint (absolute id) | zigzag-varint delta
//!            ×(len%128 − 1) ]
//! ```
//!
//! Because the postings keep the descending-bound order *and* the
//! quantization map is monotone, the primary `u16` bound column is
//! itself non-increasing — so the Lemma 3 qualifying cut runs entirely
//! in the **quantized domain**: the `f64` threshold is lifted once per
//! group to the smallest qualifying `u16` step (`Quantizer::
//! quantize_threshold`) and the cut is the same binary search the
//! uncompressed arenas use ([`bound_cut`](crate::bound_cut)'s `u16`
//! twin), with zero dequantization per comparison and zero decoding of
//! postings that fail the threshold. Only the qualifying prefix's
//! **ids** are decoded, into the caller's id scratch buffer
//! (`seal-core` hangs one off its `QueryContext`, keeping the warm
//! serving path allocation-free and mutex-free).
//!
//! Bounds are quantized to `u16` fractions of the group's maximum
//! bound, **rounded up** to the next step: a decompressed bound is
//! never below the true bound, so pruning with it can only widen the
//! candidate superset (the same one-sided-error principle the exact
//! `to_bytes`/`from_bytes` codec relies on, traded for 4× bound
//! compression).
//!
//! # Id columns
//!
//! The finalize order (descending bound, ties by **ascending id**)
//! makes equal-bound runs locally sorted, so ids are delta-coded and
//! bit-packed in 128-id blocks: each full block stores one bit width,
//! the first id as an absolute varint, and 127 zigzag-encoded deltas
//! packed LSB-first at that width, so an equal-bound run of
//! near-consecutive ids costs a few *bits* per id instead of a 4-byte
//! word. Deltas are zigzagged because a run boundary (bound drops, id
//! restarts low) produces one negative delta. A partial tail block
//! (fewer than 128 ids) falls back to delta-varint. The block decoder
//! is branch-free per delta (one shift/mask accumulator loop) and
//! decodes into the caller's scratch; [`qualifying_into`] decodes only
//! `ceil(cut/128)` blocks and truncates to the exact cut.
//!
//! Arenas are validated up front — at [`compress`] time by
//! construction, at deserialization time by a full decode walk in
//! `from_bytes` — so the probe path is infallible.
//!
//! [`qualifying_into`]: CompressedArena::qualifying_into
//! [`compress`]: CompressedArena::compress
//! [`decompress`]: CompressedArena::decompress

use crate::container::put_u16;
use crate::cut::{bound_cut_u16, column_u16};
use crate::{Arena, ObjId};

/// The top quantization step: bounds quantize into the whole `u16`
/// range.
const QUANT_TOP: u16 = u16::MAX;
/// [`QUANT_TOP`] in the bound domain.
const QUANT_STEPS: f64 = QUANT_TOP as f64;

/// LEB128 unsigned varint encoding.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = u8::try_from(v & 0x7F).expect("masked to 7 bits");
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// LEB128 decoding from a slice, advancing `pos`; `None` on truncation
/// or overflow.
fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        if *pos >= buf.len() || shift >= 64 {
            return None;
        }
        let byte = buf[*pos];
        *pos += 1;
        out |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(out);
        }
        shift += 7;
    }
}

/// Ids per bit-packed block.
pub(crate) const BLOCK_IDS: usize = 128;
/// Deltas per full block (the first id is stored absolute).
pub(crate) const BLOCK_DELTAS: usize = BLOCK_IDS - 1;

/// Zigzag: maps signed deltas onto unsigned so small magnitudes of
/// either sign pack into few bits (run boundaries go negative).
#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Encodes one id column in the block-packed layout (see module docs):
/// full 128-id blocks bit-packed at the block's minimal width, the
/// partial tail delta-varint.
fn put_ids_blockpacked(buf: &mut Vec<u8>, ids: &[ObjId]) {
    let mut chunks = ids.chunks_exact(BLOCK_IDS);
    for block in &mut chunks {
        let first = block[0];
        let mut deltas = [0u64; BLOCK_DELTAS];
        let mut width = 1u32;
        let mut prev = i64::from(first);
        for (d, &id) in deltas.iter_mut().zip(&block[1..]) {
            let z = zigzag(i64::from(id) - prev);
            prev = i64::from(id);
            *d = z;
            width = width.max(64 - z.leading_zeros());
        }
        buf.push(u8::try_from(width).expect("a delta width is at most 64 bits"));
        put_varint(buf, u64::from(first));
        // LSB-first accumulator; at most 7 leftover bits + 64 new ones
        // are ever in flight, so a u128 never overflows.
        let mut acc = 0u128;
        let mut nbits = 0u32;
        for &z in &deltas {
            acc |= u128::from(z) << nbits;
            nbits += width;
            while nbits >= 8 {
                buf.push(u8::try_from(acc & 0xFF).expect("masked to 8 bits"));
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            buf.push(u8::try_from(acc & 0xFF).expect("masked to 8 bits"));
        }
    }
    let tail = chunks.remainder();
    if let Some((&first, rest)) = tail.split_first() {
        put_varint(buf, u64::from(first));
        let mut prev = i64::from(first);
        for &id in rest {
            put_varint(buf, zigzag(i64::from(id) - prev));
            prev = i64::from(id);
        }
    }
}

/// The delta-unpacking mask for a block width (1..=64 bits).
#[inline]
fn width_mask(width: usize) -> u128 {
    if width == 64 {
        u128::from(u64::MAX)
    } else {
        (1u128 << width) - 1
    }
}

/// Walks one block-packed id column starting at `pos`, validating
/// every invariant the infallible decoder later relies on: widths in
/// `1..=64`, enough packed bytes per block, every reconstructed id in
/// `0..=u32::MAX` (checked arithmetic — a hostile delta cannot wrap).
/// Pushes decoded ids into `out` when given. Returns the position
/// after the column, or `None` on any violation.
fn walk_blockpacked(
    bytes: &[u8],
    mut pos: usize,
    len: usize,
    mut out: Option<&mut Vec<ObjId>>,
) -> Option<usize> {
    let max_id = i64::from(u32::MAX);
    for _ in 0..len / BLOCK_IDS {
        let &width_byte = bytes.get(pos)?;
        pos += 1;
        let width = usize::from(width_byte);
        if width == 0 || width > 64 {
            return None;
        }
        let first = get_varint(bytes, &mut pos)?;
        if first > u64::from(u32::MAX) {
            return None;
        }
        if let Some(v) = out.as_deref_mut() {
            v.push(first as ObjId);
        }
        let packed = (BLOCK_DELTAS * width).div_ceil(8);
        if bytes.len() - pos < packed {
            return None;
        }
        let mask = width_mask(width);
        let mut prev = first as i64;
        let mut acc = 0u128;
        let mut nbits = 0usize;
        let mut at = pos;
        for _ in 0..BLOCK_DELTAS {
            while nbits < width {
                acc |= u128::from(bytes[at]) << nbits;
                at += 1;
                nbits += 8;
            }
            let z = (acc & mask) as u64;
            acc >>= width;
            nbits -= width;
            let id = prev.checked_add(unzigzag(z))?;
            if !(0..=max_id).contains(&id) {
                return None;
            }
            prev = id;
            if let Some(v) = out.as_deref_mut() {
                v.push(id as ObjId);
            }
        }
        pos += packed;
    }
    let tail = len % BLOCK_IDS;
    if tail > 0 {
        let first = get_varint(bytes, &mut pos)?;
        if first > u64::from(u32::MAX) {
            return None;
        }
        if let Some(v) = out.as_deref_mut() {
            v.push(first as ObjId);
        }
        let mut prev = first as i64;
        for _ in 1..tail {
            let id = prev.checked_add(unzigzag(get_varint(bytes, &mut pos)?))?;
            if !(0..=max_id).contains(&id) {
                return None;
            }
            prev = id;
            if let Some(v) = out.as_deref_mut() {
                v.push(id as ObjId);
            }
        }
    }
    Some(pos)
}

/// The exact-minimal probe-path decode: unpacks only the
/// `ceil(cut/128)` blocks the qualifying prefix touches (plus the
/// varint tail when the cut reaches it) into `scratch`, then truncates
/// to exactly `cut` ids. Infallible — the arena was validated at
/// construction or load.
fn decode_blockpacked_into(bytes: &[u8], len: usize, cut: usize, scratch: &mut Vec<ObjId>) {
    const VALID: &str = "arena validated at construction";
    let full_blocks = len / BLOCK_IDS;
    let need_blocks = cut.div_ceil(BLOCK_IDS).min(full_blocks);
    let mut pos = 0usize;
    for _ in 0..need_blocks {
        let width = usize::from(bytes[pos]);
        pos += 1;
        let first = get_varint(bytes, &mut pos).expect(VALID);
        scratch.push(first as ObjId);
        let mask = width_mask(width);
        let mut prev = first as i64;
        let mut acc = 0u128;
        let mut nbits = 0usize;
        for _ in 0..BLOCK_DELTAS {
            while nbits < width {
                acc |= u128::from(bytes[pos]) << nbits;
                pos += 1;
                nbits += 8;
            }
            let z = (acc & mask) as u64;
            acc >>= width;
            nbits -= width;
            prev += unzigzag(z);
            scratch.push(prev as ObjId);
        }
        // The per-delta loads consume exactly ceil(127·width/8) bytes,
        // so `pos` already sits at the next block header.
    }
    if cut > full_blocks * BLOCK_IDS {
        let first = get_varint(bytes, &mut pos).expect(VALID);
        scratch.push(first as ObjId);
        let mut prev = i64::from(first as ObjId);
        for _ in 1..len % BLOCK_IDS {
            prev += unzigzag(get_varint(bytes, &mut pos).expect(VALID));
            scratch.push(prev as ObjId);
        }
    }
    scratch.truncate(cut);
}

/// Per-group bound quantizer: maps `[0, scale]` onto `0..=65535`,
/// rounding **up** so the dequantized value never drops below the true
/// bound (superset safety).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Quantizer {
    scale: f64,
}

impl Quantizer {
    /// A quantizer for a group whose maximum bound (or serialized
    /// scale) is `scale`.
    pub(crate) fn for_max(scale: f64) -> Self {
        Quantizer {
            scale: scale.max(f64::MIN_POSITIVE),
        }
    }

    /// The serialized scale.
    pub(crate) fn scale(&self) -> f64 {
        self.scale
    }

    /// Quantizes a bound (rounding up; values at or above the scale
    /// saturate to the top step).
    ///
    /// Guarantees `dequantize(quantize(b)) >= b` exactly: the ceil
    /// happens in the `b/scale` domain, where rounding error can land
    /// the round-trip 1 ulp *below* `b` and silently drop an answer
    /// whose bound equals the query threshold — so the step is bumped
    /// until the invariant holds in `f64` arithmetic.
    #[inline]
    pub(crate) fn quantize(&self, bound: f64) -> u16 {
        assert!(
            bound.is_finite(),
            "non-finite bound cannot be quantized for compression"
        );
        if bound >= self.scale {
            return QUANT_TOP;
        }
        let mut q = ((bound / self.scale) * QUANT_STEPS)
            .ceil()
            // seal-lint: allow(persisted-narrowing-cast) — a ceil clamped to 0..=65535 is an integer in u16 range, so the float cast is exact
            .clamp(0.0, QUANT_STEPS) as u16;
        // Terminates: dequantize(65535) == scale > bound on this branch.
        while self.dequantize(q) < bound {
            q += 1;
        }
        q
    }

    /// Dequantizes back to a bound ≥ the original, within one step.
    #[inline]
    pub(crate) fn dequantize(&self, q: u16) -> f64 {
        f64::from(q) / QUANT_STEPS * self.scale
    }

    /// Lifts a query threshold into the quantized domain: the smallest
    /// step `qc` with `dequantize(qc) >= c`, so that
    /// `entry >= qc ⟺ dequantize(entry) >= c` (dequantization is
    /// strictly monotone) and the whole cut can run on raw `u16`s.
    /// `None` when no step qualifies (`c` above the group's scale, or
    /// a NaN threshold) — the qualifying set is empty.
    ///
    /// Exactness matters: the initial ceil estimate can land one step
    /// off in `f64` arithmetic, so it is nudged until minimality holds
    /// exactly — the cut must match the reference
    /// `dequantize(entry) >= c` comparison bit-for-bit.
    #[inline]
    pub(crate) fn quantize_threshold(&self, c: f64) -> Option<u16> {
        if c.is_nan() {
            return None;
        }
        if c <= 0.0 {
            return Some(0);
        }
        if c > self.scale {
            return None;
        }
        let mut q = ((c / self.scale) * QUANT_STEPS)
            .ceil()
            // seal-lint: allow(persisted-narrowing-cast) — a ceil clamped to 0..=65535 is an integer in u16 range, so the float cast is exact
            .clamp(0.0, QUANT_STEPS) as u16;
        while q > 0 && self.dequantize(q - 1) >= c {
            q -= 1;
        }
        while self.dequantize(q) < c {
            if q == QUANT_TOP {
                return None;
            }
            q += 1;
        }
        Some(q)
    }
}

/// Directory entry for one group: its posting count and one bound
/// quantizer per column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GroupMeta<const N: usize> {
    /// Postings in the group.
    pub(crate) len: u32,
    /// Quantization scale of each bound column, in column order.
    pub(crate) quant: [Quantizer; N],
}

/// A fully compressed posting index with `N` quantized bound columns
/// per group, served in place.
///
/// Stores exactly one compressed arena plus the sorted key/offset
/// directory (see the [module docs](self) for the byte layout). Built
/// from a finalized [`Arena`] whose group order it preserves verbatim;
/// column 0 is the cut axis, the remaining columns are checked per
/// surviving posting.
#[derive(Debug, Clone)]
pub struct CompressedArena<K, const N: usize> {
    /// Sorted keys (one per non-empty group).
    pub(crate) keys: Vec<K>,
    /// Byte offsets into `arena`; `keys.len() + 1` entries.
    pub(crate) offsets: Vec<usize>,
    /// Per-group posting count + quantization scales.
    pub(crate) meta: Vec<GroupMeta<N>>,
    /// The single contiguous compressed arena.
    pub(crate) arena: Box<[u8]>,
    /// Total postings across all groups.
    pub(crate) posting_count: usize,
}

/// A fully compressed single-bound inverted index, served in place.
///
/// ```
/// use seal_index::{CompressedInvertedIndex, InvertedIndex};
///
/// let mut idx: InvertedIndex<u64> = InvertedIndex::new();
/// idx.push(7, 0, 2.0);
/// idx.push(7, 1, 1.0);
/// idx.finalize();
///
/// let compressed = CompressedInvertedIndex::compress(&idx);
/// let mut scratch = Vec::new(); // caller-owned; reuse across probes
/// let hits = compressed.qualifying_into(&7, 1.5, &mut scratch);
/// assert_eq!(hits, &[0]);
/// ```
pub type CompressedInvertedIndex<K> = CompressedArena<K, 1>;

/// A fully compressed dual-bound hybrid index (Section 5.1's lists in
/// their at-rest form), served in place: postings keep the
/// descending-*spatial*-bound order of [`Arena::finalize`], the
/// spatial column is cut in the quantized domain, and the textual
/// bound is checked per surviving posting — also as a raw `u16`
/// compare against the lifted textual threshold.
pub type CompressedHybridIndex<K> = CompressedArena<K, 2>;

impl<K: Ord + Copy, const N: usize> CompressedArena<K, N> {
    /// Number of keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Total postings across all groups.
    pub fn posting_count(&self) -> usize {
        self.posting_count
    }

    /// Exact heap bytes of the compressed form: arena + directory.
    pub fn size_bytes(&self) -> usize {
        self.arena.len()
            + self.keys.len() * std::mem::size_of::<K>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.meta.len() * std::mem::size_of::<GroupMeta<N>>()
    }

    /// Exact bytes of the **id columns** alone: the arena minus the
    /// fixed 2-bytes-per-posting quantized bound columns.
    pub fn id_column_bytes(&self) -> usize {
        self.arena.len() - 2 * N * self.posting_count
    }

    /// Group `i`'s directory entry, its bound-column bytes (`N` runs of
    /// `2·len`) and its id-column bytes.
    #[inline]
    fn group_at(&self, i: usize) -> (GroupMeta<N>, &[u8], &[u8]) {
        let m = self.meta[i];
        let group = &self.arena[self.offsets[i]..self.offsets[i + 1]];
        // seal-lint: allow(persisted-narrowing-cast) — u32 → usize is lossless on the 32- and 64-bit targets the arena's usize offsets already assume
        let (bounds, ids) = group.split_at(2 * N * m.len as usize);
        (m, bounds, ids)
    }

    /// The probe behind both `qualifying_into` signatures: lifts each
    /// column's threshold into the quantized domain once (no step
    /// qualifying on any column empties the result), cuts column 0,
    /// block-decodes the prefix's ids into `scratch` (cleared first),
    /// then keeps the rows whose remaining columns also qualify — raw
    /// `u16` compares, filtered in place so the warm path allocates
    /// nothing.
    #[inline]
    pub(crate) fn probe<'a>(
        &self,
        key: &K,
        c: [f64; N],
        scratch: &'a mut Vec<ObjId>,
    ) -> &'a [ObjId] {
        scratch.clear();
        let Ok(i) = self.keys.binary_search(key) else {
            return &[];
        };
        let (m, bounds, ids) = self.group_at(i);
        // seal-lint: allow(persisted-narrowing-cast) — u32 → usize is lossless on the 32- and 64-bit targets the arena's usize offsets already assume
        let len = m.len as usize;
        let mut qc = [0u16; N];
        for col in 0..N {
            match m.quant[col].quantize_threshold(c[col]) {
                Some(q) => qc[col] = q,
                None => return &[],
            }
        }
        let cut = bound_cut_u16(bounds, len, qc[0]);
        decode_blockpacked_into(ids, len, cut, scratch);
        if N > 1 {
            let mut kept = 0usize;
            for j in 0..cut {
                if (1..N).all(|col| column_u16(&bounds[2 * col * len..], j) >= qc[col]) {
                    scratch[kept] = scratch[j];
                    kept += 1;
                }
            }
            scratch.truncate(kept);
        }
        &scratch[..]
    }

    /// Block-decodes group `i`'s whole id column into `out` (cleared
    /// first); returns the group's directory entry and bound columns.
    fn decode_group(&self, i: usize, out: &mut Vec<ObjId>) -> (GroupMeta<N>, &[u8]) {
        let (m, bounds, ids) = self.group_at(i);
        out.clear();
        let len = usize::try_from(m.len).expect("group length validated at load");
        walk_blockpacked(ids, 0, len, Some(out)).expect("arena validated at construction");
        (m, bounds)
    }

    /// The largest object id in the arena (`None` when empty), decoded
    /// group by group. Load paths use this to check a deserialized
    /// index against the store it is being attached to before any
    /// probe indexes a per-object scratch table with an id.
    pub fn max_object_id(&self) -> Option<ObjId> {
        let mut decoded = Vec::new();
        (0..self.keys.len())
            .filter_map(|i| {
                self.decode_group(i, &mut decoded);
                decoded.iter().copied().max()
            })
            .max()
    }

    /// Calls `row(key, id, bounds)` for every posting in arena order,
    /// bounds dequantized (rounded up by at most one step).
    fn for_each_row(&self, mut row: impl FnMut(K, ObjId, [f64; N])) {
        let mut decoded = Vec::new();
        for (i, &key) in self.keys.iter().enumerate() {
            let (m, bounds) = self.decode_group(i, &mut decoded);
            let len = usize::try_from(m.len).expect("group length validated at load");
            for (j, &id) in decoded.iter().enumerate() {
                let bound =
                    |col: usize| m.quant[col].dequantize(column_u16(&bounds[2 * col * len..], j));
                row(key, id, std::array::from_fn(bound));
            }
        }
    }
}

impl<K: Ord + Copy + std::hash::Hash + Sync, const N: usize> CompressedArena<K, N> {
    /// Compresses a finalized [`Arena`], preserving its group order:
    /// per group, each bound column quantized to its own maximum, then
    /// the block-packed id column.
    ///
    /// # Panics
    /// If postings are staged (push without finalize) — the arena's
    /// iterator refuses to silently drop them — or if any bound is
    /// non-finite (unquantizable).
    pub fn compress(index: &Arena<K, N>) -> Self {
        let key_count = index.key_count();
        let mut keys = Vec::with_capacity(key_count);
        let mut offsets = Vec::with_capacity(key_count + 1);
        let mut meta = Vec::with_capacity(key_count);
        let mut buf = Vec::with_capacity(index.posting_count() * (2 + 2 * N));
        offsets.push(0);
        for (key, group) in index.iter() {
            let quant = group
                .bounds
                .map(|col| Quantizer::for_max(col.iter().copied().fold(0.0f64, f64::max)));
            for (col, q) in group.bounds.iter().zip(&quant) {
                for &b in *col {
                    put_u16(&mut buf, q.quantize(b));
                }
            }
            put_ids_blockpacked(&mut buf, group.ids);
            meta.push(GroupMeta {
                len: u32::try_from(group.len()).expect("group length fits u32"),
                quant,
            });
            keys.push(key);
            offsets.push(buf.len());
        }
        CompressedArena {
            keys,
            offsets,
            meta,
            arena: buf.into_boxed_slice(),
            posting_count: index.posting_count(),
        }
    }

    /// Decompresses the whole index back to the uncompressed arena
    /// (bounds come back rounded up by at most one quantization step).
    pub fn decompress(&self) -> Arena<K, N> {
        let mut out = Arena::new();
        self.for_each_row(|key, id, bounds| out.push_row(key, id, bounds));
        out.finalize();
        out
    }
}

impl<K: Ord + Copy> CompressedArena<K, 1> {
    /// Decodes the object ids of the qualifying postings `I_c(key)`
    /// into `scratch` (cleared first) and returns them as a slice —
    /// the same id-slice contract as the uncompressed
    /// [`Arena::qualifying`], with an id-column decode standing in for
    /// the in-place column prefix.
    ///
    /// The cut runs over the compressed bound column in the quantized
    /// domain; only the qualifying prefix's ids are decoded (bounds
    /// are never dequantized — candidates need ids only), the
    /// exact-minimal `ceil(cut/128)`-block unpack. Once `scratch` has
    /// grown to the largest qualifying prefix it is only reused — the
    /// warm path performs **zero heap allocations**. Because quantized
    /// bounds only ever round up, the result is a superset of the
    /// uncompressed index's qualifying set (never missing an answer;
    /// each bound inflated by at most one quantization step).
    pub fn qualifying_into<'a>(&self, key: &K, c: f64, scratch: &'a mut Vec<ObjId>) -> &'a [ObjId] {
        self.probe(key, [c], scratch)
    }
}

impl<K: Ord + Copy> CompressedArena<K, 2> {
    /// Decodes the object ids of the postings qualifying under both
    /// thresholds, `I_{c_R, c_T}(key)`, into `scratch` (cleared
    /// first): a quantized-domain cut over the compressed spatial
    /// column, then a raw `u16` textual check per surviving posting.
    /// Warm calls allocate nothing once `scratch` has grown.
    pub fn qualifying_into<'a>(
        &self,
        key: &K,
        c_spatial: f64,
        c_textual: f64,
        scratch: &'a mut Vec<ObjId>,
    ) -> &'a [ObjId] {
        self.probe(key, [c_spatial, c_textual], scratch)
    }
}

/// Walks one serialized group, checking that the `columns` bound
/// columns fit, the quantized primary column is non-increasing (the
/// finalize order survived), and exactly `len` ids ≤ `u32::MAX` follow
/// (block widths in `1..=64`, per-block byte availability, and
/// overflow-checked delta reconstruction). Returns the group's byte
/// length. Used by the deserializer in [`crate::serialize`] so the
/// probe path can stay infallible.
pub(crate) fn validate_group(bytes: &[u8], len: usize, columns: usize) -> Option<usize> {
    let header = len.checked_mul(2 * columns)?;
    if bytes.len() < header {
        return None;
    }
    let primary = &bytes[..2 * len];
    for j in 1..len {
        if column_u16(primary, j) > column_u16(primary, j - 1) {
            return None;
        }
    }
    walk_blockpacked(bytes, header, len, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InvertedIndex;

    fn sample_index(n: u32, spread: f64) -> InvertedIndex<u64> {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        for key in 0u64..8 {
            for i in 0..n {
                let hashed = i.wrapping_mul(2_654_435_761).wrapping_mul(i | 1) ^ (key as u32);
                let bound = (f64::from(hashed % 10_000) / 10_000.0) * spread;
                idx.push(key, i * 3, bound);
            }
        }
        idx.finalize();
        idx
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let bytes = &buf[..];
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(bytes, &mut pos), Some(v));
        }
        assert_eq!(pos, bytes.len());
        assert_eq!(get_varint(&[], &mut 0), None, "empty buffer");
    }

    #[test]
    fn quantizer_rounds_up_within_one_step() {
        let q = Quantizer::for_max(1000.0);
        for b in [0.0, 0.013, 1.0, 499.9, 999.99, 1000.0] {
            let restored = q.dequantize(q.quantize(b));
            assert!(restored >= b, "{b} lowered to {restored}");
            assert!(restored - b <= 1000.0 / QUANT_STEPS + 1e-9);
        }
        // Saturation: at/above scale maps to the top step exactly.
        assert_eq!(q.quantize(1000.0), QUANT_STEPS as u16);
        assert_eq!(q.dequantize(QUANT_STEPS as u16), 1000.0);
    }

    #[test]
    fn quantizer_roundtrip_never_lands_below_the_bound() {
        // Regression: ceil in the b/scale domain can round-trip 1 ulp
        // *below* b (these exact values did), which would cut a posting
        // whose bound equals the query threshold out of the qualifying
        // prefix — a completeness violation, not just imprecision.
        let q = Quantizer::for_max(669_730.401_440_551_2);
        let b = 206_381.406_227_083_73;
        assert!(q.dequantize(q.quantize(b)) >= b);
        // And broadly, across awkward scale/bound pairs.
        for scale_bits in 1..2000u32 {
            let scale = f64::from(scale_bits) * 335.07 + 0.000_123;
            let quant = Quantizer::for_max(scale);
            for frac in [0.1, 0.30815, 0.5, 0.77777, 0.9999] {
                let bound = scale * frac;
                let restored = quant.dequantize(quant.quantize(bound));
                assert!(restored >= bound, "scale {scale} bound {bound}");
            }
        }
    }

    #[test]
    fn quantize_threshold_is_the_exact_minimal_step() {
        // The quantized-domain cut is correct iff quantize_threshold
        // returns the *smallest* q with dequantize(q) >= c — check
        // minimality and sufficiency across awkward scales.
        for scale_bits in 1..500u32 {
            let scale = f64::from(scale_bits) * 733.13 + 0.000_7;
            let quant = Quantizer::for_max(scale);
            for frac in [0.0, 1e-9, 0.1, 0.30815, 0.5, 0.77777, 0.9999, 1.0] {
                let c = scale * frac;
                let qc = quant.quantize_threshold(c).expect("c <= scale");
                assert!(quant.dequantize(qc) >= c, "insufficient step");
                if qc > 0 {
                    assert!(quant.dequantize(qc - 1) < c, "not minimal");
                }
            }
        }
        let quant = Quantizer::for_max(100.0);
        assert_eq!(quant.quantize_threshold(-5.0), Some(0));
        assert_eq!(quant.quantize_threshold(0.0), Some(0));
        assert_eq!(quant.quantize_threshold(100.0), Some(QUANT_STEPS as u16));
        assert_eq!(quant.quantize_threshold(100.1), None, "above scale");
        assert_eq!(quant.quantize_threshold(f64::NAN), None, "NaN threshold");
    }

    #[test]
    fn arena_is_single_and_contiguous() {
        let idx = sample_index(200, 50.0);
        let c = CompressedInvertedIndex::compress(&idx);
        assert_eq!(c.key_count(), idx.key_count());
        assert_eq!(c.posting_count(), idx.posting_count());
        assert_eq!(c.offsets.len(), c.keys.len() + 1);
        assert_eq!(*c.offsets.last().unwrap(), c.arena.len());
        assert!(c.offsets.windows(2).all(|w| w[0] < w[1]));
        // Keys sorted strictly ascending.
        assert!(c.keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn qualifying_matches_uncompressed_superset_within_a_step() {
        let idx = sample_index(300, 50.0);
        let c = CompressedInvertedIndex::compress(&idx);
        let mut scratch = Vec::new();
        for key in 0u64..8 {
            let step = 50.0 / QUANT_STEPS + 1e-9;
            for thr in [0.0, 1.0, 10.0, 25.0, 49.9] {
                let orig: std::collections::BTreeSet<ObjId> =
                    idx.qualifying(&key, thr).iter().copied().collect();
                let got: std::collections::BTreeSet<ObjId> = c
                    .qualifying_into(&key, thr, &mut scratch)
                    .iter()
                    .copied()
                    .collect();
                assert!(orig.is_subset(&got), "key {key} thr {thr}: lost postings");
                // Anything extra is within one quantization step of the
                // threshold.
                let relaxed: std::collections::BTreeSet<ObjId> =
                    idx.qualifying(&key, thr - step).iter().copied().collect();
                assert!(
                    got.is_subset(&relaxed),
                    "key {key} thr {thr}: over-admitted"
                );
            }
        }
    }

    #[test]
    fn absent_keys_probe_empty() {
        let idx = sample_index(150, 20.0);
        let c = CompressedInvertedIndex::compress(&idx);
        let mut scratch = Vec::new();
        assert!(c.qualifying_into(&999, 0.0, &mut scratch).is_empty());
        assert_eq!(c.qualifying_into(&0, 0.0, &mut scratch).len(), 150);
    }

    #[test]
    fn scratch_is_reused_without_reallocating() {
        let idx = sample_index(500, 10.0);
        let c = CompressedInvertedIndex::compress(&idx);
        let mut scratch = Vec::new();
        // Warm: decode the largest list once (threshold 0 ⇒ full list).
        let _ = c.qualifying_into(&0, 0.0, &mut scratch);
        let cap = scratch.capacity();
        assert!(cap >= 500);
        for key in 0u64..8 {
            for thr in [0.0, 2.0, 9.0] {
                let _ = c.qualifying_into(&key, thr, &mut scratch);
            }
        }
        assert_eq!(scratch.capacity(), cap, "warm probes must not reallocate");
    }

    #[test]
    fn decompress_roundtrip_preserves_ids_and_never_lowers_bounds() {
        let idx = sample_index(400, 1000.0);
        let back = CompressedInvertedIndex::compress(&idx).decompress();
        assert_eq!(back.posting_count(), idx.posting_count());
        assert_eq!(back.key_count(), idx.key_count());
        let step = 1000.0 / QUANT_STEPS + 1e-9;
        for (key, group) in idx.iter() {
            let mut orig: Vec<(ObjId, f64)> = group.rows().map(|(id, [b])| (id, b)).collect();
            orig.sort_unstable_by_key(|(id, _)| *id);
            let mut rest: Vec<(ObjId, f64)> = back
                .list(&key)
                .unwrap()
                .rows()
                .map(|(id, [b])| (id, b))
                .collect();
            rest.sort_unstable_by_key(|(id, _)| *id);
            for ((ia, ba), (ib, bb)) in orig.iter().zip(rest.iter()) {
                assert_eq!(ia, ib);
                assert!(bb + 1e-12 >= *ba, "bound lowered: {ba} -> {bb}");
                assert!(bb - ba <= step, "bound inflated by more than a step");
            }
        }
    }

    #[test]
    fn compression_shrinks_dense_lists() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        for key in 0u64..20 {
            for obj in 0..2_000u32 {
                idx.push(key, obj, f64::from(obj % 97));
            }
        }
        idx.finalize();
        let c = CompressedInvertedIndex::compress(&idx);
        assert!(
            c.size_bytes() * 2 < idx.size_bytes(),
            "compressed {} vs raw {}",
            c.size_bytes(),
            idx.size_bytes()
        );
    }

    #[test]
    fn empty_and_zero_bound_lists() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.finalize();
        let c = CompressedInvertedIndex::compress(&idx);
        assert_eq!(c.key_count(), 0);
        assert_eq!(c.posting_count(), 0);
        let mut scratch = Vec::new();
        assert!(c.qualifying_into(&1, 0.0, &mut scratch).is_empty());

        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(3, 5, 0.0);
        idx.push(3, 9, 0.0);
        idx.finalize();
        let c = CompressedInvertedIndex::compress(&idx);
        assert_eq!(c.qualifying_into(&3, 0.0, &mut scratch).len(), 2);
    }

    #[test]
    #[should_panic(expected = "requires finalize()")]
    fn staged_postings_refuse_to_compress() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 0, 1.0);
        let _ = CompressedInvertedIndex::compress(&idx);
    }

    #[test]
    fn validate_group_accepts_built_groups_and_rejects_corruption() {
        let idx = sample_index(200, 10.0);
        let c = CompressedInvertedIndex::compress(&idx);
        for i in 0..c.keys.len() {
            let bytes = &c.arena[c.offsets[i]..c.offsets[i + 1]];
            let len = c.meta[i].len as usize;
            assert_eq!(validate_group(bytes, len, 1), Some(bytes.len()));
            // A truncated group fails.
            assert_eq!(validate_group(&bytes[..bytes.len() - 1], len, 1), None);
        }
        // An out-of-order bound column fails.
        let bad = [0u8, 0, 255, 255, 1, 1]; // q0=0 < q1=65535, two ids
        assert_eq!(validate_group(&bad, 2, 1), None);
    }

    #[test]
    fn zigzag_roundtrips_all_signs() {
        for d in [
            0i64,
            1,
            -1,
            63,
            -64,
            1 << 20,
            -(1 << 20),
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(unzigzag(zigzag(d)), d, "delta {d}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn blockpacked_roundtrips_exact_multiples_and_tails() {
        // Lengths straddling every block-boundary shape: tail-only,
        // exactly one block, block + 1, multiple blocks + tail.
        for n in [1usize, 2, 127, 128, 129, 255, 256, 257, 300] {
            let ids: Vec<ObjId> = (0..n).map(|i| (i as u32).wrapping_mul(7) % 4096).collect();
            let mut buf = Vec::new();
            put_ids_blockpacked(&mut buf, &ids);
            let mut out = Vec::new();
            let end = walk_blockpacked(&buf, 0, n, Some(&mut out));
            assert_eq!(end, Some(buf.len()), "len {n}: column length");
            assert_eq!(out, ids, "len {n}: ids");
            // The exact-minimal decoder agrees at every cut.
            for cut in [0, 1, n / 2, n.saturating_sub(1), n] {
                let mut scratch = Vec::new();
                decode_blockpacked_into(&buf, n, cut, &mut scratch);
                assert_eq!(scratch, ids[..cut], "len {n} cut {cut}");
            }
        }
    }

    #[test]
    fn blockpacked_rejects_bad_widths_and_boundary_truncation() {
        // 256 sorted ids -> two full blocks, no tail. First byte of the
        // id column is a block width.
        let ids: Vec<ObjId> = (0..256u32).map(|i| i * 3).collect();
        let mut good = Vec::new();
        put_ids_blockpacked(&mut good, &ids);
        assert_eq!(walk_blockpacked(&good, 0, 256, None), Some(good.len()));
        for bad_width in [0u8, 65, 255] {
            let mut corrupt = good.clone();
            corrupt[0] = bad_width;
            assert_eq!(
                walk_blockpacked(&corrupt, 0, 256, None),
                None,
                "width {bad_width} must be rejected"
            );
        }
        // Truncation at every byte boundary fails, never panics.
        for cut in 0..good.len() {
            assert_eq!(
                walk_blockpacked(&good[..cut], 0, 256, None),
                None,
                "truncated at {cut}"
            );
        }
    }

    #[test]
    fn blockpacked_rejects_id_overflow_from_hostile_deltas() {
        // A tail block whose second delta pushes the id above u32::MAX
        // must fail the checked reconstruction.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::from(u32::MAX)); // first id: max
        put_varint(&mut buf, zigzag(1)); // +1 overflows the id domain
        assert_eq!(walk_blockpacked(&buf, 0, 2, None), None);
    }
}

#[cfg(test)]
mod dual_tests {
    use super::*;
    use crate::HybridIndex;

    fn key(token: u64, cell: u64) -> u128 {
        (u128::from(token) << 64) | u128::from(cell)
    }

    fn sample_hybrid(n: u32) -> HybridIndex<u128> {
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        for t in 0u64..4 {
            for g in 0u64..4 {
                for i in 0..n {
                    let h = i.wrapping_mul(2_654_435_761) ^ (t as u32) ^ ((g as u32) << 8);
                    let sb = f64::from(h % 5_000);
                    let tb = f64::from((h >> 8) % 200) / 100.0;
                    idx.push(key(t, g), i, sb, tb);
                }
            }
        }
        idx.finalize();
        idx
    }

    #[test]
    fn dual_qualifying_is_a_superset_of_uncompressed() {
        let idx = sample_hybrid(120);
        let c = CompressedHybridIndex::compress(&idx);
        assert_eq!(c.key_count(), idx.key_count());
        assert_eq!(c.posting_count(), idx.posting_count());
        let mut scratch = Vec::new();
        for t in 0u64..4 {
            for g in 0u64..4 {
                let k = key(t, g);
                for (cr, ct) in [(0.0, 0.0), (1000.0, 0.5), (4000.0, 1.5), (6000.0, 0.1)] {
                    let orig: std::collections::BTreeSet<ObjId> =
                        idx.qualifying(&k, cr, ct).collect();
                    let got: std::collections::BTreeSet<ObjId> = c
                        .qualifying_into(&k, cr, ct, &mut scratch)
                        .iter()
                        .copied()
                        .collect();
                    assert!(
                        orig.is_subset(&got),
                        "key ({t},{g}) thresholds ({cr},{ct}): lost postings"
                    );
                }
            }
        }
    }

    #[test]
    fn dual_figure9_example_survives_compression() {
        // Figure 9's lists: compression may only widen the candidate
        // sets, and here the quantization error is far below the
        // threshold gaps, so the sets are identical.
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        idx.push(key(1, 10), 0, 2400.0, 1.1);
        idx.push(key(1, 10), 1, 1525.0, 1.9);
        idx.push(key(1, 14), 0, 900.0, 1.7);
        idx.push(key(1, 14), 1, 550.0, 1.9);
        idx.finalize();
        let c = CompressedHybridIndex::compress(&idx);
        let mut scratch = Vec::new();
        assert_eq!(
            c.qualifying_into(&key(1, 14), 600.0, 0.57, &mut scratch),
            &[0]
        );
        assert_eq!(
            c.qualifying_into(&key(1, 10), 600.0, 0.57, &mut scratch),
            &[0, 1]
        );
    }

    #[test]
    fn dual_decompress_roundtrip() {
        let idx = sample_hybrid(60);
        let back = CompressedHybridIndex::compress(&idx).decompress();
        assert_eq!(back.posting_count(), idx.posting_count());
        for t in 0u64..4 {
            let k = key(t, 0);
            let orig: Vec<ObjId> = idx.qualifying(&k, 0.0, 0.0).collect();
            let rest: Vec<ObjId> = back.qualifying(&k, 0.0, 0.0).collect();
            assert_eq!(orig, rest, "full-list order must survive");
        }
    }

    #[test]
    fn dual_compression_shrinks() {
        let idx = sample_hybrid(500);
        let c = CompressedHybridIndex::compress(&idx);
        assert!(
            c.size_bytes() * 2 < idx.size_bytes(),
            "compressed {} vs raw {}",
            c.size_bytes(),
            idx.size_bytes()
        );
    }

    #[test]
    fn dual_textual_threshold_above_scale_prunes_everything() {
        let idx = sample_hybrid(40);
        let c = CompressedHybridIndex::compress(&idx);
        let mut scratch = Vec::new();
        // Textual bounds max out below 2.0 in the sample; a threshold
        // far above every scale must lift to None and return nothing.
        assert!(c
            .qualifying_into(&key(0, 0), 0.0, 1e9, &mut scratch)
            .is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::InvertedIndex;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip_superset_property(
            entries in proptest::collection::vec(
                (0u64..16, 0u32..1_000_000, 0.0f64..1e6), 0..300),
            c in 0.0f64..1e6,
        ) {
            let mut idx: InvertedIndex<u64> = InvertedIndex::new();
            let mut seen = std::collections::HashSet::new();
            for (k, id, b) in entries {
                if seen.insert((k, id)) {
                    idx.push(k, id, b);
                }
            }
            idx.finalize();
            let compressed = CompressedInvertedIndex::compress(&idx);
            let mut scratch = Vec::new();
            for key in 0u64..16 {
                let orig: std::collections::BTreeSet<ObjId> =
                    idx.qualifying(&key, c).iter().copied().collect();
                let got: std::collections::BTreeSet<ObjId> = compressed
                    .qualifying_into(&key, c, &mut scratch)
                    .iter()
                    .copied()
                    .collect();
                prop_assert!(orig.is_subset(&got));
            }
        }

        #[test]
        fn blockpacked_column_roundtrips_arbitrary_ids(
            ids in proptest::collection::vec(0u32..=u32::MAX, 0..400),
        ) {
            // The block codec never requires sorted input — zigzag
            // deltas cover any id sequence bit-exactly.
            let mut buf = Vec::new();
            put_ids_blockpacked(&mut buf, &ids);
            let mut out = Vec::new();
            let end = walk_blockpacked(&buf, 0, ids.len(), Some(&mut out));
            prop_assert_eq!(end, Some(buf.len()));
            prop_assert_eq!(out, ids);
        }

        #[test]
        fn quantized_cut_equals_dequantized_reference(
            bounds in proptest::collection::vec(0.0f64..1e5, 1..300),
            frac in 0.0f64..1.2,
        ) {
            // The quantized-domain cut must agree bit-for-bit with the
            // reference comparison `dequantize(entry) >= c`.
            let mut idx: InvertedIndex<u64> = InvertedIndex::new();
            for (i, b) in bounds.iter().enumerate() {
                idx.push(1, i as u32, *b);
            }
            idx.finalize();
            let compressed = CompressedInvertedIndex::compress(&idx);
            let m = compressed.meta[0];
            let len = m.len as usize;
            let col = &compressed.arena[..2 * len];
            let c = m.quant[0].scale() * frac;
            let reference = (0..len)
                .take_while(|&j| m.quant[0].dequantize(column_u16(col, j)) >= c)
                .count();
            let mut scratch = Vec::new();
            prop_assert_eq!(compressed.qualifying_into(&1, c, &mut scratch).len(), reference);
        }
    }
}
