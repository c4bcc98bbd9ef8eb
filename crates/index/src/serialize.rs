//! Compact binary serialization of the inverted indexes.
//!
//! The paper's indexes are disk-resident; this codec provides the byte
//! layout a disk deployment would use (and lets the benchmarks persist
//! built indexes between runs). Layout, little-endian:
//!
//! ```text
//! magic:u32  version:u8  kind:u8  key_count:u64
//! kind 5 (SoA single) / 6 (SoA dual):
//!   posting_count:u64
//!   directory, repeat key_count times:  key:u128  len:u64
//!   id column:      object:u32  ×posting_count
//!   bound column:   bound:f64   ×posting_count
//!   [kind 6 has two bound columns: spatial ×n, then textual ×n]
//! kind 7 (compressed single) / 8 (compressed dual):
//!   arena_len:u64
//!   repeat key_count times:
//!     key:u128  len:u32  scale:f64 [t_scale:f64]
//!   arena bytes (the in-memory compressed arena, verbatim — see
//!   crate::compress for the group layout; byte offsets are rebuilt
//!   by the validation walk at load time)
//! ```
//!
//! Every kind persists the serving form **as-is** and is written and
//! read by one routine per storage form, generic over the number `N`
//! of bound columns (kinds 5/7 are `N = 1`, 6/8 are `N = 2`); a
//! [`Postings`] reads whichever of its two kinds the payload's own
//! kind byte names. The SoA kinds dump whole
//! columns in group order (the arena's column layout), and loading
//! rebuilds the frozen arena directly — no per-posting re-push, no
//! re-sort — after a full validation walk (keys strictly ascending,
//! offsets consistent, bounds NaN-free and in finalize order). The
//! compressed kinds are a directory dump plus one arena memcpy, and
//! decoding revalidates every group (bound columns in order, id
//! columns well-formed and `u32`-sized: block widths in `1..=64`,
//! overflow-checked delta reconstruction). Either way the probe path
//! stays infallible. A payload must be consumed exactly: trailing
//! bytes are corruption, not padding. Any other kind byte — including
//! 1–4, which earlier revisions wrote — is [`IndexCodecError::BadKind`].

use crate::arena::Columns;
use crate::compress::{validate_group, CompressedArena, GroupMeta, Quantizer};
use crate::container::{put_f64, put_u128, put_u32, put_u64, ReadError, Reader};
use crate::{Arena, ObjId, Postings};
use std::fmt;
use std::hash::Hash;

const MAGIC: u32 = 0x5EA1_1D8E;
const VERSION: u8 = 1;

/// The kind byte of an SoA arena with `N` bound columns (5, 6).
const fn soa_kind<const N: usize>() -> u8 {
    match N {
        1 => 5,
        2 => 6,
        _ => panic!("the codec has kinds for one and two bound columns only"),
    }
}

/// The kind byte of a compressed arena with `N` bound columns (7, 8).
const fn packed_kind<const N: usize>() -> u8 {
    soa_kind::<N>() + 2
}

/// Errors produced when decoding serialized indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexCodecError {
    /// The magic number did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Not the kind this index type reads (single- vs dual-bound,
    /// arena vs compressed, or a kind byte no index type reads).
    BadKind(u8),
    /// The buffer ended before the declared contents.
    Truncated,
    /// A payload failed validation (out-of-order bound column, NaN
    /// bound, inconsistent counts, malformed or oversized varint,
    /// misaligned group, trailing bytes). Carries where and what so a
    /// CLI failure is a diagnosable one-liner.
    Corrupt {
        /// Which part of the payload failed (directory, columns,
        /// arena, …).
        section: &'static str,
        /// Byte offset *within that section* of the offending datum.
        offset: usize,
        /// Expected-vs-found detail.
        detail: String,
    },
}

/// Shorthand constructor for [`IndexCodecError::Corrupt`].
fn corrupt(section: &'static str, offset: usize, detail: impl Into<String>) -> IndexCodecError {
    IndexCodecError::Corrupt {
        section,
        offset,
        detail: detail.into(),
    }
}

impl fmt::Display for IndexCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexCodecError::BadMagic => write!(f, "bad magic number"),
            IndexCodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            IndexCodecError::BadKind(k) => write!(f, "unexpected index kind {k}"),
            IndexCodecError::Truncated => write!(f, "buffer truncated"),
            IndexCodecError::Corrupt {
                section,
                offset,
                detail,
            } => {
                write!(f, "payload corrupt: {section} at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for IndexCodecError {}

/// A shortfall is [`IndexCodecError::Truncated`]; trailing bytes are
/// corruption of the part they follow.
impl From<ReadError> for IndexCodecError {
    fn from(e: ReadError) -> Self {
        if e.trailing {
            corrupt(e.section, e.offset, e.detail)
        } else {
            IndexCodecError::Truncated
        }
    }
}

/// Keys that can round-trip through the codec's `u128` slot.
pub trait IndexKey: Eq + Hash + Ord + Copy + Sync {
    /// Widens the key to 128 bits.
    fn to_u128(self) -> u128;
    /// Narrows a 128-bit value back to the key type; `None` when the
    /// value does not fit (only untrusted bytes can produce one —
    /// writers widen real keys).
    fn from_u128(v: u128) -> Option<Self>;
}

impl IndexKey for u32 {
    fn to_u128(self) -> u128 {
        u128::from(self)
    }
    fn from_u128(v: u128) -> Option<Self> {
        u32::try_from(v).ok()
    }
}

impl IndexKey for u64 {
    fn to_u128(self) -> u128 {
        u128::from(self)
    }
    fn from_u128(v: u128) -> Option<Self> {
        u64::try_from(v).ok()
    }
}

impl IndexKey for u128 {
    fn to_u128(self) -> u128 {
        self
    }
    fn from_u128(v: u128) -> Option<Self> {
        Some(v)
    }
}

fn put_header(buf: &mut Vec<u8>, kind: u8, key_count: usize) {
    put_u32(buf, MAGIC);
    buf.push(VERSION);
    buf.push(kind);
    put_u64(buf, key_count as u64);
}

/// Reads and validates the shared header, returning the payload's kind
/// byte — the caller's to check against the kinds it reads — and the
/// key count.
fn read_header(r: &mut Reader<'_>) -> Result<(u8, usize), IndexCodecError> {
    let (magic, version, kind, key_count) = (r.u32()?, r.u8()?, r.u8()?, r.u64()?);
    if magic != MAGIC {
        return Err(IndexCodecError::BadMagic);
    }
    if version != VERSION {
        return Err(IndexCodecError::BadVersion(version));
    }
    let key_count = usize::try_from(key_count).map_err(|_| IndexCodecError::Truncated)?;
    Ok((kind, key_count))
}

/// [`read_header`] for a type that reads only `kind`.
fn read_header_of(r: &mut Reader<'_>, kind: u8) -> Result<usize, IndexCodecError> {
    match read_header(r)? {
        (found, key_count) if found == kind => Ok(key_count),
        (found, _) => Err(IndexCodecError::BadKind(found)),
    }
}

/// Reads one directory key (entry starts at byte `at` of `section`),
/// rejecting a value wider than the index's key type: narrowing it
/// would silently alias another key.
fn read_key<K: IndexKey>(
    r: &mut Reader<'_>,
    section: &'static str,
    at: usize,
) -> Result<K, IndexCodecError> {
    let raw = r.u128()?;
    K::from_u128(raw).ok_or_else(|| {
        corrupt(
            section,
            at,
            format!("key {raw} does not fit the index's key type"),
        )
    })
}

/// The sorted-key invariant every probe's binary search depends on;
/// directory entries are `entry_bytes` long.
fn check_ascending<K: Ord>(
    keys: &[K],
    section: &'static str,
    entry_bytes: usize,
) -> Result<(), IndexCodecError> {
    match keys.windows(2).position(|w| w[0] >= w[1]) {
        Some(i) => Err(corrupt(
            section,
            (i + 1) * entry_bytes,
            "keys not strictly ascending",
        )),
        None => Ok(()),
    }
}

/// Reads the SoA directory: keys + per-group lens, returning `(keys,
/// offsets)` with every count overflow-checked (a corrupt header must
/// error, not abort on a huge allocation) and the strictly-ascending
/// key invariant verified.
fn read_soa_directory<K: IndexKey>(
    r: &mut Reader<'_>,
    key_count: usize,
    posting_count: usize,
) -> Result<(Vec<K>, Vec<usize>), IndexCodecError> {
    const SECTION: &str = "soa directory";
    const ENTRY: usize = 16 + 8;
    let key_count = r.count(key_count as u64, ENTRY)?;
    let mut keys = Vec::with_capacity(key_count);
    let mut offsets = Vec::with_capacity(key_count + 1);
    offsets.push(0usize);
    let mut total = 0usize;
    for i in 0..key_count {
        keys.push(read_key(r, SECTION, i * ENTRY)?);
        let raw_len = r.u64()?;
        let len = usize::try_from(raw_len).map_err(|_| {
            corrupt(
                SECTION,
                i * ENTRY + 16,
                format!("group length {raw_len} exceeds the address space"),
            )
        })?;
        total = total
            .checked_add(len)
            .ok_or_else(|| corrupt(SECTION, i * ENTRY + 16, "summed group lengths overflow"))?;
        offsets.push(total);
    }
    check_ascending(&keys, SECTION, ENTRY)?;
    if total != posting_count {
        return Err(corrupt(
            SECTION,
            0,
            format!("directory lengths sum to {total}, header declares {posting_count} postings"),
        ));
    }
    Ok((keys, offsets))
}

/// Validates one loaded group against the finalize order the probe
/// path depends on: the primary bound column (`bounds[0]`)
/// non-increasing under `total_cmp`, ties in ascending-id order, no
/// NaN anywhere in any bound column.
fn validate_soa_group<const N: usize>(
    ids: &[ObjId],
    bounds: &[Vec<f64>; N],
    span: std::ops::Range<usize>,
) -> Result<(), IndexCodecError> {
    let primary = &bounds[0];
    for j in span.clone() {
        if bounds.iter().any(|col| col[j].is_nan()) {
            return Err(corrupt("posting columns", j, "NaN bound"));
        }
        if j > span.start {
            match primary[j - 1].total_cmp(&primary[j]) {
                std::cmp::Ordering::Less => {
                    return Err(corrupt(
                        "posting columns",
                        j,
                        format!(
                            "bound column increases: {} then {}",
                            primary[j - 1],
                            primary[j]
                        ),
                    ))
                }
                std::cmp::Ordering::Equal if ids[j - 1] > ids[j] => {
                    return Err(corrupt(
                        "posting columns",
                        j,
                        format!("tie order violated: id {} before {}", ids[j - 1], ids[j]),
                    ))
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Decodes the body of an SoA payload (everything after the shared
/// header) straight into a frozen arena after validating every
/// invariant the probe path relies on.
fn decode_soa<K: IndexKey, const N: usize>(
    mut r: Reader<'_>,
    key_count: usize,
) -> Result<Arena<K, N>, IndexCodecError> {
    let posting_count = usize::try_from(r.u64()?)
        .map_err(|_| corrupt("header", 0, "posting count exceeds the address space"))?;
    let (keys, offsets) = read_soa_directory::<K>(&mut r, key_count, posting_count)?;
    r.enter("posting columns");
    let posting_count = r.count(posting_count as u64, 4 + 8 * N)?;
    let ids = r.column(posting_count, u32::from_le_bytes)?;
    let mut bounds: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    for col in &mut bounds {
        *col = r.column(posting_count, f64::from_le_bytes)?;
    }
    r.done()?;
    for w in offsets.windows(2) {
        validate_soa_group(&ids, &bounds, w[0]..w[1])?;
    }
    Ok(Arena::from_frozen(keys, offsets, Columns { ids, bounds }))
}

impl<K: IndexKey, const N: usize> Arena<K, N> {
    /// Serializes the arena in the SoA column format (kind 5 for one
    /// bound, 6 for two): the directory, then the id column, then each
    /// bound column — the arena's own layout, so loading is a
    /// validation walk plus bulk column reads rather than a re-sort.
    ///
    /// # Panics
    /// If postings have been pushed since the last
    /// [`finalize`](Arena::finalize): only the frozen columns are
    /// serialized, so encoding a half-staged index would silently drop
    /// data.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(
            self.is_finalized(),
            "to_bytes requires finalize() after the last push"
        );
        let columns = self.columns();
        let rows = columns.ids.len();
        let mut buf = Vec::with_capacity(64 + self.key_count() * 24 + rows * (4 + 8 * N));
        put_header(&mut buf, soa_kind::<N>(), self.key_count());
        put_u64(&mut buf, rows as u64);
        for (key, group) in self.iter() {
            put_u128(&mut buf, key.to_u128());
            put_u64(&mut buf, group.len() as u64);
        }
        // Groups are contiguous in key order, so each column is
        // emitted exactly as it sits in memory.
        for &id in &columns.ids {
            put_u32(&mut buf, id);
        }
        for col in &columns.bounds {
            for &b in col {
                put_f64(&mut buf, b);
            }
        }
        buf
    }

    /// Decodes an SoA payload of this arena's kind; the result is
    /// finalized and ready to query.
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Result<Self, IndexCodecError> {
        let mut r = Reader::new(bytes.as_ref(), "header");
        let key_count = read_header_of(&mut r, soa_kind::<N>())?;
        decode_soa(r, key_count)
    }
}

/// Untrusted-input decode of a compressed arena's body (everything
/// after the shared header): overflow-checked directory sizing (a
/// corrupt count must fail, not abort on a huge allocation), per-key
/// meta parse, sorted-key check, arena copy, and the full validation
/// walk that rebuilds the byte offsets so the probe path stays
/// infallible.
fn decode_packed<K: IndexKey, const N: usize>(
    mut r: Reader<'_>,
    key_count: usize,
) -> Result<CompressedArena<K, N>, IndexCodecError> {
    const SECTION: &str = "compressed directory";
    let entry = 16 + 4 + 8 * N;
    let arena_len = usize::try_from(r.u64()?).map_err(|_| IndexCodecError::Truncated)?;
    let key_count = r.count(key_count as u64, entry)?;
    let mut keys = Vec::with_capacity(key_count);
    let mut meta = Vec::with_capacity(key_count);
    for i in 0..key_count {
        keys.push(read_key(&mut r, SECTION, i * entry)?);
        let len = r.u32()?;
        let mut scales = [0.0; N];
        for scale in &mut scales {
            *scale = r.f64()?;
        }
        if let Some(scale) = scales.iter().find(|s| !s.is_finite() || **s <= 0.0) {
            return Err(corrupt(
                "group meta",
                0,
                format!("quantizer scale {scale} is not finite and positive"),
            ));
        }
        meta.push(GroupMeta {
            len,
            quant: scales.map(Quantizer::for_max),
        });
    }
    check_ascending(&keys, SECTION, entry)?;
    r.enter("compressed arena");
    let arena = r.take(arena_len)?;
    r.done()?;
    let mut offsets = Vec::with_capacity(key_count + 1);
    offsets.push(0usize);
    let mut pos = 0usize;
    let mut posting_count = 0usize;
    for m in &meta {
        let len = usize::try_from(m.len).map_err(|_| IndexCodecError::Truncated)?;
        pos += validate_group(&arena[pos..], len, N).ok_or_else(|| {
            corrupt(
                "compressed arena",
                pos,
                "group failed validation (bound order, id-column form, or size)",
            )
        })?;
        offsets.push(pos);
        posting_count += len;
    }
    if pos != arena.len() {
        return Err(corrupt(
            "compressed arena",
            pos,
            format!(
                "groups end at byte {pos}, arena declares {} bytes",
                arena.len()
            ),
        ));
    }
    Ok(CompressedArena {
        keys,
        offsets,
        meta,
        arena: arena.into(),
        posting_count,
    })
}

impl<K: IndexKey, const N: usize> CompressedArena<K, N> {
    /// Serializes the compressed index (kind 7 for one bound column, 8
    /// for two): the directory, then the arena verbatim. This *is* the
    /// at-rest form — nothing is re-encoded.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.keys.len() * (20 + 8 * N) + self.arena.len());
        put_header(&mut buf, packed_kind::<N>(), self.keys.len());
        put_u64(&mut buf, self.arena.len() as u64);
        for (key, m) in self.keys.iter().zip(&self.meta) {
            put_u128(&mut buf, key.to_u128());
            put_u32(&mut buf, m.len);
            for q in m.quant {
                put_f64(&mut buf, q.scale());
            }
        }
        buf.extend_from_slice(&self.arena);
        buf
    }

    /// Decodes a payload of this arena's kind and validates the whole
    /// arena (keys sorted, bound columns non-increasing, id columns
    /// well-formed), so the returned index can serve probes infallibly.
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Result<Self, IndexCodecError> {
        let mut r = Reader::new(bytes.as_ref(), "header");
        let key_count = read_header_of(&mut r, packed_kind::<N>())?;
        decode_packed(r, key_count)
    }
}

impl<K: IndexKey, const N: usize> Postings<K, N> {
    /// Serializes the storage form in use (see [`Arena::to_bytes`] and
    /// [`CompressedArena::to_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Postings::Arena(a) => a.to_bytes(),
            Postings::Compressed(p) => p.to_bytes(),
        }
    }

    /// Decodes whichever storage form the payload's kind byte names —
    /// the SoA or the compressed kind **for `N` bound columns**; every
    /// other kind is [`IndexCodecError::BadKind`]. A caller that
    /// expects one particular form checks
    /// [`storage`](Postings::storage) on the result.
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Result<Self, IndexCodecError> {
        let mut r = Reader::new(bytes.as_ref(), "header");
        let (kind, key_count) = read_header(&mut r)?;
        if kind == soa_kind::<N>() {
            decode_soa(r, key_count).map(Postings::Arena)
        } else if kind == packed_kind::<N>() {
            decode_packed(r, key_count).map(Postings::Compressed)
        } else {
            Err(IndexCodecError::BadKind(kind))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CompressedHybridIndex, CompressedInvertedIndex, HybridIndex, InvertedIndex, Storage,
    };

    #[test]
    fn single_roundtrip() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(7, 0, 3.5);
        idx.push(7, 1, 1.25);
        idx.push(42, 2, 9.0);
        idx.finalize();
        let bytes = idx.to_bytes();
        let back: InvertedIndex<u64> = InvertedIndex::from_bytes(bytes).unwrap();
        assert_eq!(back.key_count(), 2);
        assert_eq!(back.posting_count(), 3);
        assert_eq!(back.qualifying(&7, 2.0).len(), 1);
        assert_eq!(back.qualifying(&7, 0.0).len(), 2);
        assert_eq!(back.qualifying(&42, 9.0), &[2]);
        assert!(back.is_finalized());
    }

    #[test]
    fn dual_roundtrip() {
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        idx.push(1u128 << 70, 0, 900.0, 1.7);
        idx.push(1u128 << 70, 1, 550.0, 1.9);
        idx.finalize();
        let back: HybridIndex<u128> = HybridIndex::from_bytes(idx.to_bytes()).unwrap();
        let got: Vec<u32> = back.qualifying(&(1u128 << 70), 600.0, 0.5).collect();
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn refinalized_index_roundtrips() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(7, 0, 3.5);
        idx.finalize();
        idx.push(7, 1, 9.0);
        idx.push(8, 2, 1.0);
        idx.finalize();
        let back: InvertedIndex<u64> = InvertedIndex::from_bytes(idx.to_bytes()).unwrap();
        assert_eq!(back.key_count(), 2);
        assert_eq!(back.posting_count(), 3);
        assert_eq!(back.qualifying(&7, 4.0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "requires finalize()")]
    fn staged_postings_refuse_to_serialize() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 0, 1.0);
        idx.finalize();
        idx.push(2, 1, 1.0); // staged, not finalized
        let _ = idx.to_bytes();
    }

    #[test]
    fn rejects_garbage() {
        let garbage = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14];
        assert_eq!(
            InvertedIndex::<u64>::from_bytes(garbage).unwrap_err(),
            IndexCodecError::BadMagic
        );
    }

    #[test]
    fn rejects_wrong_kind() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 0, 1.0);
        idx.finalize();
        assert_eq!(
            HybridIndex::<u64>::from_bytes(idx.to_bytes()).unwrap_err(),
            IndexCodecError::BadKind(soa_kind::<1>())
        );
    }

    #[test]
    fn rejects_truncated() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        for i in 0..10 {
            idx.push(1, i, f64::from(i));
        }
        idx.finalize();
        let bytes = idx.to_bytes();
        let cut = &bytes.as_slice()[..bytes.as_slice().len() - 5];
        assert_eq!(
            InvertedIndex::<u64>::from_bytes(cut).unwrap_err(),
            IndexCodecError::Truncated
        );
    }

    #[test]
    fn soa_rejects_out_of_order_and_nan_bounds() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 0, 5.0);
        idx.push(1, 1, 3.0);
        idx.finalize();
        let bytes = idx.to_bytes();
        // Bound column starts after header(14) + posting_count(8) +
        // directory(24) + id column(2×4). Swap the two bounds so the
        // column increases.
        let col_at = 14 + 8 + 24 + 8;
        let mut raw = bytes.as_slice().to_vec();
        let (a, b) = (col_at, col_at + 8);
        for i in 0..8 {
            raw.swap(a + i, b + i);
        }
        assert!(
            matches!(
                InvertedIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
                IndexCodecError::Corrupt { .. }
            ),
            "increasing bound column must be rejected"
        );
        // NaN bound in an otherwise ordered column.
        let mut raw = bytes.as_slice().to_vec();
        raw[col_at..col_at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(
            matches!(
                InvertedIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
                IndexCodecError::Corrupt { .. }
            ),
            "NaN bound must be rejected"
        );
    }

    #[test]
    fn soa_rejects_tie_order_violation() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 0, 5.0);
        idx.push(1, 1, 5.0);
        idx.finalize();
        let bytes = idx.to_bytes();
        // Equal bounds: ids must be ascending. Swap the two u32 ids.
        let ids_at = 14 + 8 + 24;
        let mut raw = bytes.as_slice().to_vec();
        let (a, b) = (ids_at, ids_at + 4);
        for i in 0..4 {
            raw.swap(a + i, b + i);
        }
        assert!(matches!(
            InvertedIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
            IndexCodecError::Corrupt { .. }
        ));
    }

    #[test]
    fn soa_rejects_inconsistent_counts_without_allocating() {
        // A huge declared key/posting count must error out before any
        // allocation sized from it.
        let mut raw = Vec::new();
        put_u32(&mut raw, MAGIC);
        raw.push(VERSION);
        raw.push(soa_kind::<1>());
        put_u64(&mut raw, 1u64 << 60); // key_count
        put_u64(&mut raw, 0); // posting_count
        assert_eq!(
            InvertedIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
            IndexCodecError::Truncated
        );
        // Directory says 2 postings, header says 1.
        let mut raw = Vec::new();
        put_u32(&mut raw, MAGIC);
        raw.push(VERSION);
        raw.push(soa_kind::<1>());
        put_u64(&mut raw, 1);
        put_u64(&mut raw, 1);
        put_u128(&mut raw, 9);
        put_u64(&mut raw, 2);
        put_u32(&mut raw, 0);
        put_u32(&mut raw, 1);
        put_f64(&mut raw, 1.0);
        put_f64(&mut raw, 0.5);
        assert!(matches!(
            InvertedIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
            IndexCodecError::Corrupt { .. }
        ));
    }

    #[test]
    fn empty_index_roundtrip() {
        let mut idx: InvertedIndex<u32> = InvertedIndex::new();
        idx.finalize();
        let back: InvertedIndex<u32> = InvertedIndex::from_bytes(idx.to_bytes()).unwrap();
        assert_eq!(back.key_count(), 0);
    }

    #[test]
    fn error_display() {
        assert!(IndexCodecError::BadMagic.to_string().contains("magic"));
        assert!(IndexCodecError::Truncated.to_string().contains("truncated"));
        assert!(IndexCodecError::BadVersion(9).to_string().contains('9'));
        assert!(IndexCodecError::BadKind(3).to_string().contains('3'));
        let c = corrupt("posting columns", 17, "NaN bound");
        let msg = c.to_string();
        assert!(msg.contains("corrupt"), "{msg}");
        assert!(
            msg.contains("posting columns") && msg.contains("17") && msg.contains("NaN"),
            "structured detail must surface in Display: {msg}"
        );
    }

    fn sample_compressed() -> CompressedInvertedIndex<u64> {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        for key in 0u64..10 {
            for obj in 0..(20 + key as u32 * 7) {
                idx.push(key, obj * 3, f64::from(obj % 13) * 1.5);
            }
        }
        idx.finalize();
        CompressedInvertedIndex::compress(&idx)
    }

    #[test]
    fn compressed_single_roundtrip_serves_identically() {
        let c = sample_compressed();
        let bytes = c.to_bytes();
        let back: CompressedInvertedIndex<u64> =
            CompressedInvertedIndex::from_bytes(bytes).unwrap();
        assert_eq!(back.key_count(), c.key_count());
        assert_eq!(back.posting_count(), c.posting_count());
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        for key in 0u64..10 {
            for thr in [0.0, 3.0, 9.0, 100.0] {
                assert_eq!(
                    c.qualifying_into(&key, thr, &mut s1),
                    back.qualifying_into(&key, thr, &mut s2),
                    "key {key} thr {thr}"
                );
            }
        }
    }

    #[test]
    fn compressed_dual_roundtrip_serves_identically() {
        let mut idx: HybridIndex<u128> = HybridIndex::new();
        for k in 0u128..6 {
            for obj in 0..40u32 {
                idx.push(
                    k << 64,
                    obj,
                    f64::from(obj % 11) * 100.0,
                    f64::from(obj % 7) / 3.0,
                );
            }
        }
        idx.finalize();
        let c = CompressedHybridIndex::compress(&idx);
        let back: CompressedHybridIndex<u128> =
            CompressedHybridIndex::from_bytes(c.to_bytes()).unwrap();
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        for k in 0u128..6 {
            for (cr, ct) in [(0.0, 0.0), (500.0, 1.0), (1001.0, 0.5)] {
                assert_eq!(
                    c.qualifying_into(&(k << 64), cr, ct, &mut s1),
                    back.qualifying_into(&(k << 64), cr, ct, &mut s2),
                );
            }
        }
    }

    #[test]
    fn compressed_rejects_wrong_kind_and_truncation() {
        let c = sample_compressed();
        let bytes = c.to_bytes();
        assert_eq!(bytes.as_slice()[5], packed_kind::<1>());
        assert_eq!(
            InvertedIndex::<u64>::from_bytes(bytes.clone()).unwrap_err(),
            IndexCodecError::BadKind(packed_kind::<1>())
        );
        assert_eq!(
            CompressedHybridIndex::<u64>::from_bytes(bytes.clone()).unwrap_err(),
            IndexCodecError::BadKind(packed_kind::<1>())
        );
        let cut = &bytes.as_slice()[..bytes.as_slice().len() - 3];
        assert_eq!(
            CompressedInvertedIndex::<u64>::from_bytes(cut).unwrap_err(),
            IndexCodecError::Truncated
        );
    }

    #[test]
    fn packed_kind_rejects_bad_block_width_behind_valid_header() {
        // Corrupt the first block's width byte in a kind-7 payload:
        // the arena validation walk must produce a typed error.
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        for obj in 0..256u32 {
            idx.push(1, obj, 1.0);
        }
        idx.finalize();
        let c = CompressedInvertedIndex::compress(&idx);
        let bytes = c.to_bytes();
        // Arena starts after header (14) + arena_len (8) + directory
        // (1 key × 28); the id column follows the 2-byte×256 bound
        // column, and its first byte is the block width.
        let width_at = 14 + 8 + 28 + 2 * 256;
        for bad in [0u8, 65, 255] {
            let mut raw = bytes.as_slice().to_vec();
            raw[width_at] = bad;
            assert!(
                matches!(
                    CompressedInvertedIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
                    IndexCodecError::Corrupt { .. }
                ),
                "width {bad} must be rejected"
            );
        }
    }

    #[test]
    fn postings_decode_the_form_their_kind_byte_names() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(7, 0, 3.5);
        idx.push(7, 1, 1.25);
        idx.finalize();
        let soa = idx.to_bytes();
        let packed = CompressedInvertedIndex::compress(&idx).to_bytes();
        for (bytes, storage) in [(&soa, Storage::Arena), (&packed, Storage::Compressed)] {
            let back = Postings::<u64, 1>::from_bytes(bytes.clone()).unwrap();
            assert_eq!(back.storage(), storage);
            assert_eq!(&back.to_bytes(), bytes, "re-encoding is the identity");
            assert_eq!(back.qualifying_into(&7, [2.0], &mut Vec::new()), &[0]);
            // Single-bound kinds are not a dual-bound posting source.
            assert_eq!(
                Postings::<u64, 2>::from_bytes(bytes.clone()).unwrap_err(),
                IndexCodecError::BadKind(bytes.as_slice()[5])
            );
        }
        let mut raw = soa.as_slice().to_vec();
        raw[5] = 9;
        assert_eq!(
            Postings::<u64, 1>::from_bytes(&raw[..]).unwrap_err(),
            IndexCodecError::BadKind(9)
        );
    }

    #[test]
    fn compressed_rejects_corrupt_bound_column() {
        let c = sample_compressed();
        let mut raw = c.to_bytes();
        // Arena begins after header (14) + arena_len (8) + directory
        // (key_count × 28). Break the first group's non-increasing
        // bound column: zero the first u16, max the second.
        let arena_at = 14 + 8 + c.key_count() * 28;
        raw[arena_at] = 0;
        raw[arena_at + 1] = 0;
        raw[arena_at + 2] = 0xFF;
        raw[arena_at + 3] = 0xFF;
        assert!(matches!(
            CompressedInvertedIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
            IndexCodecError::Corrupt { .. }
        ));
    }

    #[test]
    fn compressed_rejects_huge_key_count_without_allocating() {
        // A corrupt header declaring 2^60 keys must error out, not
        // abort on a multi-exabyte Vec reservation.
        let mut raw = Vec::new();
        put_u32(&mut raw, MAGIC);
        raw.push(VERSION);
        raw.push(packed_kind::<1>());
        put_u64(&mut raw, 1u64 << 60);
        put_u64(&mut raw, 0); // arena_len
        assert_eq!(
            CompressedInvertedIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
            IndexCodecError::Truncated
        );
        raw[5] = packed_kind::<2>();
        assert_eq!(
            CompressedHybridIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
            IndexCodecError::Truncated
        );
    }

    #[test]
    fn compressed_empty_roundtrip() {
        let mut idx: InvertedIndex<u32> = InvertedIndex::new();
        idx.finalize();
        let c = CompressedInvertedIndex::compress(&idx);
        let back: CompressedInvertedIndex<u32> =
            CompressedInvertedIndex::from_bytes(c.to_bytes()).unwrap();
        assert_eq!(back.key_count(), 0);
        assert_eq!(back.posting_count(), 0);
    }

    #[test]
    fn directory_key_wider_than_the_key_type_is_corrupt() {
        // 2^64 + 5 in a u64-keyed index used to narrow silently to
        // key 5. Both directory readers must refuse it.
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(5, 0, 1.0);
        idx.finalize();
        let wide = ((1u128 << 64) + 5).to_le_bytes();
        let mut raw = idx.to_bytes();
        let key_at = 14 + 8; // header + posting_count
        raw[key_at..key_at + 16].copy_from_slice(&wide);
        assert!(matches!(
            InvertedIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
            IndexCodecError::Corrupt {
                section: "soa directory",
                ..
            }
        ));
        let mut raw = CompressedInvertedIndex::compress(&idx)
            .to_bytes()
            .as_slice()
            .to_vec();
        raw[key_at..key_at + 16].copy_from_slice(&wide); // header + arena_len
        assert!(matches!(
            CompressedInvertedIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
            IndexCodecError::Corrupt {
                section: "compressed directory",
                ..
            }
        ));
        // The same bytes are a legal key for a u128-keyed index.
        assert!(CompressedInvertedIndex::<u128>::from_bytes(&raw[..]).is_ok());
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        idx.push(1, 0, 2.0);
        idx.push(1, 1, 1.0);
        idx.finalize();
        let mut h: HybridIndex<u64> = HybridIndex::new();
        h.push(1, 0, 2.0, 0.5);
        h.finalize();
        let padded = |mut raw: Vec<u8>| {
            raw.push(0);
            raw
        };
        let is_trailing = |e: IndexCodecError| matches!(e, IndexCodecError::Corrupt { ref detail, .. } if detail.contains("trailing"));
        assert!(is_trailing(
            InvertedIndex::<u64>::from_bytes(&padded(idx.to_bytes())[..]).unwrap_err()
        ));
        assert!(is_trailing(
            HybridIndex::<u64>::from_bytes(&padded(h.to_bytes())[..]).unwrap_err()
        ));
        assert!(is_trailing(
            CompressedInvertedIndex::<u64>::from_bytes(
                &padded(CompressedInvertedIndex::compress(&idx).to_bytes())[..]
            )
            .unwrap_err()
        ));
        assert!(is_trailing(
            CompressedHybridIndex::<u64>::from_bytes(
                &padded(CompressedHybridIndex::compress(&h).to_bytes())[..]
            )
            .unwrap_err()
        ));
    }
}
