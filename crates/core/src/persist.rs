//! Durable engine persistence: the single-file `.seal` container.
//!
//! [`SealEngine::save`] lays an engine out as checksummed sections of a
//! [`seal_index::Container`] and writes it with the crash-safe
//! temp-file → fsync → atomic-rename protocol ([`ContainerWriter`]'s
//! `write_atomic`); [`SealEngine::load`] CRC-verifies the framing and
//! every payload, then validates each section semantically before
//! reconstructing the engine. Every failure on the load path is a typed
//! [`ContainerError`]: corrupt, truncated or adversarial input never
//! panics and never triggers unbounded allocation — every section is
//! read through [`seal_index::container::Reader`], which checks every
//! declared count against the bytes actually remaining before a buffer
//! is sized from it.
//!
//! # Section layout (in directory order)
//!
//! | kind | section | contents |
//! |------|---------|----------|
//! | 1 | store stats | summary counts + averages, cross-checked bit-exactly against the reloaded store |
//! | 2 | store objects | vocab size, then each object's rect (4×f64) and sorted token ids |
//! | 3 | dictionary | token names in id order (present only for stores built from strings) |
//! | 4 | engine meta | [`FilterKind`] tag + parameters, two similarity tags (always 0) |
//! | 5 | hier scheme | per-token HSS cell selections ([`FilterKind::Hierarchical`] only) |
//! | 6 | primary index | the filter's index in the `seal_index` codec format |
//! | 8 | corpus artifacts | space rect, idf weights ([`ObjectStore::with_artifacts`] stores only) |
//!
//! Kind 7 is retired (it held a secondary grid index for a filter that
//! no longer exists); a container carrying it is refused. Kind 8 is
//! written only by a store whose artifacts were injected (a shard's):
//! its loader takes the space and weights from it, derives the token
//! order from the weights as [`CorpusArtifacts::compute`] does, and
//! computes nothing over the objects. Every other store's artifacts are
//! recomputed from its objects on load.
//!
//! Which index sections an engine writes is the filter's own answer
//! ([`CandidateFilter::persisted_sections`]); [`FilterKind`] is matched
//! once, on load.
//!
//! There is one load path: [`SealEngine::load`] reads the file and
//! hands the bytes to [`SealEngine::load_from_bytes`], whose framing
//! validator is [`Container::parse_with_threads`]. Sections are looked
//! up by kind, so their order in the file does not matter; a section
//! the engine meta's kind does not read is an error, never skipped.

use crate::filters::{CandidateFilter, GridFilter, HierarchicalFilter, HybridFilter, TokenFilter};
use crate::signatures::hash_hybrid::BucketScheme;
use crate::signatures::hierarchical::HierarchicalScheme;
use crate::store::CorpusArtifacts;
use crate::{FilterKind, ObjectStore, RoiObject, SealEngine};
use seal_geom::{GridCellId, GridTree, Rect};
use seal_index::container::{put_f64, put_u32, put_u64, Reader};
use seal_index::{
    Container, ContainerError, ContainerWriter, HybridIndex, IndexCodecError, IndexKey,
    InvertedIndex, ObjId, Postings,
};
use seal_text::{Dictionary, GlobalTokenOrder, IdfWeights, TokenId, TokenSet};
use std::path::Path;
use std::sync::Arc;

/// Section kind: store summary statistics (cross-checked on load).
pub const SECTION_STORE_STATS: u16 = 1;
/// Section kind: the object collection (rects + token ids).
pub const SECTION_STORE_OBJECTS: u16 = 2;
/// Section kind: the token dictionary (optional).
pub const SECTION_DICTIONARY: u16 = 3;
/// Section kind: filter kind and the two similarity tags.
pub const SECTION_ENGINE_META: u16 = 4;
/// Section kind: hierarchical per-token HSS selections.
pub const SECTION_HIER_SCHEME: u16 = 5;
/// Section kind: the filter's primary index (codec bytes).
pub const SECTION_PRIMARY_INDEX: u16 = 6;
/// Section kind: injected corpus artifacts (a shard's space and idf
/// weights).
pub const SECTION_CORPUS_ARTIFACTS: u16 = 8;

/// What a filter with one index persists: its codec bytes as the
/// primary index section.
pub(crate) fn primary_section(codec_bytes: Vec<u8>) -> Vec<(u16, Vec<u8>)> {
    vec![(SECTION_PRIMARY_INDEX, codec_bytes)]
}

// ----------------------------------------------------------- store stats

fn encode_stats(store: &ObjectStore) -> Vec<u8> {
    let s = store.stats();
    let mut buf = Vec::with_capacity(40);
    put_u64(&mut buf, s.objects as u64);
    put_u64(&mut buf, s.vocab_size as u64);
    put_f64(&mut buf, s.avg_region_area);
    put_f64(&mut buf, s.space_area);
    put_f64(&mut buf, s.avg_token_count);
    buf
}

/// Cross-checks the persisted summary against the store rebuilt from
/// the objects section. The averages are pure functions of the objects
/// in their stored order (same summation order), so the comparison is
/// **bit-exact** — any drift means the sections disagree about the
/// data they describe. `data_bytes` is deliberately not persisted: it
/// is capacity-based and so not a function of the logical contents.
fn check_stats(payload: &[u8], store: &ObjectStore) -> Result<(), ContainerError> {
    let mut r = Reader::new(payload, "store stats");
    let objects = r.u64()?;
    let vocab = r.u64()?;
    let avg_area = r.f64()?;
    let space_area = r.f64()?;
    let avg_tokens = r.f64()?;
    let s = store.stats();
    let mismatch = |r: &Reader<'_>, what: &str| -> ContainerError {
        r.err(format!("{what} disagrees with the store objects section"))
    };
    if objects != s.objects as u64 {
        return Err(mismatch(&r, "object count"));
    }
    if vocab != s.vocab_size as u64 {
        return Err(mismatch(&r, "vocab size"));
    }
    if avg_area.to_bits() != s.avg_region_area.to_bits() {
        return Err(mismatch(&r, "average region area"));
    }
    if space_area.to_bits() != s.space_area.to_bits() {
        return Err(mismatch(&r, "space area"));
    }
    if avg_tokens.to_bits() != s.avg_token_count.to_bits() {
        return Err(mismatch(&r, "average token count"));
    }
    Ok(r.done()?)
}

// --------------------------------------------------------- store objects

fn encode_store(store: &ObjectStore) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, store.vocab_size() as u64);
    put_u64(&mut buf, store.len() as u64);
    for o in store.objects() {
        let (min, max) = (o.region.min(), o.region.max());
        put_f64(&mut buf, min.x);
        put_f64(&mut buf, min.y);
        put_f64(&mut buf, max.x);
        put_f64(&mut buf, max.y);
        put_u32(
            &mut buf,
            u32::try_from(o.tokens.len()).expect("token count fits u32"),
        );
        for t in o.tokens.iter() {
            put_u32(&mut buf, t.0);
        }
    }
    buf
}

/// The objects section's objects and vocabulary size.
fn decode_store(payload: &[u8]) -> Result<(Vec<RoiObject>, usize), ContainerError> {
    let mut r = Reader::new(payload, "store objects");
    let vocab =
        usize::try_from(r.u64()?).map_err(|_| r.err("vocab size exceeds the address space"))?;
    let declared = r.u64()?;
    // Smallest possible object: rect (32 bytes) + empty token set (4).
    let n = r.count(declared, 4 * 8 + 4)?;
    let mut objects = Vec::with_capacity(n);
    for i in 0..n {
        let (min_x, min_y) = (r.f64()?, r.f64()?);
        let (max_x, max_y) = (r.f64()?, r.f64()?);
        let region = Rect::new(min_x, min_y, max_x, max_y)
            .map_err(|e| r.err(format!("object {i}: invalid region: {e}")))?;
        let token_count = r.u32()?;
        let k = r.count(u64::from(token_count), 4)?;
        let mut ids = Vec::with_capacity(k);
        for _ in 0..k {
            ids.push(TokenId(r.u32()?));
        }
        // `TokenSet::from_sorted_unique` only debug-asserts its
        // invariant, so untrusted bytes are validated explicitly.
        if let Some(j) = ids.windows(2).position(|w| w[0] >= w[1]) {
            return Err(r.err(format!(
                "object {i}: token ids not ascending at slot {}",
                j + 1
            )));
        }
        if let Some(t) = ids.last() {
            if t.index() >= vocab {
                return Err(r.err(format!(
                    "object {i}: token id {} outside vocab of {vocab}",
                    t.0
                )));
            }
        }
        objects.push(RoiObject::new(region, TokenSet::from_sorted_unique(ids)));
    }
    r.done()?;
    Ok((objects, vocab))
}

// ----------------------------------------------------- corpus artifacts

/// The space rect, then the idf weights: corpus size, fallback weight,
/// and one weight per vocabulary slot. The token order is not written;
/// it is a function of the weights.
fn encode_artifacts(a: &CorpusArtifacts) -> Vec<u8> {
    let values = a.weights.values();
    let mut buf = Vec::with_capacity(4 * 8 + 3 * 8 + values.len() * 8);
    for v in [
        a.space.min().x,
        a.space.min().y,
        a.space.max().x,
        a.space.max().y,
    ] {
        put_f64(&mut buf, v);
    }
    put_u64(&mut buf, a.weights.corpus_size() as u64);
    put_f64(&mut buf, a.weights.fallback());
    put_u64(&mut buf, values.len() as u64);
    for &v in values {
        put_f64(&mut buf, v);
    }
    buf
}

/// Decodes the injected artifacts of a store over `objects` from a
/// vocabulary of `vocab` tokens. The space must be a positive-area rect
/// holding every object, and there must be one finite, non-negative
/// weight per vocabulary slot: a filter grids the space, and a NaN or
/// negative weight would break the bounds and the scores.
fn decode_artifacts(
    payload: &[u8],
    objects: &[RoiObject],
    vocab: usize,
) -> Result<CorpusArtifacts, ContainerError> {
    let mut r = Reader::new(payload, "corpus artifacts");
    let (min_x, min_y) = (r.f64()?, r.f64()?);
    let (max_x, max_y) = (r.f64()?, r.f64()?);
    let space =
        Rect::new(min_x, min_y, max_x, max_y).map_err(|e| r.err(format!("invalid space: {e}")))?;
    if !(space.width() > 0.0 && space.height() > 0.0) {
        return Err(r.err("space has no area"));
    }
    if let Some(i) = objects.iter().position(|o| !space.contains_rect(&o.region)) {
        return Err(r.err(format!("object {i} lies outside the space")));
    }
    let corpus_size =
        usize::try_from(r.u64()?).map_err(|_| r.err("corpus size exceeds the address space"))?;
    let fallback = r.f64()?;
    let declared = r.u64()?;
    if declared != vocab as u64 {
        return Err(r.err(format!("{declared} weights for a vocabulary of {vocab}")));
    }
    let values = r.column::<8, f64>(vocab, f64::from_le_bytes)?;
    let bad = |v: &f64| !(v.is_finite() && *v >= 0.0);
    if bad(&fallback) {
        return Err(r.err(format!(
            "fallback weight {fallback} is not finite and non-negative"
        )));
    }
    if let Some(t) = values.iter().position(bad) {
        return Err(r.err(format!(
            "weight of token {t} ({}) is not finite and non-negative",
            values[t]
        )));
    }
    r.done()?;
    let weights = IdfWeights::from_parts(values, fallback, corpus_size);
    Ok(CorpusArtifacts {
        space,
        token_order: GlobalTokenOrder::by_descending_weight(vocab, &weights),
        weights,
        vocab_size: vocab,
    })
}

// ----------------------------------------------------------- dictionary

fn encode_dictionary(dict: &Dictionary) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, dict.len() as u64);
    for (_, name) in dict.iter() {
        put_u32(
            &mut buf,
            u32::try_from(name.len()).expect("token name length fits u32"),
        );
        buf.extend_from_slice(name.as_bytes());
    }
    buf
}

fn decode_dictionary(payload: &[u8]) -> Result<Dictionary, ContainerError> {
    let mut r = Reader::new(payload, "dictionary");
    let declared = r.u64()?;
    let n = r.count(declared, 4)?;
    let mut dict = Dictionary::new();
    for i in 0..n {
        let declared_len = u64::from(r.u32()?);
        let len = r.count(declared_len, 1)?;
        let bytes = r.take(len)?;
        let name = std::str::from_utf8(bytes)
            .map_err(|_| r.err(format!("name {i} is not valid UTF-8")))?;
        let id = dict.intern(name);
        if id.index() != i {
            return Err(r.err(format!("duplicate name {name:?} at slot {i}")));
        }
    }
    r.done()?;
    Ok(dict)
}

// ---------------------------------------------------------- engine meta

/// The filter kind's tag and parameters, then the spatial and textual
/// similarity tags. Those are always `0, 0` — spatial Jaccard and
/// weighted Jaccard, the only similarity the engines answer with.
fn encode_meta(kind: FilterKind) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24);
    match kind {
        FilterKind::Token => buf.push(0),
        FilterKind::TokenCompressed => buf.push(1),
        FilterKind::Grid { side } => {
            buf.push(3);
            put_u32(&mut buf, side);
        }
        FilterKind::HashHybrid { side, buckets } => {
            buf.push(4);
            put_u32(&mut buf, side);
            buf.push(u8::from(buckets.is_some()));
            put_u64(&mut buf, buckets.unwrap_or(0));
        }
        FilterKind::HashHybridCompressed { side, buckets } => {
            buf.push(5);
            put_u32(&mut buf, side);
            buf.push(u8::from(buckets.is_some()));
            put_u64(&mut buf, buckets.unwrap_or(0));
        }
        FilterKind::Hierarchical { max_level, budget } => {
            buf.push(6);
            buf.push(max_level);
            put_u64(&mut buf, budget as u64);
        }
    }
    buf.push(0);
    buf.push(0);
    buf
}

/// Filter tags 2 and 7–11 are retired: they named filters that no
/// longer exist in the engine (7–9 the §2.3 baselines, which moved to
/// `seal-bench`), and decode as unknown. So do the non-zero similarity
/// tags, which named the Dice / Cosine / Overlap functions.
fn decode_meta(payload: &[u8]) -> Result<FilterKind, ContainerError> {
    let mut r = Reader::new(payload, "engine meta");
    let tag = r.u8()?;
    let kind = match tag {
        0 => FilterKind::Token,
        1 => FilterKind::TokenCompressed,
        3 => FilterKind::Grid { side: r.u32()? },
        4 | 5 => {
            let side = r.u32()?;
            let has = r.u8()?;
            let m = r.u64()?;
            let buckets = match has {
                0 => None,
                1 => Some(m),
                other => return Err(r.err(format!("bad bucket presence flag {other}"))),
            };
            if tag == 4 {
                FilterKind::HashHybrid { side, buckets }
            } else {
                FilterKind::HashHybridCompressed { side, buckets }
            }
        }
        6 => {
            let max_level = r.u8()?;
            let budget =
                usize::try_from(r.u64()?).map_err(|_| r.err("budget exceeds the address space"))?;
            FilterKind::Hierarchical { max_level, budget }
        }
        other => return Err(r.err(format!("unknown filter kind tag {other}"))),
    };
    for which in ["spatial", "textual"] {
        let tag = r.u8()?;
        if tag != 0 {
            return Err(r.err(format!("unknown {which} similarity tag {tag}")));
        }
    }
    r.done()?;
    Ok(kind)
}

// ----------------------------------------------------- hierarchical HSS

/// Serializes per-token cell selections: tokens with at least one
/// cell in ascending id order, each token's cells in their **selection
/// order**, which the scheme treats as authoritative (it is the order
/// signatures come out in).
pub(crate) fn encode_scheme(scheme: &HierarchicalScheme) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.push(scheme.tree().max_level());
    put_u64(&mut buf, scheme.budget() as u64);
    put_u64(&mut buf, scheme.tokens().count() as u64);
    for t in scheme.tokens() {
        put_u32(&mut buf, t.0);
        put_u32(
            &mut buf,
            u32::try_from(scheme.token_cells(t).count()).expect("cell count fits u32"),
        );
        for (cell, _) in scheme.token_cells(t) {
            put_u64(&mut buf, cell.pack());
        }
    }
    buf
}

/// Why `cells` cannot be one token's selection: a cell that occurs
/// twice or together with one of its ancestors (a selection is a cut
/// of the quad tree, so its cells are pairwise disjoint). The flat
/// scheme would probe such a pair's lists twice.
fn selection_defect(cells: &[GridCellId]) -> Option<String> {
    let mut sorted = cells.to_vec();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Some(format!("cell {:#x} repeats", w[0].pack()));
    }
    for c in cells {
        let mut cur = *c;
        while let Some(p) = cur.parent() {
            if sorted.binary_search(&p).is_ok() {
                return Some(format!(
                    "cell {:#x} and its ancestor {:#x} both selected",
                    c.pack(),
                    p.pack()
                ));
            }
            cur = p;
        }
    }
    None
}

fn decode_scheme(
    payload: &[u8],
    store: &ObjectStore,
    expect_max_level: u8,
    expect_budget: usize,
) -> Result<HierarchicalScheme, ContainerError> {
    let mut r = Reader::new(payload, "hier scheme");
    let max_level = r.u8()?;
    if max_level != expect_max_level {
        return Err(r.err(format!(
            "max level {max_level} disagrees with engine meta ({expect_max_level})"
        )));
    }
    let budget =
        usize::try_from(r.u64()?).map_err(|_| r.err("budget exceeds the address space"))?;
    if budget != expect_budget {
        return Err(r.err(format!(
            "budget {budget} disagrees with engine meta ({expect_budget})"
        )));
    }
    let tree = GridTree::new(store.space(), max_level)
        .map_err(|e| r.err(format!("invalid grid tree: {e}")))?;
    let declared = r.u64()?;
    // Smallest possible token entry: id + cell count, no cells.
    let n_tokens = r.count(declared, 4 + 4)?;
    let vocab = store.vocab_size();
    let mut runs: Vec<(TokenId, Vec<GridCellId>)> = Vec::with_capacity(n_tokens);
    let mut total_cells = 0usize;
    for _ in 0..n_tokens {
        let t = r.u32()?;
        if runs.last().is_some_and(|(p, _)| p.0 >= t) {
            return Err(r.err(format!("token ids not ascending at token {t}")));
        }
        // The scheme's token table is dense over the vocabulary.
        if TokenId(t).index() >= vocab {
            return Err(r.err(format!("token id {t} outside vocab of {vocab}")));
        }
        let declared_cells = u64::from(r.u32()?);
        let n_cells = r.count(declared_cells, 8)?;
        total_cells += n_cells;
        if u32::try_from(total_cells).is_err() {
            return Err(r.err("more than 2^32 token-cell pairs"));
        }
        let mut cells = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            let packed = r.u64()?;
            let id = GridCellId::unpack(packed)
                .map_err(|e| r.err(format!("token {t}: bad cell id {packed:#x}: {e}")))?;
            if id.level() > max_level {
                return Err(r.err(format!(
                    "token {t}: cell {packed:#x} below the tree's deepest level {max_level}"
                )));
            }
            cells.push(id);
        }
        if let Some(defect) = selection_defect(&cells) {
            return Err(r.err(format!("token {t}: {defect}")));
        }
        runs.push((TokenId(t), cells));
    }
    r.done()?;
    Ok(HierarchicalScheme::from_runs(tree, budget, vocab, runs))
}

// -------------------------------------------------------------- engine

/// Rejects an index whose postings reference objects the store does
/// not have — the one cross-section invariant the codec itself cannot
/// check, and the one that would otherwise panic the first query
/// (dedup stamps are indexed by object id).
fn check_ids(
    max_id: Option<ObjId>,
    store_len: usize,
    what: &'static str,
) -> Result<(), ContainerError> {
    if let Some(m) = max_id {
        if u64::from(m) >= store_len as u64 {
            return Err(ContainerError::Section {
                section: what,
                offset: 0,
                detail: format!("posting references object {m} but the store has {store_len}"),
            });
        }
    }
    Ok(())
}

/// Refuses a section the engine meta's kind does not read: the store
/// sections (1, 2, and 3 and 8 when present) and the meta (4) belong to
/// every container, the HSS scheme (5) only to `Hierarchical`, and the
/// primary index (6) to every kind. Anything else
/// — a retired kind, another kind's section — would load silently and
/// vanish on the next save.
fn check_sections(container: &Container<'_>, kind: FilterKind) -> Result<(), ContainerError> {
    let index_sections: &[u16] = match kind {
        FilterKind::Hierarchical { .. } => &[SECTION_HIER_SCHEME, SECTION_PRIMARY_INDEX],
        _ => &[SECTION_PRIMARY_INDEX],
    };
    let read = |s: u16| {
        (SECTION_STORE_STATS..=SECTION_ENGINE_META).contains(&s)
            || s == SECTION_CORPUS_ARTIFACTS
            || index_sections.contains(&s)
    };
    match container.sections().iter().find(|s| !read(s.kind)) {
        Some(s) => Err(ContainerError::Section {
            section: "engine meta",
            offset: 0,
            detail: format!("{kind:?} reads no section of kind {}", s.kind),
        }),
        None => Ok(()),
    }
}

/// Decodes the primary index section with its type's `from_bytes` and
/// checks its ids against the store ([`check_ids`]).
fn index_section<'a, I>(
    container: &Container<'a>,
    store: &ObjectStore,
    decode: impl FnOnce(&'a [u8]) -> Result<I, IndexCodecError>,
    max_id: impl FnOnce(&I) -> Option<ObjId>,
) -> Result<I, ContainerError> {
    let index = decode(container.require(SECTION_PRIMARY_INDEX)?)?;
    check_ids(max_id(&index), store.len(), "primary index")?;
    Ok(index)
}

/// [`index_section`] for a filter that serves either storage form: the
/// primary section decodes as whichever form its own kind byte names,
/// and that form must be the one the engine meta's [`FilterKind`]
/// declares — a compressed section under an arena configuration (or
/// the reverse) is a cross-section disagreement, not a second way to
/// spell the configuration.
fn postings_section<K: IndexKey, const N: usize>(
    container: &Container<'_>,
    store: &ObjectStore,
    kind: FilterKind,
) -> Result<Postings<K, N>, ContainerError> {
    let postings = index_section(
        container,
        store,
        Postings::<K, N>::from_bytes,
        Postings::max_object_id,
    )?;
    if postings.storage() != kind.storage() {
        return Err(ContainerError::Section {
            section: "primary index",
            offset: 5,
            detail: format!(
                "section holds {:?} postings but engine meta declares {kind:?}",
                postings.storage()
            ),
        });
    }
    Ok(postings)
}

pub(crate) fn bucket_scheme(buckets: Option<u64>) -> BucketScheme {
    match buckets {
        Some(m) => BucketScheme::Buckets(m),
        None => BucketScheme::Full,
    }
}

impl SealEngine {
    /// Serializes the engine into `.seal` container bytes (pure
    /// function of the engine — two calls return identical bytes).
    pub fn to_container_bytes(&self) -> Result<Vec<u8>, ContainerError> {
        Ok(self.container_writer().finish())
    }

    /// Saves the engine to `path` with the crash-safe protocol: the
    /// container is written to `<path>.tmp`, fsynced, then atomically
    /// renamed over `path` — a crash mid-save can leave a stale temp
    /// file behind but never a torn or half-written container at
    /// `path`. Returns the container size in bytes.
    pub fn save(&self, path: &Path) -> Result<u64, ContainerError> {
        self.container_writer().write_atomic(path)
    }

    fn container_writer(&self) -> ContainerWriter {
        let mut w = ContainerWriter::new();
        w.push_section(SECTION_STORE_STATS, encode_stats(self.store()));
        w.push_section(SECTION_STORE_OBJECTS, encode_store(self.store()));
        if let Some(artifacts) = self.store().injected_artifacts() {
            w.push_section(SECTION_CORPUS_ARTIFACTS, encode_artifacts(artifacts));
        }
        if let Some(dict) = self.store().dictionary() {
            w.push_section(SECTION_DICTIONARY, encode_dictionary(dict));
        }
        w.push_section(SECTION_ENGINE_META, encode_meta(self.kind()));
        for (kind, payload) in self.filter().persisted_sections() {
            w.push_section(kind, payload);
        }
        w
    }

    /// Loads an engine from a `.seal` container file
    /// ([`load_with_threads`](Self::load_with_threads) on one thread).
    pub fn load(path: &Path) -> Result<SealEngine, ContainerError> {
        Self::load_with_threads(path, 1)
    }

    /// Loads an engine from a `.seal` container file: reads it, then
    /// [`load_from_bytes`](Self::load_from_bytes).
    pub fn load_with_threads(path: &Path, threads: usize) -> Result<SealEngine, ContainerError> {
        Self::load_from_bytes(&std::fs::read(path)?, threads)
    }

    /// Reconstructs an engine from `.seal` container bytes. `threads`
    /// (`0` = one per core) fans out the per-section CRC checks. Bad
    /// magic, truncation, bit flips, oversized counts and
    /// cross-section disagreements all surface as typed
    /// [`ContainerError`]s, never as panics.
    pub fn load_from_bytes(bytes: &[u8], threads: usize) -> Result<SealEngine, ContainerError> {
        let container = Container::parse_with_threads(bytes, threads)?;
        let (objects, vocab) = decode_store(container.require(SECTION_STORE_OBJECTS)?)?;
        let mut store = match container.section(SECTION_CORPUS_ARTIFACTS) {
            Some(payload) => {
                let artifacts = decode_artifacts(payload, &objects, vocab)?;
                ObjectStore::with_artifacts(objects, artifacts)
            }
            None => ObjectStore::from_objects(objects, vocab),
        };
        if let Some(payload) = container.section(SECTION_DICTIONARY) {
            store.set_dictionary(Some(decode_dictionary(payload)?));
        }
        check_stats(container.require(SECTION_STORE_STATS)?, &store)?;
        let kind = decode_meta(container.require(SECTION_ENGINE_META)?)?;
        check_sections(&container, kind)?;
        let store = Arc::new(store);
        let filter: Box<dyn CandidateFilter> = match kind {
            FilterKind::Token | FilterKind::TokenCompressed => Box::new(TokenFilter::from_loaded(
                store.clone(),
                postings_section(&container, &store, kind)?,
            )),
            FilterKind::Grid { side } => Box::new(GridFilter::from_loaded(
                &store,
                side,
                index_section(
                    &container,
                    &store,
                    InvertedIndex::<u64>::from_bytes,
                    InvertedIndex::max_object_id,
                )?,
            )),
            FilterKind::HashHybrid { side, buckets }
            | FilterKind::HashHybridCompressed { side, buckets } => {
                Box::new(HybridFilter::from_loaded(
                    store.clone(),
                    side,
                    bucket_scheme(buckets),
                    postings_section(&container, &store, kind)?,
                ))
            }
            FilterKind::Hierarchical { max_level, budget } => {
                let scheme = decode_scheme(
                    container.require(SECTION_HIER_SCHEME)?,
                    &store,
                    max_level,
                    budget,
                )?;
                Box::new(HierarchicalFilter::assemble(
                    store.clone(),
                    scheme,
                    index_section(
                        &container,
                        &store,
                        HybridIndex::<u128>::from_bytes,
                        HybridIndex::max_object_id,
                    )?,
                ))
            }
        };
        Ok(SealEngine::from_loaded_parts(store, filter, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;

    fn engine(kind: FilterKind) -> SealEngine {
        let (store, _q) = figure1_store();
        SealEngine::build(Arc::new(store), kind)
    }

    #[test]
    fn container_bytes_are_deterministic() {
        let e = engine(FilterKind::seal_default());
        assert_eq!(
            e.to_container_bytes().unwrap(),
            e.to_container_bytes().unwrap()
        );
    }

    #[test]
    fn roundtrip_preserves_kind_config_and_answers() {
        let (store, q) = figure1_store();
        let e = SealEngine::build(Arc::new(store), FilterKind::seal_default());
        let bytes = e.to_container_bytes().unwrap();
        let loaded = SealEngine::load_from_bytes(&bytes, 1).unwrap();
        assert_eq!(loaded.kind(), e.kind());
        assert_eq!(loaded.config(), e.config());
        assert_eq!(loaded.store().len(), e.store().len());
        assert_eq!(
            loaded.search(&q).sorted().answers,
            e.search(&q).sorted().answers
        );
        // Save → load → save is byte-identical.
        assert_eq!(loaded.to_container_bytes().unwrap(), bytes);
    }

    #[test]
    fn oversized_counts_error_before_allocating() {
        // A store-objects section declaring u64::MAX objects.
        let mut payload = Vec::new();
        put_u64(&mut payload, 5); // vocab
        put_u64(&mut payload, u64::MAX); // objects
        let mut w = ContainerWriter::new();
        let e = engine(FilterKind::Token);
        w.push_section(SECTION_STORE_STATS, encode_stats(e.store()));
        w.push_section(SECTION_STORE_OBJECTS, payload);
        w.push_section(SECTION_ENGINE_META, encode_meta(e.kind()));
        let bytes = w.finish();
        let err = SealEngine::load_from_bytes(&bytes, 1)
            .err()
            .expect("load must fail");
        assert!(matches!(err, ContainerError::Section { .. }), "{err}");
    }

    #[test]
    fn out_of_store_posting_ids_are_rejected() {
        // Rebuild the engine's container with a primary index whose
        // postings reference an object the store does not have.
        let e = engine(FilterKind::Token);
        let mut rogue: InvertedIndex<u32> = InvertedIndex::new();
        rogue.push(0, 999, 1.0);
        rogue.finalize();
        let mut w = ContainerWriter::new();
        w.push_section(SECTION_STORE_STATS, encode_stats(e.store()));
        w.push_section(SECTION_STORE_OBJECTS, encode_store(e.store()));
        w.push_section(SECTION_ENGINE_META, encode_meta(e.kind()));
        w.push_section(SECTION_PRIMARY_INDEX, rogue.to_bytes());
        let err = SealEngine::load_from_bytes(&w.finish(), 1)
            .err()
            .expect("load must fail");
        assert!(
            err.to_string().contains("references object 999"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn stats_cross_check_detects_disagreement() {
        let e = engine(FilterKind::Token);
        let mut stats = encode_stats(e.store());
        stats[0] ^= 1; // object count now disagrees with the objects section
        let mut w = ContainerWriter::new();
        w.push_section(SECTION_STORE_STATS, stats);
        w.push_section(SECTION_STORE_OBJECTS, encode_store(e.store()));
        w.push_section(SECTION_ENGINE_META, encode_meta(e.kind()));
        for (kind, payload) in e.filter().persisted_sections() {
            w.push_section(kind, payload);
        }
        let err = SealEngine::load_from_bytes(&w.finish(), 1)
            .err()
            .expect("load must fail");
        assert!(err.to_string().contains("disagrees"), "{err}");
    }

    #[test]
    fn meta_roundtrips_every_kind() {
        for kind in FilterKind::matrix(512, &[None, Some(4096)], 10, 16) {
            let meta = encode_meta(kind);
            assert_eq!(meta[meta.len() - 2..], [0, 0], "{kind:?}");
            assert_eq!(decode_meta(&meta).unwrap(), kind);
        }
    }

    #[test]
    fn dictionary_roundtrips_and_rejects_duplicates() {
        let mut d = Dictionary::new();
        d.intern("coffee");
        d.intern("tea");
        d.intern("mocha");
        let bytes = encode_dictionary(&d);
        let back = decode_dictionary(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get("tea"), d.get("tea"));
        // Duplicate names cannot have come from a real dictionary.
        let mut forged = Vec::new();
        put_u64(&mut forged, 2);
        for _ in 0..2 {
            put_u32(&mut forged, 3);
            forged.extend_from_slice(b"tea");
        }
        assert!(decode_dictionary(&forged).is_err());
    }
}
