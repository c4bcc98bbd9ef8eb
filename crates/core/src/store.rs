//! The object collection: regions, tokens, corpus weights, global order.

use crate::{ObjectId, RoiObject};
use seal_geom::{Point, Rect};
use seal_text::{Dictionary, GlobalTokenOrder, IdfWeights, TokenSet};

/// Summary statistics of a store (the "Data statistics" rows of
/// Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStats {
    /// Number of objects `|O|`.
    pub objects: usize,
    /// Average region area.
    pub avg_region_area: f64,
    /// Area of the entire space `R` (MBR of all regions).
    pub space_area: f64,
    /// Average number of tokens per object.
    pub avg_token_count: f64,
    /// Number of distinct tokens.
    pub vocab_size: usize,
    /// Heap bytes of the raw data (regions + token-id allocations) —
    /// Table 1's "Data size" row. **Capacity**-based like the index
    /// size accounting, so live stores with staged capacity are not
    /// undercounted.
    pub data_bytes: usize,
}

/// The corpus-level artifacts a store carries besides its objects: the
/// space MBR, the idf weights, the global token order and the
/// vocabulary size. Everything a filter build or a verification derives
/// beyond per-object data comes from these four values.
///
/// They exist as a first-class carrier because of **sharding**: a
/// partition of the corpus must answer queries with the *global*
/// corpus's weights, order and space — not artifacts recomputed over
/// its own slice, which would shift idf weights and change both
/// posting bounds and query-side cut thresholds. `ShardedEngine`
/// computes one set of artifacts over the whole corpus and injects it
/// into every shard-local store via
/// [`ObjectStore::with_artifacts`] / [`ObjectStore::extended_with_artifacts`],
/// which is what makes per-shard answers exactly the global answers
/// restricted to that shard's objects.
#[derive(Debug, Clone)]
pub struct CorpusArtifacts {
    /// The entire space `R` (MBR of all regions, padded to positive
    /// extent so grids are well-defined).
    pub space: Rect,
    /// Corpus idf weights `w(t) = ln(|O| / count(t,O))`.
    pub weights: IdfWeights,
    /// Global token order (descending idf).
    pub token_order: GlobalTokenOrder,
    /// Number of distinct tokens in the corpus.
    pub vocab_size: usize,
}

impl CorpusArtifacts {
    /// Computes the artifacts over an object iterator — the one
    /// computation behind [`ObjectStore::from_objects`], so a sharded
    /// refresh that walks objects scattered across shard snapshots gets
    /// the same artifacts as a store over the same objects collected
    /// into a `Vec`. The iterator is cloned for the two passes (space,
    /// then weights), so pass something cheap to clone — slices and
    /// chained slice iterators are.
    pub fn compute<'a, I>(objects: I, vocab_size: usize) -> Self
    where
        I: Iterator<Item = &'a RoiObject> + Clone,
    {
        let space = space_over(objects.clone().map(|o| &o.region));
        let weights = IdfWeights::from_corpus(vocab_size, objects.map(|o| o.tokens.ids()));
        let token_order = GlobalTokenOrder::by_descending_weight(vocab_size, &weights);
        CorpusArtifacts {
            space,
            weights,
            token_order,
            vocab_size,
        }
    }

    /// The artifacts `store` already carries, cloned (the sharded
    /// construction path: partition one built store, hand each shard
    /// the whole corpus's artifacts).
    pub fn of(store: &ObjectStore) -> Self {
        store.artifacts.clone()
    }
}

/// The immutable object collection every index is built over.
///
/// Owns the objects plus their [`CorpusArtifacts`], among them the two
/// corpus-level artifacts the paper's filters need:
///
/// * [`IdfWeights`] — `w(t) = ln(|O| / count(t,O))` (Section 2.1);
/// * [`GlobalTokenOrder`] — tokens by descending idf, the global
///   signature-element order for textual prefix filtering (Section 4.2).
#[derive(Debug, Clone)]
pub struct ObjectStore {
    objects: Vec<RoiObject>,
    /// Each object's region as the [`CellGrid`] cells of its corners,
    /// in id order: the 8-byte column verify rejects disjoint
    /// candidates from.
    cells: Vec<[u16; 4]>,
    grid: CellGrid,
    artifacts: CorpusArtifacts,
    /// True when `artifacts` were injected ([`ObjectStore::with_artifacts`])
    /// rather than computed over `objects`.
    injected: bool,
    dictionary: Option<Dictionary>,
}

impl ObjectStore {
    /// Builds a store from objects whose token ids come from a space of
    /// `vocab_size` distinct tokens.
    pub fn from_objects(objects: Vec<RoiObject>, vocab_size: usize) -> Self {
        let artifacts = CorpusArtifacts::compute(objects.iter(), vocab_size);
        let (grid, cells) = cells_of(&objects, &artifacts.space);
        ObjectStore {
            objects,
            cells,
            grid,
            artifacts,
            injected: false,
            dictionary: None,
        }
    }

    /// Builds a store over `objects` that carries **injected** corpus
    /// artifacts instead of computing its own — the shard-local store
    /// of a partitioned corpus. Filters built over it derive their
    /// bounds from the global weights/order/space, and verification
    /// judges similarity with the global weights, so the store answers
    /// exactly the global answers restricted to its objects (see
    /// [`CorpusArtifacts`]). No dictionary: token-string resolution is
    /// a corpus-level concern the sharding layer keeps for itself.
    pub fn with_artifacts(objects: Vec<RoiObject>, artifacts: CorpusArtifacts) -> Self {
        let (grid, cells) = cells_of(&objects, &artifacts.space);
        ObjectStore {
            objects,
            cells,
            grid,
            artifacts,
            injected: true,
            dictionary: None,
        }
    }

    /// The next generation of a shard-local store: same objects (ids
    /// stable) with `delta` appended, carrying freshly injected
    /// artifacts — the sharded counterpart of
    /// [`extended`](Self::extended), whose artifact *recomputation*
    /// over the local slice would be exactly wrong for a shard.
    pub fn extended_with_artifacts(&self, delta: &[RoiObject], artifacts: CorpusArtifacts) -> Self {
        let mut objects = Vec::with_capacity(self.objects.len() + delta.len());
        objects.extend_from_slice(&self.objects);
        objects.extend_from_slice(delta);
        ObjectStore::with_artifacts(objects, artifacts)
    }

    /// Builds the **next generation** of this store: the same objects
    /// (ids unchanged) with `delta` appended after them, and every
    /// corpus-level artifact — the space MBR, the idf weights, the
    /// global token order — recomputed over the union. The result is
    /// indistinguishable from [`ObjectStore::from_objects`] over the
    /// concatenated object list, which is what lets a generation swap
    /// serve answers identical to a from-scratch build.
    ///
    /// Delta objects receive the ids `self.len()..self.len() +
    /// delta.len()` in push order — the same ids a live engine's delta
    /// overlay advertises before the swap, so ids are stable across a
    /// refresh. Tokens unseen by this store grow the vocabulary; the
    /// dictionary (if any) is carried over unchanged, so ids beyond it
    /// simply have no string form yet.
    pub fn extended(&self, delta: &[RoiObject]) -> Self {
        let mut objects = Vec::with_capacity(self.objects.len() + delta.len());
        objects.extend_from_slice(&self.objects);
        objects.extend_from_slice(delta);
        let vocab = delta
            .iter()
            .flat_map(|o| o.tokens.iter())
            .map(|t| t.index() + 1)
            .max()
            .unwrap_or(0)
            .max(self.vocab_size());
        let mut next = ObjectStore::from_objects(objects, vocab);
        next.dictionary = self.dictionary.clone();
        next
    }

    /// Builds a store from `(region, tokens-as-strings)` pairs, interning
    /// the strings (the examples use this entry point).
    pub fn from_labeled<I, S>(items: I) -> Self
    where
        I: IntoIterator<Item = (Rect, Vec<S>)>,
        S: AsRef<str>,
    {
        let mut dict = Dictionary::new();
        let objects: Vec<RoiObject> = items
            .into_iter()
            .map(|(region, tokens)| {
                let ids = tokens.iter().map(|t| dict.intern(t.as_ref()));
                RoiObject::new(region, TokenSet::from_ids(ids))
            })
            .collect();
        let vocab = dict.len();
        let mut store = ObjectStore::from_objects(objects, vocab);
        store.dictionary = Some(dict);
        store
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the store holds no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The object for an id.
    ///
    /// # Panics
    /// If the id is out of range (ids come from this store's indexes,
    /// so an out-of-range id is a logic error).
    #[inline]
    pub fn get(&self, id: ObjectId) -> &RoiObject {
        &self.objects[id.index()]
    }

    /// All objects in id order.
    #[inline]
    pub fn objects(&self) -> &[RoiObject] {
        &self.objects
    }

    /// Each object's corner cells, in id order.
    #[inline]
    pub(crate) fn cells(&self) -> &[[u16; 4]] {
        &self.cells
    }

    /// The grid of [`cells`](Self::cells), over the store's space.
    #[inline]
    pub(crate) fn cell_grid(&self) -> &CellGrid {
        &self.grid
    }

    /// Iterates `(id, object)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &RoiObject)> {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u32), o))
    }

    /// The entire space `R` (MBR of all regions, padded to positive
    /// extent so grids are well-defined).
    #[inline]
    pub fn space(&self) -> Rect {
        self.artifacts.space
    }

    /// The corpus idf weights.
    #[inline]
    pub fn weights(&self) -> &IdfWeights {
        &self.artifacts.weights
    }

    /// The global token order (descending idf).
    #[inline]
    pub fn token_order(&self) -> &GlobalTokenOrder {
        &self.artifacts.token_order
    }

    /// Number of distinct tokens the store was built with.
    #[inline]
    pub fn vocab_size(&self) -> usize {
        self.artifacts.vocab_size
    }

    /// The artifacts, when they were injected rather than computed over
    /// the objects: what a container must carry for the store to load
    /// back as it is.
    pub(crate) fn injected_artifacts(&self) -> Option<&CorpusArtifacts> {
        self.injected.then_some(&self.artifacts)
    }

    /// The dictionary, when the store was built from strings.
    pub fn dictionary(&self) -> Option<&Dictionary> {
        self.dictionary.as_ref()
    }

    /// Attaches a dictionary after construction — the container load
    /// path rebuilds the store from persisted objects and then restores
    /// the persisted dictionary here.
    pub(crate) fn set_dictionary(&mut self, dictionary: Option<Dictionary>) {
        self.dictionary = dictionary;
    }

    /// Summary statistics (Table 1's data rows).
    pub fn stats(&self) -> StoreStats {
        let n = self.objects.len();
        let area_sum: f64 = self.objects.iter().map(|o| o.region.area()).sum();
        let token_sum: usize = self.objects.iter().map(|o| o.tokens.len()).sum();
        // Capacity-based, like the index-side size accounting: each
        // token set owns its Vec's whole allocation, so counting
        // payload by length undercounts live stores whose sets carry
        // staged capacity (e.g. built via sort-and-dedup).
        let token_bytes: usize = self.objects.iter().map(|o| o.tokens.heap_bytes()).sum();
        let data_bytes = n * std::mem::size_of::<Rect>() + token_bytes;
        StoreStats {
            objects: n,
            avg_region_area: if n == 0 { 0.0 } else { area_sum / n as f64 },
            space_area: self.space().area(),
            avg_token_count: if n == 0 {
                0.0
            } else {
                token_sum as f64 / n as f64
            },
            vocab_size: self.vocab_size(),
            data_bytes,
        }
    }
}

/// The grid of a store's cell column: 65 536 cells a side over its
/// space. A coordinate `v` falls in cell `⌊(v − origin)·scale⌋`,
/// clamped to `0..=65535` and computed in `f64`. Each step — the
/// subtraction, the product by a scale `≥ 0`, the floor, the clamp — is
/// non-decreasing in `v`, so a corner in a higher cell than another
/// lies strictly beyond it: cells apart mean rects apart, for any rect
/// inside or outside the space.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellGrid {
    origin: Point,
    scale: [f64; 2],
}

impl CellGrid {
    pub(crate) fn over(space: &Rect) -> Self {
        // An extent so small that the scale overflows would make
        // `0 · ∞` a NaN; a zero scale puts every corner in cell 0.
        let scale = |extent: f64| {
            let s = 65_535.0 / extent;
            if s.is_finite() {
                s
            } else {
                0.0
            }
        };
        CellGrid {
            origin: space.min(),
            scale: [scale(space.width()), scale(space.height())],
        }
    }

    /// `r`'s corners as cells: `[min x, min y, max x, max y]`.
    #[inline]
    pub(crate) fn cells(&self, r: &Rect) -> [u16; 4] {
        let (o, [sx, sy]) = (self.origin, self.scale);
        let cell = |v: f64, o: f64, s: f64| ((v - o) * s).floor().clamp(0.0, 65_535.0) as u16;
        let (min, max) = (r.min(), r.max());
        [
            cell(min.x, o.x, sx),
            cell(min.y, o.y, sy),
            cell(max.x, o.x, sx),
            cell(max.y, o.y, sy),
        ]
    }
}

fn cells_of(objects: &[RoiObject], space: &Rect) -> (CellGrid, Vec<[u16; 4]>) {
    let grid = CellGrid::over(space);
    let cells = objects.iter().map(|o| grid.cells(&o.region)).collect();
    (grid, cells)
}

/// MBR of all regions, padded to a non-degenerate rectangle so grid
/// partitions are always well-defined.
fn space_over<'a>(regions: impl Iterator<Item = &'a Rect>) -> Rect {
    let mbr = Rect::mbr_of(regions)
        .unwrap_or_else(|| Rect::new(0.0, 0.0, 1.0, 1.0).expect("static rect"));
    let pad_x = if mbr.width() <= 0.0 { 0.5 } else { 0.0 };
    let pad_y = if mbr.height() <= 0.0 { 0.5 } else { 0.0 };
    if pad_x > 0.0 || pad_y > 0.0 {
        Rect::new(
            mbr.min().x - pad_x,
            mbr.min().y - pad_y,
            mbr.max().x + pad_x,
            mbr.max().y + pad_y,
        )
        .expect("padded space is valid")
    } else {
        mbr
    }
}

/// Builds the store of the paper's running example (Figure 1): seven
/// objects `o1..o7` over a 120×120 space with tokens `t1..t5`.
///
/// Region coordinates are reconstructed from the figure's drawing; the
/// *published* quantities (token sets, idf weights within rounding, the
/// answer set of Example 1) are asserted in this crate's tests.
pub fn figure1_store() -> (ObjectStore, crate::Query) {
    use seal_text::TokenId;
    let t = |ids: &[u32]| TokenSet::from_ids(ids.iter().map(|&i| TokenId(i)));
    // Tokens: t1=0 (mocha), t2=1 (coffee), t3=2 (starbucks),
    //         t4=3 (ice), t5=4 (tea).
    let objects = vec![
        // o1: tall region on the upper left, tokens {t1,t2}.
        RoiObject::new(Rect::new(10.0, 60.0, 40.0, 120.0).unwrap(), t(&[0, 1])),
        // o2: large central region, tokens {t1,t2,t3}.
        RoiObject::new(Rect::new(15.0, 15.0, 85.0, 40.0).unwrap(), t(&[0, 1, 2])),
        // o3: right-side region, tokens {t3,t4,t5}.
        RoiObject::new(Rect::new(95.0, 50.0, 120.0, 90.0).unwrap(), t(&[2, 3, 4])),
        // o4: top-right region, tokens {t2,t3,t5}.
        RoiObject::new(Rect::new(85.0, 95.0, 115.0, 120.0).unwrap(), t(&[1, 2, 4])),
        // o5: small region left-center, tokens {t1,t2,t5}.
        RoiObject::new(Rect::new(45.0, 50.0, 60.0, 70.0).unwrap(), t(&[0, 1, 4])),
        // o6: bottom-right region, tokens {t2,t4}.
        RoiObject::new(Rect::new(90.0, 0.0, 120.0, 20.0).unwrap(), t(&[1, 3])),
        // o7: bottom-left region, tokens {t5}.
        RoiObject::new(Rect::new(0.0, 0.0, 25.0, 10.0).unwrap(), t(&[4])),
    ];
    let store = ObjectStore::from_objects(objects, 5);
    // Query overlapping o2 strongly and o1 weakly, asking for
    // {t1,t2,t3} with τR=0.25, τT=0.3 (Example 1).
    let q = crate::Query::with_token_ids(
        Rect::new(20.0, 10.0, 70.0, 45.0).unwrap(),
        [TokenId(0), TokenId(1), TokenId(2)],
        0.25,
        0.3,
    )
    .expect("valid thresholds");
    (store, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_text::{TokenId, TokenWeights};
    use std::sync::Arc;

    #[test]
    fn from_objects_computes_space_and_weights() {
        let (store, _q) = figure1_store();
        assert_eq!(store.len(), 7);
        assert!(store.space().area() > 0.0);
        // t4 (=TokenId 3) appears in 2 of 7 objects: w = ln(7/2) ≈ 1.25
        // (the paper's published 1.3 after rounding).
        let w = store.weights().weight(TokenId(3));
        assert!((w - (7.0f64 / 2.0).ln()).abs() < 1e-12);
        // t2 (=TokenId 1) appears in 5 of 7: w = ln(7/5) ≈ 0.34 (paper: 0.3).
        let w = store.weights().weight(TokenId(1));
        assert!((w - (7.0f64 / 5.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn idf_ranks_match_paper() {
        // The paper's idf ordering: t4 > t1 = t3 > t5 > t2.
        let (store, _q) = figure1_store();
        let w = store.weights();
        let weight = |i: u32| w.weight(TokenId(i));
        assert!(weight(3) > weight(0));
        assert!((weight(0) - weight(2)).abs() < 1e-12);
        assert!(weight(2) > weight(4));
        assert!(weight(4) > weight(1));
    }

    #[test]
    fn from_labeled_interns_strings() {
        let store = ObjectStore::from_labeled(vec![
            (
                Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(),
                vec!["coffee", "mocha"],
            ),
            (
                Rect::new(1.0, 1.0, 2.0, 2.0).unwrap(),
                vec!["coffee", "tea"],
            ),
        ]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.vocab_size(), 3);
        let dict = store.dictionary().unwrap();
        let coffee = dict.get("coffee").unwrap();
        // "coffee" in both objects: weight ln(2/2) = 0.
        assert_eq!(store.weights().weight(coffee), 0.0);
        let tea = dict.get("tea").unwrap();
        assert!((store.weights().weight(tea) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn empty_store_is_safe() {
        let store = ObjectStore::from_objects(Vec::new(), 0);
        assert!(store.is_empty());
        assert!(store.space().area() > 0.0, "space padded to positive area");
        let s = store.stats();
        assert_eq!(s.objects, 0);
        assert_eq!(s.avg_region_area, 0.0);
    }

    #[test]
    fn degenerate_only_store_pads_space() {
        let p = Rect::new(5.0, 5.0, 5.0, 5.0).unwrap();
        let store =
            ObjectStore::from_objects(vec![RoiObject::new(p, TokenSet::from_ids([TokenId(0)]))], 1);
        assert!(store.space().area() > 0.0);
        assert!(store.space().contains_rect(&p));
    }

    #[test]
    fn stats_reflect_contents() {
        let (store, _q) = figure1_store();
        let s = store.stats();
        assert_eq!(s.objects, 7);
        assert_eq!(s.vocab_size, 5);
        // Token counts: 2+3+3+3+3+2+1 = 17 → avg 17/7.
        assert!((s.avg_token_count - 17.0 / 7.0).abs() < 1e-12);
        assert!(s.data_bytes > 0);
        assert!(s.space_area >= s.avg_region_area);
    }

    #[test]
    fn extended_store_equals_fresh_union_build() {
        let (store, _q) = figure1_store();
        let delta = vec![
            // Reuses existing tokens and adds a brand-new one (id 5),
            // growing the vocabulary.
            RoiObject::new(
                Rect::new(50.0, 50.0, 70.0, 70.0).unwrap(),
                TokenSet::from_ids([TokenId(0), TokenId(5)]),
            ),
            RoiObject::new(
                Rect::new(-10.0, 0.0, 5.0, 5.0).unwrap(), // extends the space MBR
                TokenSet::from_ids([TokenId(1)]),
            ),
        ];
        let next = store.extended(&delta);
        let mut union: Vec<RoiObject> = store.objects().to_vec();
        union.extend_from_slice(&delta);
        let fresh = ObjectStore::from_objects(union, 6);

        assert_eq!(next.len(), fresh.len());
        assert_eq!(next.vocab_size(), fresh.vocab_size());
        assert_eq!(next.space(), fresh.space(), "space MBR recomputed");
        for t in 0..6u32 {
            assert_eq!(
                next.weights().weight(TokenId(t)),
                fresh.weights().weight(TokenId(t)),
                "idf weight of t{t} diverged"
            );
            assert_eq!(
                next.token_order().rank(TokenId(t)),
                fresh.token_order().rank(TokenId(t)),
                "global order of t{t} diverged"
            );
        }
        // Existing ids unchanged; delta ids appended in push order.
        assert_eq!(next.get(ObjectId(1)), store.get(ObjectId(1)));
        assert_eq!(next.get(ObjectId(7)), &delta[0]);
        assert_eq!(next.get(ObjectId(8)), &delta[1]);
    }

    #[test]
    fn extended_with_empty_delta_preserves_everything() {
        let (store, _q) = figure1_store();
        let next = store.extended(&[]);
        assert_eq!(next.len(), store.len());
        assert_eq!(next.vocab_size(), store.vocab_size());
        assert_eq!(next.space(), store.space());
        let w = store.weights().weight(TokenId(3));
        assert_eq!(next.weights().weight(TokenId(3)), w);
    }

    #[test]
    fn data_bytes_covers_token_capacity() {
        // A token set built from a duplicate-heavy list keeps the
        // pre-dedup capacity; data_bytes must cover the allocation,
        // not just the surviving length.
        let dup_heavy: Vec<TokenId> = (0..64).map(|i| TokenId(i % 4)).collect();
        let o = RoiObject::new(
            Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(),
            TokenSet::from_ids(dup_heavy),
        );
        let token_alloc = o.tokens.heap_bytes();
        assert!(
            token_alloc > o.tokens.len() * std::mem::size_of::<TokenId>(),
            "fixture must carry staged capacity"
        );
        let store = ObjectStore::from_objects(vec![o], 4);
        let s = store.stats();
        assert!(
            s.data_bytes >= std::mem::size_of::<Rect>() + token_alloc,
            "data_bytes {} undercounts the token allocation {token_alloc}",
            s.data_bytes
        );
    }

    #[test]
    fn computed_artifacts_match_from_objects() {
        let (store, _q) = figure1_store();
        let arts = CorpusArtifacts::compute(store.objects().iter(), store.vocab_size());
        assert_eq!(arts.space, store.space());
        assert_eq!(arts.vocab_size, store.vocab_size());
        for t in 0..5u32 {
            assert_eq!(
                arts.weights.weight(TokenId(t)),
                store.weights().weight(TokenId(t))
            );
            assert_eq!(
                arts.token_order.rank(TokenId(t)),
                store.token_order().rank(TokenId(t))
            );
        }
        // Degenerate corpora pad the space exactly like from_objects.
        let empty = CorpusArtifacts::compute([].iter(), 0);
        assert_eq!(
            empty.space,
            ObjectStore::from_objects(Vec::new(), 0).space()
        );
    }

    #[test]
    fn injected_artifacts_override_local_computation() {
        let (global, _q) = figure1_store();
        let arts = CorpusArtifacts::of(&global);
        // A one-object slice of the corpus: its locally computed idf
        // would be degenerate (every token weight ln(1/1)=0), but the
        // injected artifacts keep the global values.
        let slice = vec![global.objects()[2].clone()];
        let shard = ObjectStore::with_artifacts(slice.clone(), arts.clone());
        assert_eq!(shard.len(), 1);
        assert_eq!(shard.space(), global.space());
        assert_eq!(shard.vocab_size(), global.vocab_size());
        for t in 0..5u32 {
            assert_eq!(
                shard.weights().weight(TokenId(t)),
                global.weights().weight(TokenId(t))
            );
        }
        let local = ObjectStore::from_objects(slice, global.vocab_size());
        assert_ne!(
            local.weights().weight(TokenId(3)),
            shard.weights().weight(TokenId(3)),
            "fixture must actually distinguish local from injected weights"
        );
        // extended_with_artifacts appends with stable ids and swaps in
        // the new epoch's artifacts.
        let delta = vec![global.objects()[0].clone()];
        let next_arts = CorpusArtifacts::compute(
            shard.objects().iter().chain(delta.iter()),
            global.vocab_size(),
        );
        let next = shard.extended_with_artifacts(&delta, next_arts);
        assert_eq!(next.len(), 2);
        assert_eq!(next.get(ObjectId(0)), shard.get(ObjectId(0)));
        assert_eq!(next.get(ObjectId(1)), &delta[0]);
    }

    /// The cell column holds exactly each object's cells on a grid
    /// over the store's space, in id order.
    fn assert_cells_match_objects(store: &ObjectStore, path: &str) {
        let grid = CellGrid::over(&store.space());
        let expected: Vec<[u16; 4]> = store
            .objects()
            .iter()
            .map(|o| grid.cells(&o.region))
            .collect();
        assert_eq!(store.cells(), expected.as_slice(), "{path}");
    }

    #[test]
    fn every_construction_path_builds_the_cell_column() {
        use crate::{FilterKind, QueryEngine, SealEngine, ShardedEngine};
        let (store, _q) = figure1_store();
        let arts = CorpusArtifacts::of(&store);
        let delta = vec![RoiObject::new(
            Rect::new(0.1, 0.2, 1e40, 1e40).unwrap(),
            TokenSet::from_ids([TokenId(5)]),
        )];
        let shard = ObjectStore::with_artifacts(store.objects()[..3].to_vec(), arts.clone());
        for (path, s) in [
            ("from_objects", store.clone()),
            ("with_artifacts", shard.clone()),
            ("extended", store.extended(&delta)),
            (
                "extended_with_artifacts",
                shard.extended_with_artifacts(&delta, arts),
            ),
        ] {
            assert_cells_match_objects(&s, path);
        }
        // Both load branches: a computed-artifact store writes no
        // section 8, a shard's store does.
        let sharded = ShardedEngine::build(&store, FilterKind::Token, 3);
        sharded.push(delta[0].clone());
        sharded.refresh();
        let engines = sharded.shard_engines();
        let standalone = SealEngine::build(Arc::new(store.extended(&delta)), FilterKind::Token);
        for (path, engine, injected) in [
            ("plain container", &standalone, false),
            ("shard container", &engines[0], true),
        ] {
            let bytes = engine.to_container_bytes().unwrap();
            let loaded = SealEngine::load_from_bytes(&bytes, 1).unwrap();
            let loaded = loaded.store();
            assert_eq!(loaded.injected_artifacts().is_some(), injected, "{path}");
            assert_eq!(loaded.len(), engine.store().len(), "{path}");
            assert_cells_match_objects(loaded, path);
        }
        assert_eq!(
            engines.iter().map(|e| e.store().len()).sum::<usize>(),
            store.len() + 1
        );
        for e in &engines {
            assert_cells_match_objects(e.store(), "shard after refresh");
        }
    }

    #[test]
    fn iter_yields_dense_ids() {
        let (store, _q) = figure1_store();
        let ids: Vec<u32> = store.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
    }
}
