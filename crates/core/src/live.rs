//! Online ingest: a generation-swapping serving layer over
//! [`SealEngine`].
//!
//! The frozen-arena design makes one engine immutable at query time —
//! perfect for lock-free serving, useless for ingest. [`LiveEngine`]
//! layers generations on top:
//!
//! * **Queries** run against the *current* generation, an
//!   `Arc<SealEngine>` cloned per query (or per batch): readers never
//!   hold a lock across a probe, only for the nanosecond-scale `Arc`
//!   clone. On top of the generation's answers, the **staged delta**
//!   — objects pushed since the last refresh — is naive-scanned with
//!   the current generation's *frozen* corpus weights, so new objects
//!   are answerable immediately.
//! * **[`push`](LiveEngine::push)** appends to the staged delta.
//!   Delta objects are advertised under the ids they will keep
//!   forever: `generation_len + position_in_delta`, exactly the ids
//!   [`ObjectStore::extended`] assigns at the next refresh.
//! * **[`refresh`](LiveEngine::refresh)** builds the next generation
//!   — the union store with recomputed idf weights, global token
//!   order and space, indexed via
//!   [`SealEngine::build_next_generation`] (which reuses the
//!   hierarchical filter's per-token HSS selections for tokens the
//!   delta did not touch) — **off the swap lock**, while readers keep
//!   serving the old generation, then atomically swaps the `Arc` in
//!   and drops the consumed delta prefix. No reader ever blocks on
//!   the builder.
//!
//! # The staleness window
//!
//! Between a push and the next refresh, delta objects are scanned with
//! the **current generation's** idf weights and the current
//! generation's answers come from bounds computed before the delta
//! existed. Concretely: a staged object's textual similarity is
//! evaluated as if the corpus were the old one (its own tokens do not
//! yet lower anyone's idf), and frozen objects' answers cannot shift
//! until the swap. This window is the price of lock-free reads; it
//! closes completely at `refresh()`, after which answers are
//! **identical to a fresh [`SealEngine::build`] over the union**
//! (pinned by the `tests/live_ingest.rs` proptests). Deployments that
//! cannot tolerate it refresh more often — a refresh never stalls
//! readers and costs less than a fresh build (per-token HSS
//! selections are reused for tokens the delta did not touch; the
//! posting arena itself is rebuilt, because idf weights shift with
//! every corpus change) — and refreshes are safe to run from any
//! thread.
//!
//! ```
//! use seal_core::{FilterKind, LiveEngine, ObjectStore, Query, RoiObject};
//! use seal_geom::Rect;
//! use seal_text::TokenSet;
//! use std::sync::Arc;
//!
//! let store = Arc::new(ObjectStore::from_labeled(vec![
//!     (Rect::new(0.0, 0.0, 40.0, 40.0).unwrap(), vec!["coffee", "mocha"]),
//!     (Rect::new(80.0, 80.0, 120.0, 120.0).unwrap(), vec!["tea"]),
//! ]));
//! let live = LiveEngine::new(store.clone(), FilterKind::Token);
//!
//! // Ingest a new object: answerable immediately, no index rebuild.
//! let dict = store.dictionary().unwrap();
//! let coffee = TokenSet::from_ids(dict.get("coffee"));
//! live.push(RoiObject::new(Rect::new(5.0, 5.0, 45.0, 45.0).unwrap(), coffee.clone()));
//! let q = Query::new(Rect::new(0.0, 0.0, 50.0, 50.0).unwrap(), coffee, 0.3, 0.3).unwrap();
//! assert_eq!(live.search(&q).answers.len(), 2);
//!
//! // Fold the delta into the next generation; answers now come from
//! // real indexes with refreshed corpus weights. The refresh *is*
//! // the staleness window closing: "coffee" just became more common,
//! // its idf dropped, and the old two-token object no longer clears
//! // τ_T = 0.3 — exactly what a fresh build over the union returns.
//! let stats = live.refresh();
//! assert_eq!(stats.generation, 1);
//! assert_eq!(stats.merged, 1);
//! assert_eq!(live.search(&q).answers.len(), 1);
//! assert_eq!(live.staged_len(), 0);
//! ```

use crate::{
    FilterKind, ObjectId, ObjectStore, Query, QueryContext, RoiObject, SealEngine, SearchResult,
    SimilarityConfig,
};
use std::sync::{Arc, Mutex};

/// What one [`LiveEngine::refresh`] did (timings in seconds so bench
/// and CLI reporting need no conversion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshStats {
    /// The generation now being served (0 = the initial build; +1 per
    /// refresh that merged a non-empty delta).
    pub generation: u64,
    /// Staged objects folded into the new generation (0 = the refresh
    /// was a no-op and nothing was rebuilt or swapped).
    pub merged: usize,
    /// Objects in the new generation's store.
    pub total: usize,
    /// Wall-clock seconds spent building the next generation (store
    /// extension + index build; excludes the swap, which is an `Arc`
    /// store under a brief lock).
    pub build_seconds: f64,
    /// True when the previous generation's per-token HSS selections
    /// were reused (see [`SealEngine::build_next_generation`]).
    pub scheme_reused: bool,
}

/// An immutable view of the staged delta: a spine of frozen chunks in
/// push order. Cloning a snapshot is a few refcount bumps; iterating
/// walks the chunks in order, so overlay ids stay dense.
///
/// The chunking is what keeps `push` O(1) under concurrent reads: a
/// push lands in the newest chunk while that chunk is unshared
/// (`Arc::get_mut`), and starts a fresh chunk the moment a reader
/// snapshot still holds it — the staged objects themselves are
/// **never copied** on a push, no matter how many readers are in
/// flight (a flat `Arc<Vec>` with `make_mut` would deep-copy the
/// whole delta on every push that raced a query).
#[derive(Clone, Default)]
pub struct DeltaSnapshot {
    chunks: Vec<Arc<Vec<RoiObject>>>,
    len: usize,
}

impl DeltaSnapshot {
    /// Staged objects in the snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The staged objects, oldest first (overlay id = base + position).
    pub fn iter(&self) -> impl Iterator<Item = &RoiObject> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Appends one object (writer side; O(1) amortized — see the type
    /// docs).
    fn push(&mut self, object: RoiObject) {
        match self.chunks.last_mut().and_then(Arc::get_mut) {
            Some(tail) => tail.push(object),
            None => self.chunks.push(Arc::new(vec![object])),
        }
        self.len += 1;
    }

    /// Appends a batch (writer side).
    fn extend(&mut self, objects: impl IntoIterator<Item = RoiObject>) {
        match self.chunks.last_mut().and_then(Arc::get_mut) {
            Some(tail) => {
                let before = tail.len();
                tail.extend(objects);
                self.len += tail.len() - before;
            }
            None => {
                let chunk: Vec<RoiObject> = objects.into_iter().collect();
                if !chunk.is_empty() {
                    self.len += chunk.len();
                    self.chunks.push(Arc::new(chunk));
                }
            }
        }
    }

    /// Drops the oldest `n` objects (the prefix a refresh absorbed).
    /// Whole chunks are released by refcount; a chunk straddling the
    /// boundary keeps its suffix (possible when pushes re-entered the
    /// tail chunk after the builder dropped its snapshot).
    fn drop_prefix(&mut self, mut n: usize) {
        self.len -= n.min(self.len);
        while n > 0 {
            let Some(first) = self.chunks.first() else {
                return;
            };
            if first.len() <= n {
                n -= first.len();
                self.chunks.remove(0);
            } else {
                self.chunks[0] = Arc::new(first[n..].to_vec());
                return;
            }
        }
    }
}

/// The swappable state: which engine is current and what is staged.
/// One mutex guards both so a reader can never pair a new generation
/// with a delta whose prefix that generation already absorbed (which
/// would double-count the prefix and mis-assign overlay ids).
struct LiveState {
    engine: Arc<SealEngine>,
    delta: DeltaSnapshot,
    generation: u64,
}

/// A lock-free-reads, single-writer serving layer that accepts pushes
/// while queries run and folds them into the next index generation on
/// [`refresh`](LiveEngine::refresh). See the [module docs](self) for
/// the protocol and the staleness window.
pub struct LiveEngine {
    kind: FilterKind,
    opts: crate::BuildOpts,
    state: Mutex<LiveState>,
    /// Serializes refreshes: concurrent callers queue here, not on
    /// `state`, so readers stay unblocked while a build runs.
    refresh_gate: Mutex<()>,
}

impl LiveEngine {
    /// Builds generation 0 over `store` with the chosen filter
    /// (default build options).
    pub fn new(store: Arc<ObjectStore>, kind: FilterKind) -> Self {
        Self::with_opts(store, kind, SimilarityConfig, crate::BuildOpts::default())
    }

    /// Builds generation 0 with explicit build options. `opts.threads`
    /// is reused by every refresh for the build-side fan-out (0 = one
    /// worker per core). `SimilarityConfig` has one value; the
    /// parameter stays for linked callers.
    pub fn with_opts(
        store: Arc<ObjectStore>,
        kind: FilterKind,
        cfg: SimilarityConfig,
        opts: crate::BuildOpts,
    ) -> Self {
        let engine = Arc::new(SealEngine::build_with_opts(store, kind, cfg, opts));
        LiveEngine {
            kind,
            opts,
            state: Mutex::new(LiveState {
                engine,
                delta: DeltaSnapshot::default(),
                generation: 0,
            }),
            refresh_gate: Mutex::new(()),
        }
    }

    /// Stages an object for the next generation. Visible to queries
    /// immediately (scanned with the current generation's frozen
    /// weights) under the id it will keep after the next refresh.
    /// Returns that id. O(1) amortized even while readers hold
    /// snapshots (see [`DeltaSnapshot`]).
    pub fn push(&self, object: RoiObject) -> ObjectId {
        let mut s = self.state.lock().expect("live state lock");
        let id = ObjectId((s.engine.store().len() + s.delta.len()) as u32);
        s.delta.push(object);
        id
    }

    /// Stages a batch of objects (one lock round for the whole batch).
    /// Returns the id of the first staged object, with the rest
    /// consecutive — `None` when the iterator was empty (so callers
    /// can't mistake the next future id for a staged one).
    pub fn push_all<I: IntoIterator<Item = RoiObject>>(&self, objects: I) -> Option<ObjectId> {
        let mut s = self.state.lock().expect("live state lock");
        let first = ObjectId((s.engine.store().len() + s.delta.len()) as u32);
        let before = s.delta.len();
        s.delta.extend(objects);
        (s.delta.len() > before).then_some(first)
    }

    /// A consistent read snapshot: the current generation's engine and
    /// the staged delta, captured under one lock acquisition (held
    /// only for a handful of `Arc` clones — never across a probe). The
    /// delta's overlay ids start at `engine.store().len()`.
    pub fn snapshot(&self) -> (Arc<SealEngine>, DeltaSnapshot) {
        let s = self.state.lock().expect("live state lock");
        (s.engine.clone(), s.delta.clone())
    }

    /// The current generation's engine (for diagnostics: index bytes,
    /// filter name, store access).
    pub fn engine(&self) -> Arc<SealEngine> {
        self.state.lock().expect("live state lock").engine.clone()
    }

    /// The generation currently served (0 until the first non-empty
    /// refresh).
    pub fn generation(&self) -> u64 {
        self.state.lock().expect("live state lock").generation
    }

    /// Objects staged since the last refresh.
    pub fn staged_len(&self) -> usize {
        self.state.lock().expect("live state lock").delta.len()
    }

    /// Total objects answerable right now: current generation plus
    /// staged delta.
    pub fn len(&self) -> usize {
        let s = self.state.lock().expect("live state lock");
        s.engine.store().len() + s.delta.len()
    }

    /// True when no object is answerable (empty generation, empty
    /// delta).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answers a query against the current generation plus the staged
    /// delta (thread-local scratch; see [`SealEngine::search`]).
    pub fn search(&self, q: &Query) -> SearchResult {
        let (engine, delta) = self.snapshot();
        let mut result = engine.search(q);
        overlay_delta(&engine, &delta, q, &mut result);
        result
    }

    /// Answers a query using caller-owned scratch (the serving-loop
    /// pattern; see [`SealEngine::search_with_ctx`]).
    pub fn search_with_ctx(&self, q: &Query, ctx: &mut QueryContext) -> SearchResult {
        let (engine, delta) = self.snapshot();
        let mut result = engine.search_with_ctx(q, ctx);
        overlay_delta(&engine, &delta, q, &mut result);
        result
    }

    /// Answers a batch in parallel over one snapshot: every query in
    /// the batch sees the same generation and the same staged delta,
    /// even if a refresh swaps mid-batch. Each worker probes with
    /// [`SealEngine::search`] and overlays the delta on that result;
    /// `threads` follows the usual convention (0 = one worker per
    /// core).
    pub fn search_batch(&self, queries: &[Query], threads: usize) -> Vec<SearchResult> {
        let (engine, delta) = self.snapshot();
        seal_index::parallel::map_indexed(queries.len(), threads, |i| {
            let mut result = engine.search(&queries[i]);
            overlay_delta(&engine, &delta, &queries[i], &mut result);
            result
        })
    }

    /// Folds the staged delta into the **next generation**: extends
    /// the store (idf weights, global token order and space recomputed
    /// over the union), builds the next engine — off the swap lock, so
    /// readers keep serving the old generation throughout — and swaps
    /// the `Arc` in. Objects pushed *during* the build stay staged for
    /// the following refresh; their overlay ids are unaffected by the
    /// swap.
    ///
    /// Safe to call from any thread; concurrent refreshes serialize.
    /// A refresh with nothing staged is a no-op (no rebuild, no
    /// generation bump). After a non-empty refresh, answers are
    /// identical to a fresh [`SealEngine::build`] over the union
    /// corpus.
    pub fn refresh(&self) -> RefreshStats {
        self.refresh_via(None, false, |prev, staged| {
            Arc::new(prev.store().extended(staged))
        })
    }

    /// The generalized refresh every public flavor delegates to.
    ///
    /// * `cap` limits how much of the staged delta this refresh
    ///   absorbs: `Some(n)` merges only the first `n` staged objects
    ///   (pushes that landed after the caller decided on `n` stay
    ///   staged), `None` merges everything in the snapshot. The
    ///   sharding layer needs the cap: it computes one set of global
    ///   corpus artifacts over every shard's staged *prefix*, then
    ///   must merge exactly those prefixes — an uncapped merge would
    ///   fold in objects the artifacts never saw.
    /// * `force` rebuilds and swaps (bumping the generation) even with
    ///   an empty merge — how a sharded refresh moves an *untouched*
    ///   shard onto the new weight epoch. For the hierarchical filter
    ///   an empty-delta rebuild reuses every per-token HSS selection
    ///   (the scheme extension is the identity), so the forced rebuild
    ///   pays only posting re-bounding, not selection.
    /// * `make_union` builds the next generation's store from the
    ///   previous engine and the absorbed prefix — `extended` for the
    ///   standalone engine, `extended_with_artifacts` under a sharded
    ///   parent.
    pub(crate) fn refresh_via(
        &self,
        cap: Option<usize>,
        force: bool,
        make_union: impl FnOnce(&SealEngine, &[RoiObject]) -> Arc<ObjectStore>,
    ) -> RefreshStats {
        let _builder = self.refresh_gate.lock().expect("refresh gate");
        let (prev, delta) = self.snapshot();
        let merged = cap.map_or(delta.len(), |c| c.min(delta.len()));
        if merged == 0 && !force {
            let s = self.state.lock().expect("live state lock");
            return RefreshStats {
                generation: s.generation,
                merged: 0,
                total: s.engine.store().len(),
                build_seconds: 0.0,
                scheme_reused: false,
            };
        }
        let start = std::time::Instant::now();
        let staged: Vec<RoiObject> = delta.iter().take(merged).cloned().collect();
        // Release the delta snapshot before the (long) index build so
        // pushes arriving during the window can keep filling the tail
        // chunk instead of opening a new chunk per snapshot boundary.
        drop(delta);
        let union = make_union(&prev, &staged);
        drop(staged);
        let total = union.len();
        let built = SealEngine::build_next_generation(
            &prev,
            union,
            self.kind,
            self.opts,
            prev.store().len(),
        );
        let build_seconds = start.elapsed().as_secs_f64();
        let next = Arc::new(built.engine);
        let mut s = self.state.lock().expect("live state lock");
        s.engine = next;
        // Pushes only ever append, so the first `merged` staged
        // objects are exactly the ones the new generation absorbed.
        s.delta.drop_prefix(merged);
        s.generation += 1;
        RefreshStats {
            generation: s.generation,
            merged,
            total,
            build_seconds,
            scheme_reused: built.scheme_reused,
        }
    }

    /// Runs one **exact** threshold search at `τ = tau` (generation
    /// plus staged overlay, one consistent snapshot) and scores every
    /// answer by `α·simR + (1−α)·simT` under the snapshot's frozen
    /// corpus weights. Returns unranked `(id, score)` pairs — the
    /// building block `search_top_k` and the sharded merge rank, so
    /// both rank identical scores from identical snapshots.
    pub fn search_scored(
        &self,
        region: seal_geom::Rect,
        tokens: &seal_text::TokenSet,
        tau: f64,
        alpha: f64,
    ) -> Vec<(ObjectId, f64)> {
        let alpha = alpha.clamp(0.0, 1.0);
        let (engine, delta) = self.snapshot();
        let q = Query::new(region, tokens.clone(), tau, tau).expect("tau stays within (0,1]");
        let mut result = engine.search(&q);
        overlay_delta(&engine, &delta, &q, &mut result);
        let w = engine.store().weights();
        let scoring_q =
            Query::new(region, tokens.clone(), 1.0, 1.0).expect("static thresholds are valid");
        let base = engine.store().len();
        let staged: Vec<&RoiObject> = delta.iter().collect();
        result
            .answers
            .into_iter()
            .map(|id| {
                let o = if id.index() < base {
                    engine.store().get(id)
                } else {
                    staged[id.index() - base]
                };
                let s = alpha * crate::simfn::spatial_sim(&scoring_q, o)
                    + (1.0 - alpha) * crate::simfn::textual_sim(&scoring_q, o, w);
                (id, s)
            })
            .collect()
    }

    /// Top-k by iterative threshold deepening over the live view —
    /// the same τ-halving loop, scoring and `total_cmp`-then-id
    /// ranking as [`SealEngine::search_top_k`], with the staged delta
    /// overlaid at every depth (staged objects scored with the frozen
    /// generation weights, like every other delta answer).
    pub fn search_top_k(
        &self,
        region: seal_geom::Rect,
        tokens: seal_text::TokenSet,
        k: usize,
        alpha: f64,
    ) -> Vec<(ObjectId, f64)> {
        crate::engine::top_k_by_deepening(k, |tau| self.search_scored(region, &tokens, tau, alpha))
    }
}

/// Appends the staged delta's answers to a generation result: a naive
/// scan under the generation's **frozen** weights (the staleness
/// window of the module docs), ids offset past the generation's store.
/// Mirrors what `verify::naive_search` would do, so delta semantics
/// match the oracle over "old corpus + this object".
fn overlay_delta(engine: &SealEngine, delta: &DeltaSnapshot, q: &Query, result: &mut SearchResult) {
    if delta.is_empty() {
        return;
    }
    let base = engine.store().len() as u32;
    let weights = engine.store().weights();
    for (i, o) in delta.iter().enumerate() {
        if crate::simfn::is_answer(q, o, weights) {
            result.answers.push(ObjectId(base + i as u32));
            result.stats.results += 1;
        }
    }
    result.stats.candidates += delta.len();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;
    use crate::verify::naive_search;
    use seal_geom::Rect;
    use seal_text::{TokenId, TokenSet};

    fn delta_objects() -> Vec<RoiObject> {
        vec![
            // Overlaps the Example 1 query region with its tokens.
            RoiObject::new(
                Rect::new(22.0, 12.0, 68.0, 43.0).unwrap(),
                TokenSet::from_ids([TokenId(0), TokenId(1), TokenId(2)]),
            ),
            RoiObject::new(
                Rect::new(100.0, 100.0, 118.0, 118.0).unwrap(),
                TokenSet::from_ids([TokenId(4)]),
            ),
        ]
    }

    #[test]
    fn pushed_objects_are_answerable_before_refresh() {
        let (store, q) = figure1_store();
        let live = LiveEngine::new(Arc::new(store), FilterKind::seal_default());
        let before = live.search(&q).sorted().answers;
        assert_eq!(before, vec![ObjectId(1)], "Example 1 baseline");
        let id = live.push(delta_objects()[0].clone());
        assert_eq!(id, ObjectId(7), "delta ids continue the store's");
        let after = live.search(&q).sorted().answers;
        assert_eq!(after, vec![ObjectId(1), ObjectId(7)], "visible immediately");
        assert_eq!(live.len(), 8);
        assert_eq!(live.staged_len(), 1);
        assert_eq!(live.generation(), 0);
    }

    #[test]
    fn refresh_matches_fresh_build_over_the_union() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        for kind in [
            FilterKind::Token,
            FilterKind::TokenCompressed,
            FilterKind::Grid { side: 8 },
            FilterKind::Hierarchical {
                max_level: 4,
                budget: 8,
            },
        ] {
            let live = LiveEngine::new(store.clone(), kind);
            let delta = delta_objects();
            live.push_all(delta.clone());
            let stats = live.refresh();
            assert_eq!(stats.generation, 1);
            assert_eq!(stats.merged, 2);
            assert_eq!(stats.total, 9);
            assert_eq!(live.staged_len(), 0);
            let union = Arc::new(store.extended(&delta));
            let fresh = SealEngine::build(union, kind);
            for (tr, tt) in [(0.1, 0.1), (0.25, 0.3), (0.6, 0.6)] {
                let q = q0.with_thresholds(tr, tt).unwrap();
                assert_eq!(
                    live.search(&q).sorted().answers,
                    fresh.search(&q).sorted().answers,
                    "{kind:?} τ=({tr},{tt})"
                );
            }
        }
    }

    #[test]
    fn empty_refresh_is_a_no_op() {
        let (store, _q) = figure1_store();
        let live = LiveEngine::new(Arc::new(store), FilterKind::Token);
        let stats = live.refresh();
        assert_eq!(stats.generation, 0);
        assert_eq!(stats.merged, 0);
        assert_eq!(stats.total, 7);
        assert!(!stats.scheme_reused);
        assert_eq!(live.generation(), 0);
    }

    #[test]
    fn hierarchical_refresh_reuses_the_scheme() {
        let (store, _q) = figure1_store();
        let live = LiveEngine::new(
            Arc::new(store),
            FilterKind::Hierarchical {
                max_level: 4,
                budget: 8,
            },
        );
        live.push_all(delta_objects());
        let stats = live.refresh();
        assert!(
            stats.scheme_reused,
            "delta inside the space MBR reuses HSS selections"
        );
        assert!(stats.build_seconds >= 0.0);
    }

    #[test]
    fn delta_overlay_uses_frozen_weights() {
        // The staleness window, pinned: before the refresh the staged
        // object is judged with the old corpus's idf weights; the
        // oracle over "old corpus + object" must agree.
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let live = LiveEngine::new(store.clone(), FilterKind::Token);
        let o = delta_objects()[0].clone();
        live.push(o.clone());
        let q = q0.with_thresholds(0.25, 0.3).unwrap();
        let got = live.search(&q).sorted().answers;
        let cfg = SimilarityConfig;
        let mut expect = naive_search(&store, &cfg, &q);
        if cfg.is_answer(&q, &o, store.weights()) {
            expect.push(ObjectId(store.len() as u32));
        }
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn batch_sees_one_consistent_snapshot() {
        let (store, q0) = figure1_store();
        let live = LiveEngine::new(Arc::new(store), FilterKind::Grid { side: 8 });
        assert_eq!(live.push_all(Vec::new()), None, "empty batch stages no id");
        assert_eq!(live.push_all(delta_objects()), Some(ObjectId(7)));
        let queries: Vec<Query> = [(0.1, 0.1), (0.25, 0.3), (0.5, 0.5)]
            .iter()
            .map(|&(tr, tt)| q0.with_thresholds(tr, tt).unwrap())
            .collect();
        let sequential: Vec<Vec<ObjectId>> = queries
            .iter()
            .map(|q| live.search(q).sorted().answers)
            .collect();
        for threads in [0usize, 1, 4] {
            let batch: Vec<Vec<ObjectId>> = live
                .search_batch(&queries, threads)
                .into_iter()
                .map(|r| r.sorted().answers)
                .collect();
            assert_eq!(batch, sequential, "threads={threads}");
        }
    }

    #[test]
    fn pushes_during_a_refresh_stay_staged() {
        // Simulated interleaving (the real concurrent test lives in
        // tests/live_ingest.rs): push, refresh, push again — the
        // second push must survive the swap with a stable id.
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let live = LiveEngine::new(store.clone(), FilterKind::Token);
        let delta = delta_objects();
        let id0 = live.push(delta[0].clone());
        assert_eq!(id0, ObjectId(7));
        live.refresh();
        let id1 = live.push(delta[1].clone());
        assert_eq!(id1, ObjectId(8), "ids stay dense across the swap");
        assert_eq!(live.staged_len(), 1);
        assert_eq!(live.len(), 9);
        let q = q0.with_thresholds(0.1, 0.1).unwrap();
        let live_answers = live.search(&q).sorted().answers;
        // After the second refresh everything is frozen and must match
        // a fresh union build exactly.
        live.refresh();
        assert_eq!(live.generation(), 2);
        let union = Arc::new(store.extended(&delta));
        let fresh = SealEngine::build(union, FilterKind::Token);
        assert_eq!(
            live.search(&q).sorted().answers,
            fresh.search(&q).sorted().answers
        );
        // And the pre-refresh overlay had already surfaced both ids.
        assert!(live_answers.contains(&ObjectId(7)) || !live_answers.is_empty());
    }

    #[test]
    fn pushes_under_an_outstanding_snapshot_do_not_copy_staged_objects() {
        let (store, q0) = figure1_store();
        let live = LiveEngine::new(Arc::new(store), FilterKind::Token);
        let delta = delta_objects();
        live.push(delta[0].clone());
        // A reader snapshot pins the tail chunk...
        let (_engine, pinned) = live.snapshot();
        let pinned_chunk = pinned.chunks[0].clone();
        // ...so the next push must open a new chunk, leaving the
        // pinned one untouched (same allocation, same length).
        live.push(delta[1].clone());
        let (_engine2, now) = live.snapshot();
        assert_eq!(now.len(), 2);
        assert_eq!(now.chunks.len(), 2, "racing push opens a fresh chunk");
        assert!(
            Arc::ptr_eq(&now.chunks[0], &pinned_chunk),
            "pinned chunk must be shared, not copied"
        );
        assert_eq!(pinned.len(), 1, "old snapshot still sees one object");
        // Once the reader snapshots are gone, pushes fill the tail
        // chunk in place again.
        drop(pinned);
        drop(now);
        live.push(delta[0].clone());
        let (_engine3, after) = live.snapshot();
        assert_eq!(after.len(), 3);
        assert_eq!(after.chunks.len(), 2, "tail chunk reused while unshared");
        // And the overlay sees all staged objects in push order.
        let q = q0.with_thresholds(0.1, 0.1).unwrap();
        let answers = live.search(&q).sorted().answers;
        assert!(answers.contains(&ObjectId(7)) && answers.contains(&ObjectId(9)));
    }

    #[test]
    fn drop_prefix_handles_chunk_boundaries() {
        let mut d = DeltaSnapshot::default();
        let objs = delta_objects();
        d.push(objs[0].clone());
        let pin = d.clone(); // force a chunk break
        d.push(objs[1].clone());
        d.push(objs[0].clone());
        drop(pin);
        assert_eq!(d.len(), 3);
        assert_eq!(d.chunks.len(), 2);
        // Drop a prefix that splits the second chunk.
        d.drop_prefix(2);
        assert_eq!(d.len(), 1);
        assert_eq!(d.iter().count(), 1);
        assert_eq!(d.iter().next().unwrap(), &objs[0]);
        d.drop_prefix(5); // over-drop is clamped
        assert_eq!(d.len(), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn live_top_k_matches_engine_top_k_without_delta() {
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let engine = SealEngine::build(store.clone(), FilterKind::Token);
        let live = LiveEngine::new(store, FilterKind::Token);
        for alpha in [0.0, 0.5, 1.0] {
            for k in [1usize, 3, 100] {
                assert_eq!(
                    live.search_top_k(q.region, q.tokens.clone(), k, alpha),
                    engine.search_top_k(q.region, q.tokens.clone(), k, alpha),
                    "k={k} alpha={alpha}"
                );
            }
        }
    }

    #[test]
    fn live_top_k_sees_staged_objects() {
        let (store, q) = figure1_store();
        let live = LiveEngine::new(Arc::new(store), FilterKind::Token);
        // A staged near-duplicate of the query region must rank near
        // the top before any refresh.
        live.push(delta_objects()[0].clone());
        let top = live.search_top_k(q.region, q.tokens.clone(), 2, 0.5);
        assert!(
            top.iter().any(|(id, _)| *id == ObjectId(7)),
            "staged object missing from top-k: {top:?}"
        );
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn forced_refresh_with_empty_delta_swaps_a_generation() {
        let (store, _q) = figure1_store();
        let live = LiveEngine::new(Arc::new(store), FilterKind::Token);
        let stats = live.refresh_via(Some(0), true, |prev, staged| {
            assert!(staged.is_empty());
            Arc::new(prev.store().extended(staged))
        });
        assert_eq!(stats.generation, 1, "forced refresh bumps the generation");
        assert_eq!(stats.merged, 0);
        assert_eq!(live.generation(), 1);
    }

    #[test]
    fn capped_refresh_merges_only_the_prefix() {
        let (store, q0) = figure1_store();
        let live = LiveEngine::new(Arc::new(store), FilterKind::Token);
        let delta = delta_objects();
        live.push_all(delta.clone());
        let stats = live.refresh_via(Some(1), false, |prev, staged| {
            assert_eq!(staged.len(), 1);
            Arc::new(prev.store().extended(staged))
        });
        assert_eq!(stats.merged, 1);
        assert_eq!(stats.total, 8);
        assert_eq!(live.staged_len(), 1, "second staged object survives");
        // The survivor keeps its id and stays answerable.
        let q = q0.with_thresholds(0.1, 0.1).unwrap();
        let answers = live.search(&q).sorted().answers;
        assert!(answers.contains(&ObjectId(7)));
    }

    #[test]
    fn empty_live_engine_is_safe() {
        let store = Arc::new(ObjectStore::from_objects(Vec::new(), 0));
        let live = LiveEngine::new(store, FilterKind::Token);
        assert!(live.is_empty());
        live.push(RoiObject::new(
            Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(),
            TokenSet::from_ids([TokenId(0)]),
        ));
        assert!(!live.is_empty());
        let q = Query::with_token_ids(
            Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(),
            [TokenId(0)],
            0.5,
            0.5,
        )
        .unwrap();
        assert_eq!(live.search(&q).answers, vec![ObjectId(0)]);
        let stats = live.refresh();
        assert_eq!(stats.merged, 1);
        assert_eq!(live.search(&q).answers, vec![ObjectId(0)]);
    }
}
