//! The `SealSig` engine (Algorithm 1): signature generation + index
//! construction at build time, `Sig-Filter` → `Sig-Verify` at query
//! time, behind one facade.

use crate::filters::{
    CandidateFilter, GridFilter, HierarchicalFilter, HybridFilter, QueryContext, Storage,
    TokenFilter,
};
use crate::verify::verify;
use crate::{ObjectId, ObjectStore, Query, SearchStats, SimilarityConfig};
use std::sync::Arc;

/// Which filtering method the engine builds (Table 1's signature-index
/// rows; the §2.3 baselines live with the reproduction in `seal-bench`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterKind {
    /// `Sig-Filter+` on textual signatures (`TokenInv`).
    Token,
    /// `Sig-Filter+` on textual signatures served **in place** off the
    /// compressed arena (`TokenInv` in its at-rest form): ~4× smaller
    /// lists, probes decode only the qualifying prefix into the
    /// [`QueryContext`] scratch.
    TokenCompressed,
    /// `Sig-Filter+` on grid signatures (`GridInv`) at the given
    /// granularity (cells per side).
    Grid {
        /// Cells per side.
        side: u32,
    },
    /// `Hybrid-Sig-Filter+` on hash-based hybrid signatures (`HashInv`).
    HashHybrid {
        /// Cells per side.
        side: u32,
        /// Hash-bucket constraint (None = full 64-bit hashing).
        buckets: Option<u64>,
    },
    /// `Hybrid-Sig-Filter+` served in place off the compressed
    /// dual-bound arena (`HashInv` in its at-rest form).
    HashHybridCompressed {
        /// Cells per side.
        side: u32,
        /// Hash-bucket constraint (None = full 64-bit hashing).
        buckets: Option<u64>,
    },
    /// `Hybrid-Sig-Filter+` on hierarchical hybrid signatures
    /// (`HierarchicalInv`) — the configuration the paper calls **Seal**.
    Hierarchical {
        /// Grid-tree depth.
        max_level: u8,
        /// `m_t`: selected grids per token.
        budget: usize,
    },
}

impl FilterKind {
    /// The paper's default SEAL configuration: hierarchical hybrid
    /// signatures with a level-10 tree (1024×1024 finest grain) and a
    /// 16-cell per-token budget.
    pub fn seal_default() -> Self {
        FilterKind::Hierarchical {
            max_level: 10,
            budget: 16,
        }
    }

    /// The storage form the configuration serves its posting lists
    /// from: compressed for the two `*Compressed` configurations, the
    /// uncompressed arena for every other one.
    pub(crate) fn storage(&self) -> Storage {
        match self {
            FilterKind::TokenCompressed | FilterKind::HashHybridCompressed { .. } => {
                Storage::Compressed
            }
            _ => Storage::Arena,
        }
    }
}

/// The result of [`SealEngine::build_next_generation`]: the engine
/// plus what the rebuild managed to reuse from the previous
/// generation (surfaced by `LiveEngine::refresh` stats).
pub struct GenerationBuild {
    /// The next generation's engine.
    pub engine: SealEngine,
    /// True when the previous generation's per-token HSS selections
    /// were reused (hierarchical filter, delta inside the space MBR).
    pub scheme_reused: bool,
}

/// One answered query: the ids plus the per-step statistics.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Answer object ids (ascending by candidate discovery, then
    /// verified; call [`SearchResult::sorted`] for id order).
    pub answers: Vec<ObjectId>,
    /// Filter/verify counters.
    pub stats: SearchStats,
}

impl SearchResult {
    /// The answers sorted by id (convenient for comparisons).
    pub fn sorted(mut self) -> Self {
        self.answers.sort_unstable();
        self
    }
}

/// The spatio-textual similarity search engine.
pub struct SealEngine {
    store: Arc<ObjectStore>,
    filter: Box<dyn CandidateFilter>,
    kind: FilterKind,
}

impl SealEngine {
    /// Builds an engine over a store with the chosen filter.
    pub fn build(store: Arc<ObjectStore>, kind: FilterKind) -> Self {
        Self::build_with_opts(store, kind, SimilarityConfig, crate::BuildOpts::default())
    }

    /// Builds with explicit build options. `BuildOpts::threads` fans
    /// the build-side work (per-token `HSS-Greedy` selections, the
    /// staged group sorts inside `finalize`) out over a work-stealing
    /// pool; the resulting index is **identical for every thread
    /// count** — parallelism buys wall-clock time only.
    /// `SimilarityConfig` has one value; the parameter stays for
    /// linked callers.
    pub fn build_with_opts(
        store: Arc<ObjectStore>,
        kind: FilterKind,
        _: SimilarityConfig,
        opts: crate::BuildOpts,
    ) -> Self {
        let storage = kind.storage();
        let filter: Box<dyn CandidateFilter> = match kind {
            FilterKind::Token | FilterKind::TokenCompressed => {
                Box::new(TokenFilter::build_with_opts(store.clone(), opts, storage))
            }
            FilterKind::Grid { side } => {
                Box::new(GridFilter::build_with_opts(store.clone(), side, opts))
            }
            FilterKind::HashHybrid { side, buckets }
            | FilterKind::HashHybridCompressed { side, buckets } => {
                Box::new(HybridFilter::build_with_opts(
                    store.clone(),
                    side,
                    crate::persist::bucket_scheme(buckets),
                    opts,
                    storage,
                ))
            }
            FilterKind::Hierarchical { max_level, budget } => Box::new(
                HierarchicalFilter::build_with_opts(store.clone(), max_level, budget, opts),
            ),
        };
        SealEngine {
            store,
            filter,
            kind,
        }
    }

    /// Builds the engine for the **next generation** of `prev`'s
    /// store: `store` must be `prev`'s store with the objects
    /// `delta_start..` appended (the shape [`ObjectStore::extended`]
    /// produces, ids stable). Where the filter supports it, build-side
    /// work provably unchanged by the delta is reused from `prev` —
    /// today that is the hierarchical filter's per-token `HSS-Greedy`
    /// selections, its dominant build cost — and the result is
    /// **identical** to [`build_with_opts`](Self::build_with_opts)
    /// over the union store (the generation contract `LiveEngine`
    /// pins with proptests). Falls back to a fresh build whenever
    /// reuse does not apply.
    pub fn build_next_generation(
        prev: &SealEngine,
        store: Arc<ObjectStore>,
        kind: FilterKind,
        opts: crate::BuildOpts,
        delta_start: usize,
    ) -> GenerationBuild {
        if let FilterKind::Hierarchical { max_level, budget } = kind {
            if let Some(prev_h) = prev
                .filter
                .as_any()
                .and_then(|a| a.downcast_ref::<HierarchicalFilter>())
            {
                let same_shape = prev_h.scheme().budget() == budget
                    && prev_h.scheme().tree().max_level() == max_level;
                if same_shape {
                    if let Some(filter) =
                        HierarchicalFilter::build_extended(prev_h, store.clone(), delta_start, opts)
                    {
                        return GenerationBuild {
                            engine: SealEngine {
                                store,
                                filter: Box::new(filter),
                                kind,
                            },
                            scheme_reused: true,
                        };
                    }
                }
            }
        }
        GenerationBuild {
            engine: SealEngine::build_with_opts(store, kind, SimilarityConfig, opts),
            scheme_reused: false,
        }
    }

    /// Answers a query: filter, then verify (Algorithm 1).
    ///
    /// Runs over a **thread-local** [`QueryContext`]: repeated calls on
    /// one thread reuse the same scratch (shared across engines on that
    /// thread; buffers size to the largest store), so once warm the
    /// filter step allocates nothing and only the answer vector is
    /// allocated. [`search_batch`](Self::search_batch) runs this on its
    /// workers; [`search_with_ctx`](Self::search_with_ctx) takes
    /// caller-owned scratch instead.
    pub fn search(&self, q: &Query) -> SearchResult {
        thread_local! {
            static CTX: std::cell::RefCell<QueryContext> =
                std::cell::RefCell::new(QueryContext::new());
        }
        CTX.with(|c| self.search_with_ctx(q, &mut c.borrow_mut()))
    }

    /// Answers a query using caller-owned scratch. After the context
    /// has warmed to the store size, the filter step performs no heap
    /// allocations; only the returned answer vector is allocated.
    pub fn search_with_ctx(&self, q: &Query, ctx: &mut QueryContext) -> SearchResult {
        let mut stats = SearchStats::new();
        self.filter.candidates_into(q, ctx, &mut stats);
        let answers = verify(
            &self.store,
            &SimilarityConfig,
            q,
            ctx.candidates(),
            &mut stats,
        );
        SearchResult { answers, stats }
    }

    /// Answers a batch: [`search`](Self::search) per query on
    /// [`seal_index::parallel::map_indexed`] workers (`threads`: `0` =
    /// one per core, clamped to the batch size). Results come back in
    /// input order; a batch of one runs inline on the caller's warm
    /// context.
    pub fn search_batch(&self, queries: &[Query], threads: usize) -> Vec<SearchResult> {
        seal_index::parallel::map_indexed(queries.len(), threads, |i| self.search(&queries[i]))
    }

    /// Reassembles an engine from persisted parts (the container
    /// loader's constructor — field privacy keeps every other path
    /// through [`build_with_opts`](Self::build_with_opts)).
    pub(crate) fn from_loaded_parts(
        store: Arc<ObjectStore>,
        filter: Box<dyn CandidateFilter>,
        kind: FilterKind,
    ) -> Self {
        SealEngine {
            store,
            filter,
            kind,
        }
    }

    /// The store the engine serves.
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// The filter kind the engine was built with (what
    /// [`save`](Self::save) persists and [`load`](Self::load)
    /// reconstructs).
    pub fn kind(&self) -> FilterKind {
        self.kind
    }

    /// The similarity configuration (it has one value; the method
    /// stays for linked callers).
    pub fn config(&self) -> SimilarityConfig {
        SimilarityConfig
    }

    /// The active filter's display name.
    pub fn filter_name(&self) -> &'static str {
        self.filter.name()
    }

    /// Index bytes of the active filter (Table 1).
    pub fn index_bytes(&self) -> usize {
        self.filter.index_bytes()
    }

    /// Direct access to the filter (diagnostics, benchmarks).
    pub fn filter(&self) -> &dyn CandidateFilter {
        self.filter.as_ref()
    }

    /// Top-k extension (the related-work direction of §2.2 adapted to
    /// ROI similarity): returns the `k` objects with the highest
    /// combined score `α·simR + (1−α)·simT` among those passing *some*
    /// qualifying threshold, found by iterative threshold deepening.
    ///
    /// Starting from `τ = τ_start` the engine runs a threshold search
    /// and halves both thresholds until at least `k` answers exist (or
    /// the floor `τ_min` is reached), then ranks the answers by score.
    /// Because the threshold search is exact at every step, the result
    /// equals "rank all objects with `min(simR, simT) ≥ τ_final`" — a
    /// deterministic, reproducible top-k semantics that reuses the
    /// signature indexes unchanged.
    pub fn search_top_k(
        &self,
        region: seal_geom::Rect,
        tokens: seal_text::TokenSet,
        k: usize,
        alpha: f64,
    ) -> Vec<(ObjectId, f64)> {
        let alpha = alpha.clamp(0.0, 1.0);
        let w = self.store.weights();
        // One scoring query for every depth: `Query::new` clones the
        // token set.
        let scoring_q =
            Query::new(region, tokens.clone(), 1.0, 1.0).expect("static thresholds are valid");
        top_k_by_deepening(k, |tau| {
            let q = Query::new(region, tokens.clone(), tau, tau).expect("tau stays within (0,1]");
            let score = |id| {
                let o = self.store.get(id);
                alpha * crate::simfn::spatial_sim(&scoring_q, o)
                    + (1.0 - alpha) * crate::simfn::textual_sim(&scoring_q, o, w)
            };
            let answers = self.search(&q).answers;
            answers.into_iter().map(|id| (id, score(id))).collect()
        })
    }
}

/// Top-k by iterative threshold deepening — the one loop behind every
/// engine's `search_top_k`. `scored_at(τ)` runs one exact threshold
/// search at `τ_R = τ_T = τ` and scores its answers; starting from
/// `τ = 0.5` both thresholds are halved until at least `k` answers
/// exist (or the floor `τ = 0.01` is reached), then the answers are
/// ranked by descending score, ties by ascending id.
///
/// The order is total: scores are NaN-free by the simfn boundary
/// contract (`simfn` rejects NaN similarities the way
/// `Arena::push_row` rejects NaN bounds), and `total_cmp` removes the
/// `unwrap_or(Equal)` escape hatch that would let a stray NaN silently
/// destabilize the ranking.
pub(crate) fn top_k_by_deepening(
    k: usize,
    mut scored_at: impl FnMut(f64) -> Vec<(ObjectId, f64)>,
) -> Vec<(ObjectId, f64)> {
    const TAU_MIN: f64 = 0.01;
    let mut tau = 0.5f64;
    let mut scored = loop {
        let found = scored_at(tau);
        if found.len() >= k || tau <= TAU_MIN {
            break found;
        }
        tau = (tau / 2.0).max(TAU_MIN);
    };
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

#[cfg(test)]
impl FilterKind {
    /// Every configuration as the product of two lists — the schemes
    /// and the storage forms their posting lists can be served from —
    /// in scheme-major order, the hash-hybrid scheme once per entry of
    /// `buckets` in each of its forms (`tests/util::kinds` is the
    /// integration tests' twin).
    pub(crate) fn matrix(
        side: u32,
        buckets: &[Option<u64>],
        max_level: u8,
        budget: usize,
    ) -> Vec<FilterKind> {
        use FilterKind::*;
        let schemes = [
            Token,
            Grid { side },
            HashHybrid {
                side,
                buckets: None,
            },
            Hierarchical { max_level, budget },
        ];
        let mut kinds = Vec::new();
        for scheme in schemes {
            for storage in [Storage::Arena, Storage::Compressed] {
                match (scheme, storage) {
                    (HashHybrid { side, .. }, Storage::Arena) => {
                        kinds.extend(buckets.iter().map(|&buckets| HashHybrid { side, buckets }))
                    }
                    (HashHybrid { side, .. }, Storage::Compressed) => kinds.extend(
                        buckets
                            .iter()
                            .map(|&buckets| HashHybridCompressed { side, buckets }),
                    ),
                    (Token, Storage::Compressed) => kinds.push(TokenCompressed),
                    (scheme, Storage::Arena) => kinds.push(scheme),
                    (_, Storage::Compressed) => {} // no compressed form
                }
            }
        }
        kinds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;
    use crate::verify::naive_search;

    fn all_kinds() -> Vec<FilterKind> {
        FilterKind::matrix(8, &[None, Some(64)], 4, 8)
    }

    #[test]
    fn every_engine_matches_the_oracle() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig;
        for kind in all_kinds() {
            let engine = SealEngine::build(store.clone(), kind);
            for (tr, tt) in [(0.1, 0.1), (0.25, 0.3), (0.6, 0.6)] {
                let q = q0.with_thresholds(tr, tt).unwrap();
                let got = engine.search(&q).sorted();
                let mut expect = naive_search(&store, &cfg, &q);
                expect.sort_unstable();
                assert_eq!(
                    got.answers, expect,
                    "{kind:?} τ=({tr},{tt}) disagrees with the oracle"
                );
            }
        }
    }

    #[test]
    fn example1_via_the_default_engine() {
        let (store, q) = figure1_store();
        let engine = SealEngine::build(
            Arc::new(store),
            FilterKind::Hierarchical {
                max_level: 4,
                budget: 8,
            },
        );
        let result = engine.search(&q);
        assert_eq!(result.answers, vec![ObjectId(1)], "A = {{o2}}");
        assert!(result.stats.candidates >= 1);
        assert_eq!(result.stats.results, 1);
        assert_eq!(engine.filter_name(), "Seal");
        assert!(engine.index_bytes() > 0);
        assert_eq!(engine.store().len(), 7);
    }

    #[test]
    fn seal_default_is_hierarchical() {
        assert!(matches!(
            FilterKind::seal_default(),
            FilterKind::Hierarchical { .. }
        ));
    }

    #[test]
    fn top_k_returns_ranked_results() {
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let engine = SealEngine::build(
            store.clone(),
            FilterKind::Hierarchical {
                max_level: 4,
                budget: 8,
            },
        );
        let top = engine.search_top_k(q.region, q.tokens.clone(), 3, 0.5);
        assert!(!top.is_empty());
        assert!(top.len() <= 3);
        // Scores descending, o2 (the Example 1 answer) ranked first.
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(top[0].0, ObjectId(1));
        // k larger than the store: returns everything qualifying.
        let all = engine.search_top_k(q.region, q.tokens.clone(), 100, 0.5);
        assert!(all.len() <= 7);
        assert!(all.len() >= top.len());
    }

    #[test]
    fn batch_search_matches_sequential() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let engine = SealEngine::build(store, FilterKind::Grid { side: 8 });
        let queries: Vec<Query> = [(0.1, 0.1), (0.25, 0.3), (0.5, 0.5), (0.7, 0.2), (0.2, 0.7)]
            .iter()
            .map(|&(tr, tt)| q0.with_thresholds(tr, tt).unwrap())
            .collect();
        let sequential: Vec<Vec<ObjectId>> = queries
            .iter()
            .map(|q| engine.search(q).sorted().answers)
            .collect();
        for threads in [0usize, 1, 2, 3, 8, 64] {
            let batch: Vec<Vec<ObjectId>> = engine
                .search_batch(&queries, threads)
                .into_iter()
                .map(|r| r.sorted().answers)
                .collect();
            assert_eq!(batch, sequential, "threads={threads}");
        }
        // Empty batch.
        assert!(engine.search_batch(&[], 4).is_empty());
        assert!(engine.search_batch(&[], 0).is_empty());
    }

    /// A deterministic mid-sized store (no RNG dependency): varied
    /// regions over a ~1000×1000 space with Zipf-ish token reuse.
    fn synthetic_store(n: usize, vocab: u32) -> crate::ObjectStore {
        use seal_geom::Rect;
        use seal_text::{TokenId, TokenSet};
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u32
        };
        let objects: Vec<crate::RoiObject> = (0..n)
            .map(|_| {
                let x = f64::from(next() % 1000);
                let y = f64::from(next() % 1000);
                let w = 1.0 + f64::from(next() % 60);
                let h = 1.0 + f64::from(next() % 60);
                let k = 1 + (next() % 4) as usize;
                let tokens: Vec<TokenId> = (0..k).map(|_| TokenId(next() % vocab)).collect();
                crate::RoiObject::new(
                    Rect::new(x, y, x + w, y + h).unwrap(),
                    TokenSet::from_ids(tokens),
                )
            })
            .collect();
        crate::ObjectStore::from_objects(objects, vocab as usize)
    }

    #[test]
    fn thread_local_context_survives_cross_store_and_kind_reuse() {
        use seal_geom::Rect;
        use seal_text::TokenId;
        // `SealEngine::search` shares one thread-local QueryContext
        // across every engine and store this thread touches. Warm it
        // on a small store, then a ~100× larger one, then the small
        // one again — across compressed and uncompressed kinds — and
        // every answer must still match the oracle: epoch stamps and
        // decode scratch regrow, never panic or mis-dedup.
        let (small_store, q_small) = figure1_store();
        let small = Arc::new(small_store);
        let big = Arc::new(synthetic_store(800, 40));
        let q_big = Query::with_token_ids(
            Rect::new(100.0, 100.0, 700.0, 700.0).unwrap(),
            [TokenId(1), TokenId(2), TokenId(3)],
            0.05,
            0.05,
        )
        .unwrap();
        let cfg = SimilarityConfig;
        let mut expect_small = naive_search(&small, &cfg, &q_small);
        expect_small.sort_unstable();
        let mut expect_big = naive_search(&big, &cfg, &q_big);
        expect_big.sort_unstable();
        for kind in all_kinds() {
            let e_small = SealEngine::build(small.clone(), kind);
            let e_big = SealEngine::build(big.clone(), kind);
            for round in 0..2 {
                assert_eq!(
                    e_small.search(&q_small).sorted().answers,
                    expect_small,
                    "{kind:?} small store, round {round}"
                );
                assert_eq!(
                    e_big.search(&q_big).sorted().answers,
                    expect_big,
                    "{kind:?} big store, round {round}"
                );
            }
        }
    }

    #[test]
    fn next_generation_engine_matches_fresh_union_build() {
        use seal_geom::Rect;
        use seal_text::{TokenId, TokenSet};
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let kind = FilterKind::Hierarchical {
            max_level: 4,
            budget: 8,
        };
        let prev = SealEngine::build(store.clone(), kind);
        let delta = vec![crate::RoiObject::new(
            Rect::new(20.0, 15.0, 80.0, 42.0).unwrap(),
            TokenSet::from_ids([TokenId(0), TokenId(1), TokenId(2)]),
        )];
        let union = Arc::new(store.extended(&delta));
        let next = SealEngine::build_next_generation(
            &prev,
            union.clone(),
            kind,
            crate::BuildOpts::default(),
            store.len(),
        );
        assert!(
            next.scheme_reused,
            "delta inside the space MBR must reuse the HSS selections"
        );
        let fresh = SealEngine::build(union.clone(), kind);
        for (tr, tt) in [(0.1, 0.1), (0.25, 0.3), (0.6, 0.6)] {
            let q = q0.with_thresholds(tr, tt).unwrap();
            assert_eq!(
                next.engine.search(&q).sorted().answers,
                fresh.search(&q).sorted().answers,
                "τ=({tr},{tt})"
            );
        }
        // Non-hierarchical kinds fall back to a fresh build — still
        // correct, just nothing to reuse.
        let prev_t = SealEngine::build(store.clone(), FilterKind::Token);
        let next_t = SealEngine::build_next_generation(
            &prev_t,
            union.clone(),
            FilterKind::Token,
            crate::BuildOpts::default(),
            store.len(),
        );
        assert!(!next_t.scheme_reused);
        let fresh_t = SealEngine::build(union, FilterKind::Token);
        let q = q0.with_thresholds(0.2, 0.2).unwrap();
        assert_eq!(
            next_t.engine.search(&q).sorted().answers,
            fresh_t.search(&q).sorted().answers,
        );
    }

    #[test]
    fn top_k_alpha_extremes() {
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let engine = SealEngine::build(store.clone(), FilterKind::Token);
        // α = 1: ranked purely spatially; α = 0: purely textually.
        let spatial = engine.search_top_k(q.region, q.tokens.clone(), 7, 1.0);
        let textual = engine.search_top_k(q.region, q.tokens.clone(), 7, 0.0);
        for (id, score) in &spatial {
            let o = store.get(*id);
            let qq = q.with_thresholds(1.0, 1.0).unwrap();
            assert!((score - crate::simfn::spatial_sim(&qq, o)).abs() < 1e-12);
        }
        for w in textual.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
