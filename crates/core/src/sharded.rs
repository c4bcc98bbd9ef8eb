//! Sharded serving: partition the corpus across N [`LiveEngine`]
//! shards behind the [`QueryEngine`] boundary.
//!
//! # Partitioning
//!
//! Objects route to shards by a **locality-preserving spatial
//! partitioner**: a uniform [`seal_geom::Grid`] over the corpus space,
//! cells mapped to shards in contiguous row-major runs cut so each run
//! holds roughly 1/N of the initial corpus mass, each object routed by
//! the cell of its region's center. Spatially close objects
//! land on the same shard, so a query MBR touches few shards — the
//! Social-Hash argument (co-locate what is queried together) applied
//! to spatial locality. A hotspot cell too heavy for one run (a dense
//! city at continental scale) is split across the shards its mass
//! interval covers, objects dealt through the interval by a per-cell
//! counter so each shard receives exactly its proportional share — the
//! one place balance is bought with fan-out, and only for queries that
//! actually hit the hotspot. Every initial object owns one unit of
//! the mass map, so shard `s` receives ⌈(s+1)T/N⌉ − ⌈sT/N⌉ ≤ ⌈T/N⌉ of
//! the `T` initial objects: construction is balanced by arithmetic,
//! and no second policy stands beside this one. The map is frozen at
//! construction so pushes route deterministically forever after.
//!
//! # Exactness
//!
//! Sharding never changes answers, only where the work happens:
//!
//! * Every shard-local store carries **injected global artifacts**
//!   ([`CorpusArtifacts`]): the whole corpus's idf weights, token
//!   order, space MBR and vocabulary. Filter bounds and verification
//!   therefore judge similarity exactly as a single engine over the
//!   union would, so a shard's answers are the global answers
//!   restricted to its objects.
//! * Probes fan out only to shards whose **covering MBR** (the bound
//!   of every region ever routed there) intersects the query region.
//!   Skipping is exact: thresholds are validated strictly positive and
//!   spatial Jaccard needs positive overlap area, so a shard disjoint
//!   from `q.region` cannot contribute an answer.
//! * Shard-local ids remap through a stable **global id map** — global
//!   ids are assigned in push order, exactly the ids a single engine
//!   over the same push sequence would assign.
//!
//! # Per-shard refresh
//!
//! [`refresh`](ShardedEngine::refresh) recomputes the global artifacts
//! over every shard's frozen objects plus its staged *prefix*, then
//! rebuilds shards in parallel. The expensive work — store extension,
//! delta merge, re-running `HSS-Greedy` for touched tokens — is scoped
//! to the shards the delta actually touched. Untouched shards are
//! *reweighted* onto the new epoch: a forced empty-delta rebuild whose
//! hierarchical scheme extension is the identity (every per-token
//! selection reused; falls back to a fresh build only when the global
//! space MBR grew). The staleness window of PR 4 thereby becomes a
//! per-shard property: between refreshes each shard serves its own
//! generation plus its own frozen-weight overlay, and a mid-swap
//! reader sees some per-shard combination of before/after snapshots —
//! the two-legal-snapshots story, per shard.

use crate::query_engine::{EngineStatus, QueryEngine, ShardStatus};
use crate::store::CorpusArtifacts;
use crate::{
    FilterKind, LiveEngine, ObjectId, ObjectStore, Query, RefreshStats, RoiObject, SealEngine,
    SearchResult, SearchStats, SimilarityConfig,
};
use seal_geom::{Grid, GridCell, Rect};
use seal_text::{Dictionary, TokenId, TokenSet};
use std::sync::{Arc, Mutex};

/// How objects map to shards (frozen at construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Locality-preserving: grid cell of the region center, cells in
    /// contiguous row-major runs per shard.
    Spatial,
}

/// The frozen routing function: the grid it routes over and its
/// mass map.
struct Router {
    grid: Grid,
    shards: usize,
    /// Row-major cell → `(units before this cell, this cell's
    /// units)`, in units of initial-corpus objects. The quantile map
    /// `unit → unit·N/total` cuts the cell sequence into N contiguous
    /// runs of ~equal mass; see [`Router::route`] for how a cell's
    /// interval resolves to a shard. Frozen at construction.
    cell_mass: Vec<(u64, u64)>,
    /// Total units (initial corpus size). Zero means the engine was
    /// built over an empty store: routes fall back to uniform cell
    /// runs.
    total_mass: u64,
}

/// The row-major cell index of a region's center. Centers outside the
/// grid's space (objects pushed after construction) clamp to the
/// nearest edge cell, so routing stays total and deterministic.
fn cell_of(grid: &Grid, region: &Rect) -> usize {
    let c = region.center();
    let space = grid.space();
    let side = grid.side();
    let ix = (((c.x - space.min().x) / grid.cell_width()).max(0.0) as u32).min(side - 1);
    let iy = (((c.y - space.min().y) / grid.cell_height()).max(0.0) as u32).min(side - 1);
    GridCell { ix, iy }.linear(side) as usize
}

impl Router {
    /// The shard for an object's region.
    ///
    /// Routing is a quantile cut over the row-major cell
    /// sequence, weighted by initial corpus mass: the object's cell
    /// owns the unit interval `[before, before + count)`, the
    /// object's deal position within its cell (`cell_next`, a
    /// monotone per-cell counter cycling through the interval) picks
    /// a unit inside it, and the unit's quantile `unit·N/total` names
    /// the shard. A cell whose interval lies inside one run routes
    /// entirely to that shard — the deal never matters, locality is
    /// perfect — while a hotspot cell too heavy for one run (a dense
    /// city at continental scale, which no cell-granular cut can
    /// balance) splits across the run boundary in *exact* proportion
    /// to each shard's share of its interval. The counters live in
    /// [`RouteState`] under its lock, so routing is a pure function
    /// of push order — deterministic forever.
    fn route(&self, region: &Rect, cell_next: &mut [u64]) -> usize {
        let cell = cell_of(&self.grid, region);
        if self.total_mass == 0 {
            // Empty initial corpus: uniform contiguous runs.
            return ((cell as u128 * self.shards as u128) / self.cell_mass.len() as u128) as usize;
        }
        let (before, count) = self.cell_mass[cell];
        let unit = if count > 1 {
            let dealt = cell_next[cell];
            cell_next[cell] = dealt + 1;
            before + dealt % count
        } else {
            before
        };
        (((u128::from(unit) * self.shards as u128) / u128::from(self.total_mass)) as usize)
            .min(self.shards - 1)
    }
}

/// Mutable routing state, one lock: the global id map, per-shard
/// covering MBRs, the push-order counter and the tracked vocabulary.
/// Pushes mutate it; queries take it twice, briefly (probe-set
/// selection, then answer remapping) — never across a shard probe.
struct RouteState {
    /// Per shard: local id → global id, append-only (an entry is
    /// immutable once written, so remapping after a probe is safe even
    /// though pushes kept appending).
    to_global: Vec<Vec<ObjectId>>,
    /// Per shard: MBR of every region ever routed there (`None` =
    /// empty shard, never probed). Grows on push, never shrinks.
    covering: Vec<Option<Rect>>,
    /// Objects ever routed — the next global id.
    total: usize,
    /// Current corpus vocabulary (grows as staged tokens exceed it).
    vocab: usize,
    /// Weight epoch: bumped by every refresh that merged or
    /// reweighted; what [`ShardedEngine::generation`] reports.
    epoch: u64,
    /// Per grid cell: objects dealt so far, the split-cell cursor of
    /// [`Router::route`]. Seeded by construction, advanced by pushes.
    cell_next: Vec<u64>,
}

/// N [`LiveEngine`] shards behind one [`QueryEngine`] face — see the
/// [module docs](self) for partitioning, exactness and refresh
/// scoping.
pub struct ShardedEngine {
    shards: Vec<LiveEngine>,
    router: Router,
    kind: FilterKind,
    opts: crate::BuildOpts,
    dictionary: Option<Dictionary>,
    route: Mutex<RouteState>,
    /// Serializes refreshes (each shard also has its own gate; this
    /// one keeps the artifact computation and the fan-out atomic with
    /// respect to other sharded refreshes).
    refresh_gate: Mutex<()>,
}

/// Grid granularity for N shards: ~64 cells per shard so the
/// mass-balanced cell→shard runs can cut around hotspot cells, capped
/// to keep the routing table trivial.
fn grid_side_for(shards: usize) -> u32 {
    ((8.0 * (shards as f64).sqrt()).ceil() as u32).clamp(8, 64)
}

impl ShardedEngine {
    /// Partitions `store` into `shards` spatial shards with default
    /// build options.
    pub fn build(store: &ObjectStore, kind: FilterKind, shards: usize) -> Self {
        let opts = crate::BuildOpts::default();
        Self::with_opts(store, kind, SimilarityConfig, opts, shards, None)
    }

    /// Full-control constructor. The corpus artifacts of `store` are
    /// injected into every shard, so the partition answers exactly
    /// like a single engine over `store` (the dictionary, if any, is
    /// kept at this level for token resolution). `SimilarityConfig`
    /// and [`ShardPolicy`] have one value each; the parameters stay
    /// for linked callers.
    pub fn with_opts(
        store: &ObjectStore,
        kind: FilterKind,
        cfg: SimilarityConfig,
        opts: crate::BuildOpts,
        shards: usize,
        _policy: Option<ShardPolicy>,
    ) -> Self {
        let n = shards.max(1);
        let artifacts = CorpusArtifacts::of(store);
        let grid = Grid::new(store.space(), grid_side_for(n))
            .expect("store space is padded to positive area");
        let mut cell_counts = vec![0u64; grid.cell_count() as usize];
        for (_, o) in store.iter() {
            cell_counts[cell_of(&grid, &o.region)] += 1;
        }
        let mut cell_mass = Vec::with_capacity(cell_counts.len());
        let mut total_mass = 0u64;
        for &c in &cell_counts {
            cell_mass.push((total_mass, c));
            total_mass += c;
        }
        let router = Router {
            cell_mass,
            total_mass,
            grid,
            shards: n,
        };
        let mut cell_next = vec![0u64; router.cell_mass.len()];
        let assign: Vec<usize> = store
            .iter()
            .map(|(_, o)| router.route(&o.region, &mut cell_next))
            .collect();
        let mut locals: Vec<Vec<RoiObject>> = vec![Vec::new(); n];
        let mut to_global: Vec<Vec<ObjectId>> = vec![Vec::new(); n];
        let mut covering: Vec<Option<Rect>> = vec![None; n];
        for (id, o) in store.iter() {
            let s = assign[id.index()];
            locals[s].push(o.clone());
            to_global[s].push(id);
            covering[s] = Some(match covering[s] {
                Some(r) => r.mbr_with(&o.region),
                None => o.region,
            });
        }
        let shards: Vec<LiveEngine> = locals
            .into_iter()
            .map(|objs| {
                let local = Arc::new(ObjectStore::with_artifacts(objs, artifacts.clone()));
                LiveEngine::with_opts(local, kind, cfg, opts)
            })
            .collect();
        ShardedEngine {
            shards,
            router,
            kind,
            opts,
            dictionary: store.dictionary().cloned(),
            route: Mutex::new(RouteState {
                to_global,
                covering,
                total: store.len(),
                vocab: store.vocab_size(),
                epoch: 0,
                cell_next,
            }),
            refresh_gate: Mutex::new(()),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The filter kind every shard was built with.
    pub fn kind(&self) -> FilterKind {
        self.kind
    }

    /// Per-shard object counts (frozen + staged) — balance at a
    /// glance.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// The generation each shard serves right now, in shard order
    /// (diagnostics and tests; a later refresh swaps in new engines).
    pub fn shard_engines(&self) -> Vec<Arc<SealEngine>> {
        self.shards.iter().map(|s| s.engine()).collect()
    }

    fn route_lock(&self) -> std::sync::MutexGuard<'_, RouteState> {
        self.route.lock().expect("route state lock")
    }

    /// The probe set for a query region: shards whose covering MBR
    /// intersects it.
    fn probe_set(&self, region: &Rect) -> Vec<usize> {
        let r = self.route_lock();
        (0..self.shards.len())
            .filter(|&i| r.covering[i].is_some_and(|c| c.intersects(region)))
            .collect()
    }

    fn push_locked(&self, r: &mut RouteState, object: RoiObject) -> ObjectId {
        let gid = ObjectId(r.total as u32);
        for t in object.tokens.iter() {
            r.vocab = r.vocab.max(t.index() + 1);
        }
        let region = object.region;
        let s = self.router.route(&region, &mut r.cell_next);
        let local = self.shards[s].push(object);
        debug_assert_eq!(local.index(), r.to_global[s].len(), "id map out of sync");
        r.to_global[s].push(gid);
        r.covering[s] = Some(match r.covering[s] {
            Some(c) => c.mbr_with(&region),
            None => region,
        });
        r.total += 1;
        gid
    }

    fn do_search(&self, q: &Query) -> SearchResult {
        let probe = self.probe_set(&q.region);
        let mut merged = SearchResult {
            answers: Vec::new(),
            stats: SearchStats::new(),
        };
        merged.stats.shards_probed = probe.len();
        let partials: Vec<(usize, SearchResult)> = probe
            .into_iter()
            .map(|i| (i, self.shards[i].search(q)))
            .collect();
        let start = std::time::Instant::now();
        let r = self.route_lock();
        for (i, part) in partials {
            merged
                .answers
                .extend(part.answers.iter().map(|id| r.to_global[i][id.index()]));
            merged.stats.accumulate(&part.stats);
        }
        drop(r);
        merged.stats.merge_time += start.elapsed();
        merged
    }

    fn do_top_k(
        &self,
        region: Rect,
        tokens: &TokenSet,
        k: usize,
        alpha: f64,
    ) -> Vec<(ObjectId, f64)> {
        crate::engine::top_k_by_deepening(k, |tau| {
            let probe = self.probe_set(&region);
            let partials: Vec<(usize, Vec<(ObjectId, f64)>)> = probe
                .into_iter()
                .map(|i| (i, self.shards[i].search_scored(region, tokens, tau, alpha)))
                .collect();
            let r = self.route_lock();
            partials
                .into_iter()
                .flat_map(|(i, v)| {
                    let map = &r.to_global[i];
                    v.into_iter()
                        .map(move |(id, s)| (map[id.index()], s))
                        .collect::<Vec<_>>()
                })
                .collect()
        })
    }

    /// Folds every shard's staged prefix into its next generation
    /// under one new weight epoch. See the [module docs](self):
    /// artifact recomputation is global, merge work is scoped to
    /// touched shards, untouched shards take the cheap reweight
    /// rebuild, and the whole fan-out runs shards in parallel
    /// (`BuildOpts::threads` workers).
    pub fn refresh(&self) -> RefreshStats {
        let _gate = self.refresh_gate.lock().expect("sharded refresh gate");
        let start = std::time::Instant::now();
        // Capture the merge caps and vocabulary under the route lock:
        // no push can land mid-capture, so the caps describe one
        // consistent corpus prefix for the artifact computation.
        let (caps, vocab) = {
            let r = self.route_lock();
            let caps: Vec<usize> = self.shards.iter().map(|s| s.staged_len()).collect();
            (caps, r.vocab)
        };
        let merged: usize = caps.iter().sum();
        if merged == 0 {
            let r = self.route_lock();
            return RefreshStats {
                generation: r.epoch,
                merged: 0,
                total: r.total,
                build_seconds: 0.0,
                scheme_reused: false,
            };
        }
        // One consistent set of global artifacts over every shard's
        // frozen objects plus its staged prefix — the corpus the new
        // epoch's weights, order and space describe.
        let snaps: Vec<_> = self.shards.iter().map(|s| s.snapshot()).collect();
        let staged: Vec<Vec<RoiObject>> = snaps
            .iter()
            .zip(&caps)
            .map(|((_, delta), &cap)| delta.iter().take(cap).cloned().collect())
            .collect();
        let artifacts = CorpusArtifacts::compute(
            snaps
                .iter()
                .zip(&staged)
                .flat_map(|((engine, _), st)| engine.store().objects().iter().chain(st.iter())),
            vocab,
        );
        drop(staged);
        drop(snaps);
        let per_shard: Vec<RefreshStats> =
            seal_index::parallel::map_indexed(self.shards.len(), self.opts.threads, |i| {
                self.shards[i].refresh_via(Some(caps[i]), true, |_prev, staged| {
                    Arc::new(
                        _prev
                            .store()
                            .extended_with_artifacts(staged, artifacts.clone()),
                    )
                })
            });
        let epoch = {
            let mut r = self.route_lock();
            r.epoch += 1;
            r.epoch
        };
        RefreshStats {
            generation: epoch,
            merged,
            total: per_shard.iter().map(|s| s.total).sum(),
            build_seconds: start.elapsed().as_secs_f64(),
            scheme_reused: per_shard.iter().any(|s| s.scheme_reused),
        }
    }
}

impl QueryEngine for ShardedEngine {
    fn search(&self, q: &Query) -> SearchResult {
        self.do_search(q)
    }

    fn search_batch(&self, queries: &[Query], threads: usize) -> Vec<SearchResult> {
        seal_index::parallel::map_indexed(queries.len(), threads, |i| self.do_search(&queries[i]))
    }

    fn search_top_k(
        &self,
        region: Rect,
        tokens: TokenSet,
        k: usize,
        alpha: f64,
    ) -> Vec<(ObjectId, f64)> {
        self.do_top_k(region, &tokens, k, alpha)
    }

    fn push(&self, object: RoiObject) -> ObjectId {
        let mut r = self.route_lock();
        self.push_locked(&mut r, object)
    }

    fn push_all(&self, objects: Vec<RoiObject>) -> Option<ObjectId> {
        let mut r = self.route_lock();
        let mut first = None;
        for o in objects {
            let id = self.push_locked(&mut r, o);
            first.get_or_insert(id);
        }
        first
    }

    fn refresh(&self) -> RefreshStats {
        ShardedEngine::refresh(self)
    }

    fn generation(&self) -> u64 {
        self.route_lock().epoch
    }

    fn staged_len(&self) -> usize {
        self.shards.iter().map(|s| s.staged_len()).sum()
    }

    fn len(&self) -> usize {
        self.route_lock().total
    }

    fn resolve_token(&self, token: &str) -> Option<TokenId> {
        self.dictionary.as_ref().and_then(|d| d.get(token))
    }

    fn status(&self) -> EngineStatus {
        let shards: Vec<ShardStatus> = self
            .shards
            .iter()
            .map(|s| ShardStatus {
                generation: s.generation(),
                staged: s.staged_len(),
                objects: s.len(),
            })
            .collect();
        EngineStatus {
            filter: self
                .shards
                .first()
                .map(|s| s.engine().filter_name().to_string())
                .unwrap_or_default(),
            index_bytes: self.shards.iter().map(|s| s.engine().index_bytes()).sum(),
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;
    use crate::verify::naive_search;
    use seal_text::TokenSet;

    fn sharded(n: usize) -> (ShardedEngine, ObjectStore, Query) {
        let (store, q) = figure1_store();
        let engine = ShardedEngine::build(&store, FilterKind::Token, n);
        (engine, store, q)
    }

    #[test]
    fn hotspot_cell_splits_instead_of_falling_back() {
        // A dense cluster in one corner plus a single far outlier: the
        // grid spans the whole space, the cluster lands in one cell.
        // Without hotspot splitting, spatial routing would put ~all
        // objects on one shard; the mass-balanced map must instead
        // split the mega-cell across shards and stay spatial.
        let mut objects: Vec<RoiObject> = (0..39)
            .map(|i| {
                let d = f64::from(i) * 0.01;
                RoiObject::new(
                    Rect::new(d, d, d + 0.5, d + 0.5).unwrap(),
                    TokenSet::from_ids([TokenId(i % 3)]),
                )
            })
            .collect();
        objects.push(RoiObject::new(
            Rect::new(1000.0, 1000.0, 1001.0, 1001.0).unwrap(),
            TokenSet::from_ids([TokenId(0)]),
        ));
        let store = ObjectStore::from_objects(objects, 3);
        let engine = ShardedEngine::build(&store, FilterKind::Token, 4);
        let sizes = engine.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 40);
        // The per-cell deal splits the 39-object mega-cell exactly
        // proportionally: no shard exceeds the fair share of 10.
        assert_eq!(sizes.iter().max(), Some(&10), "unbalanced: {sizes:?}");
        // Splitting must not change answers.
        let q = Query::with_token_ids(
            Rect::new(0.0, 0.0, 2.0, 2.0).unwrap(),
            [TokenId(0), TokenId(1), TokenId(2)],
            0.1,
            0.1,
        )
        .unwrap();
        let store = Arc::new(store);
        let mut expect = naive_search(&store, &SimilarityConfig, &q);
        expect.sort_unstable();
        assert_eq!(engine.search(&q).sorted().answers, expect);
    }

    #[test]
    fn status_reports_per_shard_detail() {
        let (engine, _store, _q) = sharded(3);
        QueryEngine::push(
            &engine,
            RoiObject::new(
                Rect::new(1.0, 1.0, 2.0, 2.0).unwrap(),
                TokenSet::from_ids([TokenId(0)]),
            ),
        );
        let status = engine.status();
        assert_eq!(status.shards.len(), 3);
        assert!(status.index_bytes > 0);
        assert_eq!(
            status.shards.iter().map(|s| s.objects).sum::<usize>(),
            8,
            "per-shard objects sum to the corpus"
        );
        assert_eq!(status.shards.iter().map(|s| s.staged).sum::<usize>(), 1);
        assert_eq!(engine.generation(), 0);
    }

    #[test]
    fn empty_and_single_shard_degenerate_safely() {
        let store = ObjectStore::from_objects(Vec::new(), 0);
        let engine = ShardedEngine::build(&store, FilterKind::Token, 2);
        assert!(engine.is_empty());
        let q = Query::with_token_ids(
            Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(),
            [TokenId(0)],
            0.5,
            0.5,
        )
        .unwrap();
        assert!(engine.search(&q).answers.is_empty());
        assert_eq!(engine.search(&q).stats.shards_probed, 0, "nothing to probe");
        let id = QueryEngine::push(
            &engine,
            RoiObject::new(
                Rect::new(0.0, 0.0, 1.0, 1.0).unwrap(),
                TokenSet::from_ids([TokenId(0)]),
            ),
        );
        assert_eq!(id, ObjectId(0));
        assert_eq!(engine.search(&q).answers, vec![ObjectId(0)]);
        let stats = ShardedEngine::refresh(&engine);
        assert_eq!(stats.merged, 1);
        assert_eq!(engine.search(&q).answers, vec![ObjectId(0)]);
    }
}
