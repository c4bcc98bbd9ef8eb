//! The differential model behind every exactness claim: one sequence
//! of push, query, top-k, refresh and save→load operations, replayed on
//! an engine and on a plain model of the corpus, answer for answer.
//!
//! The model is the object list, cut at the last refresh into a
//! *generation* — rebuilt with `ObjectStore::from_objects`, so its idf
//! weights, token order and space are the union's — and the objects
//! *staged* since. Its answers to a query are `naive_search` over the
//! generation plus every staged object `SimilarityConfig::is_answer`
//! accepts under the generation's weights: the legal snapshot an
//! overlay serves between refreshes (a `SealEngine` stages nothing and
//! answers from the generation alone). Its top-k is the τ-halving rule
//! of `SealEngine::search_top_k`: halve τ from 0.5 until `k` objects
//! answer or τ reaches 0.01, rank them by score, ties by ascending id.
//!
//! Besides the answers, [`replay`] checks push ids, lengths and refresh
//! counters; after every refresh, that a `LiveEngine`'s probe counters
//! equal a fresh build's over the union; and that every save→load gives
//! back an engine with the same answers, counters, index size and
//! bytes.

use proptest::prelude::*;
use seal_core::verify::naive_search;
use seal_core::{
    BuildOpts, FilterKind, LiveEngine, ObjectId, ObjectStore, Query, QueryEngine, RoiObject,
    SealEngine, SearchResult, SearchStats, ShardedEngine, SimilarityConfig,
};
use seal_geom::Rect;
use seal_text::similarity::weighted_jaccard;
use seal_text::{TokenId, TokenSet};
use std::sync::Arc;

/// Vocabulary of the generated worlds.
pub const VOCAB: usize = 8;

/// The engine a replay drives: a `SealEngine` (rebuilt over the union
/// at each refresh that merges something, serving no staged objects),
/// a `LiveEngine`, or a `ShardedEngine` over this many shards.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    Seal,
    Live,
    Sharded(usize),
}

/// The filter every generation is built with, and the `BuildOpts`
/// threads of every build and load.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub kind: FilterKind,
    pub threads: usize,
}

/// The shard counts the sharded engine is built at.
pub const SHARDS: [usize; 5] = [1, 2, 3, 4, 8];

/// Every (configuration, engine) pair: the 8 kinds of
/// `kinds(8, &[None, Some(64)], 4, 8)` at 1 and 2 build threads, each
/// on a `SealEngine`, a `LiveEngine` and three `ShardedEngine`s whose
/// shard counts cycle through [`SHARDS`] from one configuration to the
/// next, so every kind meets every count.
pub fn pairs() -> Vec<(Config, Engine)> {
    use Engine::*;
    let kinds = crate::util::kinds(8, &[None, Some(64)], 4, 8);
    let configs = kinds
        .into_iter()
        .flat_map(|kind| [1, 2].map(|threads| Config { kind, threads }));
    let mut shards = SHARDS.into_iter().cycle();
    configs
        .flat_map(|c| {
            let sharded = shards.by_ref().take(3).map(Sharded);
            let engines: Vec<Engine> = [Seal, Live].into_iter().chain(sharded).collect();
            engines.into_iter().map(move |e| (c, e))
        })
        .collect()
}

/// Where a query comes from: as given, or anchored — object
/// `anchor`'s region and tokens (no tokens if `blank`, so only
/// token-less objects can pass), with τ_R and τ_T set to object
/// `other`'s exact similarities to that query under the generation's
/// weights, so `other` sits on both thresholds (a zero similarity sets
/// its τ to 1 instead). Indices wrap modulo the model's objects,
/// staged ones included.
#[derive(Debug, Clone)]
pub enum Probe {
    Anchored {
        anchor: usize,
        other: usize,
        blank: bool,
    },
    Given(Query),
}

/// One step of a replay: stage an object; ask a threshold query; ask
/// for the top `k` at spatial weight `alpha` by a probe's region and
/// tokens; fold the staged objects into the next generation; or
/// round-trip every served generation through its container bytes.
#[derive(Debug, Clone)]
pub enum Op {
    Push(RoiObject),
    Query(Probe),
    TopK { probe: Probe, k: usize, alpha: f64 },
    Refresh,
    SaveLoad,
}

/// One generated object: corner in `0..40` and extent in `1..25` per
/// axis, so most pairs overlap, and 0–4 token ids below [`VOCAB`], so
/// a fifth of the objects have no tokens. A quarter of the objects
/// have their corners moved off the integer grid by fractions below 1,
/// so similarities and signature bounds are sums no integer rounds.
pub fn object() -> impl Strategy<Value = RoiObject> {
    let tokens = proptest::collection::vec(0..VOCAB as u32, 0..5);
    let off_grid = (0u8..4, 0.0f64..1.0, 0.0f64..1.0);
    (0u32..40, 0u32..40, 1u32..25, 1u32..25, off_grid, tokens).prop_map(
        |(x, y, w, h, (tag, fx, fy), tokens)| {
            let [x0, y0, x1, y1] = [x, y, x + w, y + h].map(f64::from);
            // Width `w + fy − fx` and height `h + fx − fy` stay positive.
            let [dx0, dy0, dx1, dy1] = if tag == 0 { [fx, fy, fy, fx] } else { [0.0; 4] };
            let region =
                Rect::new(x0 + dx0, y0 + dy0, x1 + dx1, y1 + dy1).expect("positive extent");
            RoiObject::new(region, TokenSet::from_ids(tokens.into_iter().map(TokenId)))
        },
    )
}

/// One generated op: of 16, 6 push, 4 query, 2 top-k, 2 refresh and
/// 2 save→load. A quarter of the anchored probes put their anchor on
/// the thresholds (τ = 1) and another quarter are blank.
pub fn op() -> impl Strategy<Value = Op> {
    (0u8..16, object(), 0usize..64, 0usize..64, 0usize..12).prop_map(
        |(tag, object, anchor, other, pick)| {
            let probe = Probe::Anchored {
                anchor,
                other: if pick % 4 == 0 { anchor } else { other },
                blank: pick % 4 == 1,
            };
            match tag {
                0..=5 => Op::Push(object),
                6..=9 => Op::Query(probe),
                10 | 11 => Op::TopK {
                    probe,
                    k: [1, 3, 100][pick % 3],
                    alpha: [0.0, 0.5, 1.0][pick / 4],
                },
                12 | 13 => Op::Refresh,
                _ => Op::SaveLoad,
            }
        },
    )
}

/// A fixed op list over a realistic corpus, whose first `initial`
/// objects form generation 0. Per `chunk` of the remaining objects:
/// its pushes, then the asks over the overlay, a refresh and the asks
/// again. Last, a save→load. The asks are `queries`, self-queries of
/// objects 0, 7 and 42 at τ 0.5, and the top 10 of the first query.
pub fn fixture_ops(
    objects: &[RoiObject],
    queries: &[Query],
    initial: usize,
    chunk: usize,
) -> Vec<Op> {
    let own = [0, 7, 42].map(|i| &objects[i]);
    let own = own.map(|o| Query::new(o.region, o.tokens.clone(), 0.5, 0.5).expect("valid τ"));
    let given = queries.iter().chain(&own).cloned().map(Probe::Given);
    let mut asks: Vec<Op> = given.map(Op::Query).collect();
    asks.push(Op::TopK {
        probe: Probe::Given(queries[0].clone()),
        k: 10,
        alpha: 0.5,
    });
    let mut ops = Vec::new();
    for part in objects[initial..].chunks(chunk) {
        ops.extend(part.iter().cloned().map(Op::Push));
        ops.extend(asks.iter().cloned());
        ops.push(Op::Refresh);
        ops.extend(asks.iter().cloned());
    }
    ops.push(Op::SaveLoad);
    ops
}

/// The corpus as the model sees it.
struct Model {
    vocab: usize,
    /// Every object in id order: the generation's, then the staged.
    objects: Vec<RoiObject>,
    generation: Arc<ObjectStore>,
    /// Refreshes that merged something.
    epoch: u64,
}

impl Model {
    fn new(vocab: usize, initial: &[RoiObject]) -> Self {
        Model {
            vocab,
            objects: initial.to_vec(),
            generation: Arc::new(ObjectStore::from_objects(initial.to_vec(), vocab)),
            epoch: 0,
        }
    }

    fn staged(&self) -> &[RoiObject] {
        &self.objects[self.generation.len()..]
    }

    /// The next generation: every object, over a vocabulary grown to
    /// cover the staged tokens (as `ObjectStore::extended` grows it).
    fn refresh(&mut self) {
        let seen = self.staged().iter().flat_map(|o| o.tokens.iter());
        self.vocab = seen.map(|t| t.index() + 1).fold(self.vocab, usize::max);
        self.generation = Arc::new(ObjectStore::from_objects(self.objects.clone(), self.vocab));
        self.epoch += 1;
    }

    /// The query a probe asks, and for an anchored probe whose
    /// thresholds both come from its `other` object, that object's id.
    /// `None` when there is no object to anchor on.
    fn query(&self, probe: &Probe) -> Option<(Query, Option<ObjectId>)> {
        let (anchor, other, blank) = match probe {
            Probe::Given(q) => return Some((q.clone(), None)),
            Probe::Anchored {
                anchor,
                other,
                blank,
            } => (*anchor, *other, *blank),
        };
        let n = self.objects.len();
        if n == 0 {
            return None;
        }
        let a = &self.objects[anchor % n];
        let o = &self.objects[other % n];
        let tokens = if blank {
            TokenSet::empty()
        } else {
            a.tokens.clone()
        };
        let sim_r = a.region.jaccard(&o.region);
        let sim_t = weighted_jaccard(&tokens, &o.tokens, self.generation.weights());
        let tau = |s: f64| if s > 0.0 { s } else { 1.0 };
        let q = Query::new(a.region, tokens, tau(sim_r), tau(sim_t)).expect("τ in (0, 1]");
        let edge = (sim_r > 0.0 && sim_t > 0.0).then_some(ObjectId((other % n) as u32));
        Some((q, edge))
    }

    /// The model's answers in id order; `overlay` adds the staged
    /// objects that pass under the generation's weights.
    fn answers(&self, q: &Query, overlay: bool) -> Vec<ObjectId> {
        let mut ids = naive_search(&self.generation, &SimilarityConfig, q);
        if overlay {
            let base = self.generation.len();
            let w = self.generation.weights();
            for (i, o) in self.staged().iter().enumerate() {
                if SimilarityConfig.is_answer(q, o, w) {
                    ids.push(ObjectId((base + i) as u32));
                }
            }
        }
        ids
    }

    /// The τ-halving top-k: score `α·simR + (1−α)·simT` under the
    /// generation's weights, descending, ties by ascending id.
    fn top_k(&self, q: &Query, k: usize, alpha: f64, overlay: bool) -> Vec<(ObjectId, f64)> {
        let w = self.generation.weights();
        let mut tau = 0.5f64;
        let found = loop {
            let at = q.with_thresholds(tau, tau).expect("τ in (0, 1]");
            let found = self.answers(&at, overlay);
            if found.len() >= k || tau <= 0.01 {
                break found;
            }
            tau = (tau / 2.0).max(0.01);
        };
        let mut scored: Vec<(ObjectId, f64)> = found
            .into_iter()
            .map(|id| {
                let o = &self.objects[id.index()];
                let score = alpha * q.region.jaccard(&o.region)
                    + (1.0 - alpha) * weighted_jaccard(&q.tokens, &o.tokens, w);
                (id, score)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

/// The engine under test.
enum Subject {
    Seal(Arc<SealEngine>),
    Live(LiveEngine),
    Sharded(Box<ShardedEngine>),
}

impl Subject {
    fn build(config: Config, engine: Engine, store: &Arc<ObjectStore>) -> Self {
        let opts = BuildOpts::with_threads(config.threads);
        let cfg = SimilarityConfig;
        match engine {
            Engine::Seal => Subject::Seal(Arc::new(SealEngine::build_with_opts(
                store.clone(),
                config.kind,
                cfg,
                opts,
            ))),
            Engine::Live => {
                let live = LiveEngine::with_opts(store.clone(), config.kind, cfg, opts);
                assert_eq!(live.len(), store.len());
                Subject::Live(live)
            }
            Engine::Sharded(n) => {
                let sharded = ShardedEngine::with_opts(store, config.kind, cfg, opts, n, None);
                assert_eq!(sharded.shard_count(), n);
                assert_eq!(sharded.len(), store.len());
                Subject::Sharded(Box::new(sharded))
            }
        }
    }

    /// The serving surface of the engines that stage pushes.
    fn serving(&self) -> Option<&dyn QueryEngine> {
        match self {
            Subject::Seal(_) => None,
            Subject::Live(e) => Some(e),
            Subject::Sharded(e) => Some(e.as_ref()),
        }
    }

    fn search(&self, q: &Query) -> SearchResult {
        match (self, self.serving()) {
            (Subject::Seal(e), _) => e.search(q),
            (_, serving) => serving.expect("serves").search(q),
        }
    }

    fn top_k(&self, q: &Query, k: usize, alpha: f64) -> Vec<(ObjectId, f64)> {
        let tokens = q.tokens.clone();
        match (self, self.serving()) {
            (Subject::Seal(e), _) => e.search_top_k(q.region, tokens, k, alpha),
            (_, serving) => serving
                .expect("serves")
                .search_top_k(q.region, tokens, k, alpha),
        }
    }

    /// The generations a save→load round-trips: a sharded subject's
    /// are its shards', each carrying the whole corpus's injected
    /// artifacts in its container.
    fn persisted(&self) -> Vec<Arc<SealEngine>> {
        match self {
            Subject::Seal(e) => vec![e.clone()],
            Subject::Live(e) => vec![e.engine()],
            Subject::Sharded(e) => e.shard_engines(),
        }
    }
}

/// The probe counters an engine's work is judged by.
fn counters(s: &SearchStats) -> [usize; 4] {
    [s.lists_probed, s.postings_scanned, s.candidates, s.results]
}

/// Probes re-asked after each refresh and save→load (the latest
/// ones), and merged objects self-queried after each refresh (the
/// last ones).
const REASK: usize = 6;

/// Replays `ops` from the generation `initial` on one engine of
/// `config` and on the model, and panics, naming the pair and the op,
/// at the first answer, id, counter or byte that differs.
pub fn replay(config: Config, engine: Engine, vocab: usize, initial: &[RoiObject], ops: &[Op]) {
    let mut model = Model::new(vocab, initial);
    let mut subject = Subject::build(config, engine, &model.generation);
    let opts = BuildOpts::with_threads(config.threads);
    let fresh_build = |store: &Arc<ObjectStore>| {
        matches!(engine, Engine::Live).then(|| {
            SealEngine::build_with_opts(store.clone(), config.kind, SimilarityConfig, opts)
        })
    };
    // What a `LiveEngine`'s counters must equal while nothing is staged.
    let mut fresh = fresh_build(&model.generation);
    let mut history: Vec<Probe> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let at = || format!("{config:?} on {engine:?}, op {i} {op:?}");
        let ask = |subject: &Subject, model: &Model, fresh: &Option<SealEngine>, probe: &Probe| {
            let Some((q, edge)) = model.query(probe) else {
                return;
            };
            let overlay = subject.serving().is_some();
            let got = subject.search(&q);
            let mut answers = got.answers.clone();
            answers.sort_unstable();
            let expect = model.answers(&q, overlay);
            assert_eq!(answers, expect, "{}: answers to {q:?}", at());
            assert_eq!(got.stats.results, expect.len(), "{}: results counter", at());
            if let Some(id) = edge.filter(|id| overlay || id.index() < model.generation.len()) {
                assert!(expect.contains(&id), "{}: {id:?} on both thresholds", at());
            }
            if let (Some(fresh), true) = (fresh, model.staged().is_empty()) {
                assert_eq!(
                    counters(&got.stats),
                    counters(&fresh.search(&q).stats),
                    "{}: counters against a fresh build of the union",
                    at()
                );
            }
        };
        let reask = |subject: &Subject, model: &Model, fresh: &Option<SealEngine>| {
            for probe in history.iter().rev().take(REASK) {
                ask(subject, model, fresh, probe);
            }
        };
        match op {
            Op::Push(o) => {
                model.objects.push(o.clone());
                if let Some(e) = subject.serving() {
                    let id = ObjectId((model.objects.len() - 1) as u32);
                    // Even ops push one object, odd ones a batch of one.
                    let pushed = match i % 2 {
                        0 => e.push(o.clone()),
                        _ => e.push_all(vec![o.clone()]).expect("a staged id"),
                    };
                    assert_eq!(
                        (pushed, e.generation(), e.len(), e.staged_len()),
                        (id, model.epoch, model.objects.len(), model.staged().len()),
                        "{}: (id, generation, len, staged_len)",
                        at()
                    );
                }
            }
            Op::Query(probe) => {
                ask(&subject, &model, &fresh, probe);
                history.push(probe.clone());
            }
            Op::TopK { probe, k, alpha } => {
                if let Some((q, _)) = model.query(probe) {
                    let overlay = subject.serving().is_some();
                    assert_eq!(
                        subject.top_k(&q, *k, *alpha),
                        model.top_k(&q, *k, *alpha, overlay),
                        "{}: top-{k} at α {alpha} for {q:?}",
                        at()
                    );
                }
            }
            Op::Refresh => {
                let merged = model.staged().len();
                let space = model.generation.space();
                if merged > 0 {
                    model.refresh();
                    fresh = fresh_build(&model.generation);
                }
                // A refresh reuses the HSS selections exactly when it
                // merges something into an unchanged space.
                let reuse = merged > 0
                    && matches!(config.kind, FilterKind::Hierarchical { .. })
                    && model.generation.space() == space;
                match subject.serving() {
                    Some(e) => {
                        let s = e.refresh();
                        let n = model.objects.len();
                        assert_eq!(
                            (s.generation, s.merged, s.total, s.scheme_reused),
                            (model.epoch, merged, n, reuse),
                            "{}: refresh stats (generation, merged, total, scheme_reused)",
                            at()
                        );
                        assert_eq!(
                            (
                                e.generation(),
                                e.staged_len(),
                                e.len(),
                                s.build_seconds >= 0.0
                            ),
                            (model.epoch, 0, n, true),
                            "{}: (generation, staged_len, len, build time) after",
                            at()
                        );
                    }
                    None if merged > 0 => {
                        subject = Subject::build(config, engine, &model.generation);
                    }
                    None => {}
                }
                // The last merged objects each answer their own query.
                let n = model.objects.len();
                for id in n - merged.min(REASK)..n {
                    let own = Probe::Anchored {
                        anchor: id,
                        other: id,
                        blank: false,
                    };
                    ask(&subject, &model, &fresh, &own);
                }
                reask(&subject, &model, &fresh);
            }
            Op::SaveLoad => {
                for served in subject.persisted() {
                    let bytes = served.to_container_bytes().expect("serialize");
                    let loaded = SealEngine::load_from_bytes(&bytes, config.threads)
                        .unwrap_or_else(|e| panic!("{}: load failed: {e}", at()));
                    // Kind, size and the latest answers with counters.
                    let facts = |e: &SealEngine| {
                        let asked = history.iter().rev().take(REASK);
                        let seen = asked.filter_map(|p| model.query(p)).map(|(q, _)| {
                            let r = e.search(&q);
                            (counters(&r.stats), r.sorted().answers)
                        });
                        let seen: Vec<_> = seen.collect();
                        (e.kind(), e.store().len(), e.index_bytes(), seen)
                    };
                    assert_eq!(facts(&loaded), facts(&served), "{}: loaded engine", at());
                    assert!(
                        loaded.to_container_bytes().expect("re-serialize") == bytes,
                        "{}: a re-save changes the bytes",
                        at()
                    );
                    if let Subject::Seal(e) = &mut subject {
                        *e = Arc::new(loaded);
                    }
                }
                reask(&subject, &model, &fresh);
            }
        }
    }
}
