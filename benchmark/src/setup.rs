//! What every workload does before its measured phase: generate the
//! corpus and the query set from the seed, build the store and the
//! engine, save it and load it back. Each step is timed, the whole
//! set-up runs [`SETUP_REPS`] times, and the medians are reported, so
//! that work a later change moves into set-up shows.

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{Name, Tracer};
use seal_core::{
    BuildOpts, FilterKind, ObjectStore, Query, QueryContext, RoiObject, SealEngine,
    SimilarityConfig,
};
use seal_datagen::{
    generate_queries, twitter_like, Dataset, QueryParams, QuerySpec, RawObject, TwitterParams,
};
use seal_text::TokenSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seconds a measured phase lasts when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 12.0;

/// How often the whole set-up is repeated in one run.
pub const SETUP_REPS: usize = 5;

/// The seed of the corpus. Every run draws the same `twitter_like`
/// corpus and lets `--seed` draw the query set, the gate's sample and
/// the overlay checks: the generator's few Zipf-weighted clusters make
/// per-query cost swing by a quarter from one corpus draw to the next,
/// which no regression bound could see through, while 4096 queries
/// drawn afresh over one corpus move it by a percent or two.
pub const CORPUS_SEED: u64 = 2012;

/// Queries in the fixed set every workload cycles through.
pub const QUERY_SET: usize = 4096;

/// Queries of the warm-up pass that ends each set-up.
pub const WARM_UP: usize = 512;

/// The `Seal` configuration of the selective workloads.
pub const SEAL_KIND: FilterKind = FilterKind::Hierarchical {
    max_level: 8,
    budget: 16,
};

/// The command line, shared by every workload.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// 2 k objects and 1 s phases: a smoke run, not for comparison.
    pub quick: bool,
    /// `benchmark/out`, for `.seal` files and the trace.
    pub out_dir: PathBuf,
}

impl Env {
    /// The corpus size to use where a full run uses `full` objects.
    pub fn objects(&self, full: usize) -> usize {
        if self.quick {
            2_000
        } else {
            full
        }
    }
}

/// Which regions the query set draws.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Neighbourhood-sized regions, ~13 tokens.
    Small,
    /// District-sized regions, ~7 tokens.
    Large,
    /// Alternating small and large.
    Half,
}

/// The `twitter_like` corpus of `count` objects (see [`CORPUS_SEED`]).
fn generate_corpus(count: usize) -> Dataset {
    twitter_like(&TwitterParams {
        count,
        seed: CORPUS_SEED,
        ..TwitterParams::default()
    })
}

/// Generated records as engine objects, in stream order.
pub fn roi_objects(raw: &[RawObject]) -> Vec<RoiObject> {
    raw.iter()
        .map(|o| RoiObject::new(o.region, TokenSet::from_ids(o.tokens.iter().copied())))
        .collect()
}

/// The fixed query set: [`QUERY_SET`] queries anchored on the corpus,
/// all at `τ_R = τ_T = tau`.
fn generate_query_set(dataset: &Dataset, mix: Mix, tau: f64, seed: u64) -> Vec<Query> {
    let draw = |spec, count, salt: u64| {
        generate_queries(
            dataset,
            &QueryParams {
                spec,
                count,
                seed: seed ^ salt,
            },
        )
    };
    let raw = match mix {
        Mix::Small => draw(QuerySpec::SmallRegion, QUERY_SET, 0xABCD),
        Mix::Large => draw(QuerySpec::LargeRegion, QUERY_SET, 0xABCE),
        Mix::Half => {
            let small = draw(QuerySpec::SmallRegion, QUERY_SET / 2, 0xABCD);
            let large = draw(QuerySpec::LargeRegion, QUERY_SET / 2, 0xABCE);
            small
                .into_iter()
                .zip(large)
                .flat_map(|(s, l)| [s, l])
                .collect()
        }
    };
    raw.iter()
        .map(|r| {
            Query::with_token_ids(r.region, r.tokens.iter().copied(), tau, tau)
                .expect("workload thresholds lie in (0, 1]")
        })
        .collect()
}

/// The corpus and its query set, with the interval generating both
/// took.
pub fn generate_inputs(
    objects: usize,
    mix: Mix,
    tau: f64,
    seed: u64,
) -> ((Dataset, Vec<Query>), Interval) {
    timed(|| {
        let dataset = generate_corpus(objects);
        let queries = generate_query_set(&dataset, mix, tau, seed);
        (dataset, queries)
    })
}

/// Start and end of one timed step.
pub type Interval = (Instant, Instant);

/// Runs `f` and returns its result with the interval it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    let start = Instant::now();
    let out = f();
    (out, (start, Instant::now()))
}

pub fn secs(i: Interval) -> f64 {
    i.1.duration_since(i.0).as_secs_f64()
}

/// The timed steps of one set-up. A step a workload does not have
/// stays `None`.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    pub generate: Option<Interval>,
    pub store: Option<Interval>,
    /// The `SealEngine` (arena) build.
    pub filter_build: Option<Interval>,
    pub sharded_build: Option<Interval>,
    pub save: Option<Interval>,
    pub load: Option<Interval>,
    pub spawn: Option<Interval>,
    pub warm_up: Option<Interval>,
    /// First step's start to last step's end.
    pub total: Option<Interval>,
    pub container_bytes: u64,
}

impl Phases {
    fn steps(&self) -> [(Name, Option<Interval>); 8] {
        [
            (Name::Generate, self.generate),
            (Name::StoreBuild, self.store),
            (Name::FilterBuild, self.filter_build),
            (Name::ShardedBuild, self.sharded_build),
            (Name::Save, self.save),
            (Name::Load, self.load),
            (Name::Spawn, self.spawn),
            (Name::WarmUp, self.warm_up),
        ]
    }

    /// One span per step.
    pub fn record(&self, tracer: &mut Tracer) {
        for (name, interval) in self.steps() {
            if let Some((start, end)) = interval {
                tracer.record(name, start, end, 0, 0);
            }
        }
    }
}

/// Runs `setup_once` [`SETUP_REPS`] times, dropping each repetition's
/// state before the next begins, and returns the last state with every
/// repetition's timings.
pub fn repeat_setup<S>(mut setup_once: impl FnMut() -> (S, Phases)) -> (S, Vec<Phases>) {
    let mut all = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let (s, phases) = setup_once();
        all.push(phases);
        state = Some(s);
    }
    (state.expect("SETUP_REPS is at least 1"), all)
}

fn median_of(reps: &[Phases], step: impl Fn(&Phases) -> Option<Interval>) -> f64 {
    let values: Vec<f64> = reps.iter().filter_map(|p| step(p).map(secs)).collect();
    median(&values)
}

/// Reports the set-up: `setup_s` and the saved container's size, each
/// step's median as its layer's metric, and — on a traced run — one
/// span per step.
pub fn report_setup(out: &mut Outcome, reps: &[Phases], tracer: Option<&mut Tracer>) {
    let totals: Vec<String> = reps
        .iter()
        .filter_map(|p| p.total.map(|t| format!("{:.3}", secs(t))))
        .collect();
    out.note(format!("set-up repetitions (s): {}", totals.join(" ")));
    out.set_sampled("setup_s", median_of(reps, |p| p.total), reps.len());
    out.set("container_bytes", reps[0].container_bytes as f64);
    assert!(
        reps.iter()
            .all(|p| p.container_bytes == reps[0].container_bytes),
        "the same engine serialized to different sizes"
    );
    out.set_sampled(
        "datagen.generate_s",
        median_of(reps, |p| p.generate),
        reps.len(),
    );
    out.set_sampled("store.build_s", median_of(reps, |p| p.store), reps.len());
    out.set_sampled(
        "filters.build_s",
        median_of(reps, |p| p.filter_build),
        reps.len(),
    );
    out.set_sampled(
        "sharded.build_s",
        median_of(reps, |p| p.sharded_build),
        reps.len(),
    );
    out.set_sampled("persist.save_s", median_of(reps, |p| p.save), reps.len());
    out.set_sampled(
        "persist.load_stream_s",
        median_of(reps, |p| p.load),
        reps.len(),
    );
    if let Some(tracer) = tracer {
        for p in reps {
            p.record(tracer);
        }
    }
}

/// The store over a generated corpus, timed.
pub fn build_store(dataset: &Dataset, objects: &[RawObject]) -> (Arc<ObjectStore>, Interval) {
    timed(|| {
        Arc::new(ObjectStore::from_objects(
            roi_objects(objects),
            dataset.vocab_size,
        ))
    })
}

/// The arena engine over a store, single-threaded, timed.
pub fn build_engine(store: &Arc<ObjectStore>, kind: FilterKind) -> (SealEngine, Interval) {
    timed(|| {
        SealEngine::build_with_opts(
            store.clone(),
            kind,
            SimilarityConfig::default(),
            BuildOpts::default(),
        )
    })
}

/// Saves `engine` to `path`, loads it back and removes the file.
/// Fills the save, load and size fields of `phases`.
pub fn save_and_load(engine: &SealEngine, path: &Path, phases: &mut Phases) -> SealEngine {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create benchmark/out");
    }
    let (bytes, save) = timed(|| engine.save(path).expect("save the engine"));
    let (loaded, load) = timed(|| SealEngine::load(path).expect("load the saved engine"));
    std::fs::remove_file(path).expect("remove the saved engine");
    phases.save = Some(save);
    phases.load = Some(load);
    phases.container_bytes = bytes;
    loaded
}

/// The warm-up pass of the in-process workloads: the first
/// [`WARM_UP`] queries through `search`, so caches and scratch
/// buffers are filled before anything is timed.
pub fn warm_up(queries: &[Query], mut search: impl FnMut(&Query)) -> Interval {
    timed(|| {
        for q in queries.iter().take(WARM_UP) {
            search(q);
        }
    })
    .1
}

/// A scratch context sized for `engine`'s store.
pub fn context_for(engine: &SealEngine) -> QueryContext {
    QueryContext::with_capacity(engine.store().len())
}

/// `VmHWM` of this process in MiB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
