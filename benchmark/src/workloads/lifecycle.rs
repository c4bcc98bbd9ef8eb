//! `lifecycle`: writes beside reads, single-threaded and
//! deterministic. Build, save and load in set-up; then rounds of
//! {stage a batch, query the generation plus the staged delta, fold
//! the delta into the next generation}. The read workloads only read
//! `index`, `filters` and `persist`; this one uses them as a writer
//! does, so a read-path gain bought with build, save or refresh time
//! shows here — `qps` counts a round's queries over the whole round,
//! refresh included.

use super::{report_shared_layers, report_summary};
use crate::gate::{differing, digests, oracle_sample, SplitMix};
use crate::layers::traced_pass;
use crate::report::Outcome;
use crate::setup::{
    build_engine, build_store, context_for, generate_inputs, repeat_setup, report_setup,
    roi_objects, save_and_load, secs, timed, warm_up, Env, Mix, Phases, SEAL_KIND,
};
use crate::stats::{mean, median, summarize};
use crate::trace::{Name, Tracer, ROOT};
use seal_core::verify::naive_search;
use seal_core::{
    BuildOpts, LiveEngine, ObjectId, ObjectStore, Query, RoiObject, SealEngine, SimilarityConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds run at least (one segment each) and at most (the pool of
/// objects to stage is generated up front).
const MIN_ROUNDS: usize = 5;
const MAX_ROUNDS: usize = 16;

/// Overlay queries per round.
const ROUND_QUERIES: usize = 2_000;

/// Every this-many-th overlay query is checked against the oracle.
const CHECK_EVERY: usize = 50;

/// Queries a traced round also answers before staging, for the cost of
/// the overlay.
const CLEAN_QUERIES: usize = 500;

struct State {
    store: Arc<ObjectStore>,
    vocab: usize,
    queries: Vec<Query>,
    /// The batches to stage, one per round.
    pool: Vec<Vec<RoiObject>>,
    live: LiveEngine,
    loaded: SealEngine,
}

fn setup_once(env: &Env) -> (State, Phases) {
    let mut phases = Phases::default();
    let begin = Instant::now();
    let base = env.objects(45_000);
    let batch = (base / 45).max(1);
    let ((dataset, queries), t) =
        generate_inputs(base + MAX_ROUNDS * batch, Mix::Small, 0.4, env.seed);
    phases.generate = Some(t);
    let (store, t) = build_store(&dataset, &dataset.objects[..base]);
    phases.store = Some(t);
    let pool = dataset.objects[base..]
        .chunks(batch)
        .map(roi_objects)
        .collect();
    let (live, t) = timed(|| {
        LiveEngine::with_opts(
            store.clone(),
            SEAL_KIND,
            SimilarityConfig::default(),
            BuildOpts::default(),
        )
    });
    phases.filter_build = Some(t);
    let loaded = save_and_load(
        &live.engine(),
        &env.out_dir.join("lifecycle.seal"),
        &mut phases,
    );
    let mut ctx = context_for(&loaded);
    phases.warm_up = Some(warm_up(&queries, |q| {
        live.search_with_ctx(q, &mut ctx);
    }));
    phases.total = Some((begin, Instant::now()));
    (
        State {
            store,
            vocab: dataset.vocab_size,
            queries,
            pool,
            live,
            loaded,
        },
        phases,
    )
}

/// What the generation plus its staged delta must answer: the oracle
/// over the frozen store, and every staged object that passes under
/// the frozen weights, at the id it will keep.
fn overlay_oracle(generation: &SealEngine, staged: &[RoiObject], q: &Query) -> Vec<ObjectId> {
    let store = generation.store();
    let cfg = generation.config();
    let mut ids = naive_search(store, &cfg, q);
    let base = store.len() as u32;
    ids.extend(
        staged
            .iter()
            .enumerate()
            .filter(|(_, o)| cfg.is_answer(q, o, store.weights()))
            .map(|(i, _)| ObjectId(base + i as u32)),
    );
    ids.sort_unstable();
    ids
}

/// One round's measurements.
struct Round {
    /// Ascending overlay-query latencies.
    lat_ns: Vec<u64>,
    /// Push + overlay queries + refresh.
    wall_s: f64,
    refresh_s: f64,
}

pub fn run(env: &Env, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (state, reps) = repeat_setup(|| setup_once(env));
    report_setup(&mut out, &reps, env.trace.then_some(&mut *tracer));
    let live = &state.live;
    let generation_0 = live.engine();
    out.set("index_bytes", generation_0.index_bytes() as f64);
    let queries = &state.queries;
    let n = queries.len();
    let mut ctx = context_for(&generation_0);

    // Gate before the rounds: loaded == built on the whole set,
    // generation 0 == oracle on the sample.
    let built = digests(queries, |q| live.search_with_ctx(q, &mut ctx).answers);
    let loaded = digests(queries, |q| {
        state.loaded.search_with_ctx(q, &mut ctx).answers
    });
    out.checked(n, differing(&built, &loaded));
    let sample = oracle_sample(&state.store, &generation_0.config(), queries, env.seed);
    let wrong = sample.mismatches(|q| live.search_with_ctx(q, &mut ctx).answers);
    out.checked(sample.cases.len(), wrong);
    out.note(sample.describe());

    let limit = Duration::from_secs_f64(env.seconds);
    let start = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut cursor = 0usize;
    let (mut reused, mut pushed, mut last_refresh_s) = (0usize, 0usize, 0.0);
    let mut rng = SplitMix(env.seed ^ 0x11FE);
    while (start.elapsed() < limit || rounds.len() < MIN_ROUNDS) && rounds.len() < state.pool.len()
    {
        // With --trace 1 odd rounds run under spans, even ones without.
        let traced = env.trace && rounds.len() % 2 == 1;
        let request = (rounds.len() * ROUND_QUERIES) as u32;
        if traced {
            // The round's first queries with nothing staged — once
            // unrecorded, because the generation the last refresh
            // swapped in is still cold — to set beside the same
            // queries over the staged delta.
            for recorded in [false, true] {
                for k in 0..CLEAN_QUERIES {
                    let q = &queries[(cursor + k) % n];
                    let span =
                        recorded.then(|| tracer.begin(Name::LiveSearch, ROOT, request + k as u32));
                    std::hint::black_box(live.search_with_ctx(q, &mut ctx));
                    if let Some(span) = span {
                        tracer.end(span, 0, 0);
                    }
                }
            }
        }
        let batch = state.pool[rounds.len()].clone();
        let staged = batch.len();
        let round_start = Instant::now();
        let span = traced.then(|| tracer.begin(Name::PushAll, ROOT, request));
        live.push_all(batch);
        if let Some(span) = span {
            tracer.end(span, staged as u64, 0);
        }
        pushed += staged;
        let mut lat_ns = Vec::with_capacity(ROUND_QUERIES);
        let mut to_check = Vec::with_capacity(ROUND_QUERIES / CHECK_EVERY + 1);
        let check_phase = rng.below(CHECK_EVERY);
        for k in 0..ROUND_QUERIES {
            let q = &queries[(cursor + k) % n];
            let span = traced.then(|| tracer.begin(Name::LiveSearch, ROOT, request + k as u32));
            let t0 = Instant::now();
            let result = live.search_with_ctx(q, &mut ctx);
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            if let Some(span) = span {
                tracer.end(span, staged as u64, 0);
            }
            if k % CHECK_EVERY == check_phase {
                to_check.push((q, result.sorted().answers));
            }
        }
        cursor = (cursor + ROUND_QUERIES) % n;
        let (generation, delta) = live.snapshot();
        let span = traced.then(|| tracer.begin(Name::Refresh, ROOT, request));
        let (stats, t) = timed(|| live.refresh());
        if let Some(span) = span {
            tracer.end(span, stats.merged as u64, u64::from(stats.scheme_reused));
        }
        let wall_s = round_start.elapsed().as_secs_f64();
        last_refresh_s = secs(t);
        reused += usize::from(stats.scheme_reused);

        // Outside the round's clock: the sampled overlay answers
        // against the oracle over generation + staged delta.
        let staged_objects: Vec<RoiObject> = delta.iter().cloned().collect();
        let wrong = to_check
            .iter()
            .filter(|(q, got)| overlay_oracle(&generation, &staged_objects, q) != *got)
            .count();
        out.checked(to_check.len(), wrong);
        out.checked(1, usize::from(stats.merged != staged));
        lat_ns.sort_unstable();
        rounds.push((
            traced,
            Round {
                lat_ns,
                wall_s,
                refresh_s: last_refresh_s,
            },
        ));
    }

    // Gate after the rounds: the refreshed generation must answer as a
    // fresh build over the union corpus does, and as the oracle does.
    let current = live.engine();
    let union: Vec<RoiObject> = current.store().objects().to_vec();
    let union_store = Arc::new(ObjectStore::from_objects(union, state.vocab));
    let (fresh, t) = build_engine(&union_store, SEAL_KIND);
    let fresh_build_s = secs(t);
    let refreshed = digests(queries, |q| live.search_with_ctx(q, &mut ctx).answers);
    let from_fresh = digests(queries, |q| fresh.search_with_ctx(q, &mut ctx).answers);
    out.checked(n, differing(&refreshed, &from_fresh));
    let sample = oracle_sample(&union_store, &fresh.config(), queries, env.seed ^ 1);
    let wrong = sample.mismatches(|q| live.search_with_ctx(q, &mut ctx).answers);
    out.checked(sample.cases.len(), wrong);
    out.note(format!(
        "lifecycle: {} rounds, {pushed} objects staged and merged, final corpus {}",
        rounds.len(),
        union_store.len()
    ));

    let segments = |want_traced: bool| -> Vec<(Vec<u64>, f64)> {
        rounds
            .iter()
            .filter(|(traced, _)| *traced == want_traced)
            .map(|(_, r)| (r.lat_ns.clone(), r.wall_s))
            .collect()
    };
    if !env.trace {
        report_summary(&mut out, &summarize(&segments(false)));
        return out;
    }

    let rate = |segs: &[(Vec<u64>, f64)]| -> Vec<f64> {
        segs.iter().map(|(l, s)| l.len() as f64 / s).collect()
    };
    let traced_rounds = rounds.iter().filter(|(t, _)| *t).count();
    let (mut clean, mut overlay) = (Vec::new(), Vec::new());
    let (mut push_ns, mut push_objects) = (0u64, 0u64);
    for s in tracer.spans() {
        match s.name {
            // Request ids are `round · ROUND_QUERIES + k`; only the
            // queries the clean pass also ran are compared.
            Name::LiveSearch if s.request as usize % ROUND_QUERIES >= CLEAN_QUERIES => {}
            Name::LiveSearch if s.a == 0 => clean.push(s.dur_ns() as f64 / 1e3),
            Name::LiveSearch => overlay.push(s.dur_ns() as f64 / 1e3),
            Name::PushAll => {
                push_ns += s.dur_ns();
                push_objects += s.a;
            }
            _ => {}
        }
    }
    out.set_sampled(
        "live.push_ns",
        push_ns as f64 / push_objects.max(1) as f64,
        traced_rounds,
    );
    out.set_sampled(
        "live.overlay_us",
        mean(&overlay) - mean(&clean),
        overlay.len(),
    );
    let refreshes: Vec<f64> = rounds.iter().map(|(_, r)| r.refresh_s).collect();
    out.set_sampled("live.refresh_s", median(&refreshes), refreshes.len());
    out.set("live.fresh_build_s", fresh_build_s);
    out.set(
        "live.refresh_over_fresh",
        last_refresh_s / fresh_build_s.max(1e-12),
    );
    out.set_sampled(
        "live.scheme_reused_share",
        reused as f64 / rounds.len().max(1) as f64,
        rounds.len(),
    );
    tracer.record(Name::FreshBuild, t.0, t.1, union_store.len() as u64, 0);
    // The final generation's engine, decomposed, on the same queries.
    let (_, failed) = traced_pass(&current, queries, &refreshed, &mut ctx, tracer, 0);
    out.checked(n, failed);
    report_shared_layers(
        &mut out,
        env,
        tracer,
        &union_store,
        queries,
        &generation_0,
        (&rate(&segments(false)), &rate(&segments(true))),
    );
    out
}
