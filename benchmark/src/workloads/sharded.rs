//! `sharded_fanout`: the one workload that goes through `sharded.rs` —
//! probe-set pruning, per-shard fixed cost and the merge — on a mix of
//! small and large regions, cross-checked against the single arena.

use super::{measure_closed_loop, report_shared_layers};
use crate::gate::{differing, digests, oracle_sample};
use crate::layers::{mean_dur, traced_pass};
use crate::report::Outcome;
use crate::run::{timed_pass, Digest};
use crate::setup::{
    build_engine, build_store, context_for, generate_inputs, repeat_setup, report_setup,
    save_and_load, timed, warm_up, Env, Mix, Phases, SEAL_KIND,
};
use crate::trace::{Name, Tracer, ROOT};
use seal_core::{
    BuildOpts, ObjectStore, Query, QueryEngine, SealEngine, ShardPolicy, ShardedEngine,
    SimilarityConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;

struct State {
    store: Arc<ObjectStore>,
    queries: Vec<Query>,
    /// The single arena the sharded answers are checked against.
    arena: SealEngine,
    loaded: SealEngine,
    sharded: ShardedEngine,
}

fn setup_once(env: &Env) -> (State, Phases) {
    let mut phases = Phases::default();
    let begin = Instant::now();
    let ((dataset, queries), t) = generate_inputs(env.objects(40_000), Mix::Half, 0.2, env.seed);
    phases.generate = Some(t);
    let (store, t) = build_store(&dataset, &dataset.objects);
    phases.store = Some(t);
    let (arena, t) = build_engine(&store, SEAL_KIND);
    phases.filter_build = Some(t);
    let (sharded, t) = timed(|| {
        ShardedEngine::with_opts(
            &store,
            SEAL_KIND,
            SimilarityConfig::default(),
            BuildOpts::default(),
            SHARDS,
            Some(ShardPolicy::Spatial),
        )
    });
    phases.sharded_build = Some(t);
    let loaded = save_and_load(
        &arena,
        &env.out_dir.join("sharded_fanout.seal"),
        &mut phases,
    );
    phases.warm_up = Some(warm_up(&queries, |q| {
        QueryEngine::search(&sharded, q);
    }));
    phases.total = Some((begin, Instant::now()));
    (
        State {
            store,
            queries,
            arena,
            loaded,
            sharded,
        },
        phases,
    )
}

pub fn run(env: &Env, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (state, reps) = repeat_setup(|| setup_once(env));
    report_setup(&mut out, &reps, env.trace.then_some(&mut *tracer));
    let sharded = &state.sharded;
    out.set("index_bytes", sharded.status().index_bytes as f64);
    let queries = &state.queries;
    let n = queries.len();
    let mut ctx = context_for(&state.arena);

    // Gate: sharded == single arena == loaded arena on the whole set,
    // single arena == oracle on the sample.
    let expected = digests(queries, |q| {
        state.arena.search_with_ctx(q, &mut ctx).answers
    });
    let from_shards = digests(queries, |q| QueryEngine::search(sharded, q).answers);
    out.checked(n, differing(&expected, &from_shards));
    let from_loaded = digests(queries, |q| {
        state.loaded.search_with_ctx(q, &mut ctx).answers
    });
    out.checked(n, differing(&expected, &from_loaded));
    let sample = oracle_sample(&state.store, &state.arena.config(), queries, env.seed);
    let wrong = sample.mismatches(|q| QueryEngine::search(sharded, q).answers);
    out.checked(sample.cases.len(), wrong);
    out.note(sample.describe());

    if !env.trace {
        measure_closed_loop(&mut out, env, &expected, |i| {
            QueryEngine::search(sharded, &queries[i]).answers
        });
        return out;
    }

    // Traced run, in whole passes: the sharded search untraced, the
    // same under a span, then the single arena decomposed on the same
    // queries (what the sharded overhead is measured against).
    let limit = Duration::from_secs_f64(env.seconds);
    let start = Instant::now();
    let (mut untraced_qps, mut traced_qps) = (Vec::new(), Vec::new());
    while start.elapsed() < limit || traced_qps.is_empty() {
        let (wall_s, failed) = timed_pass(
            n,
            |i| QueryEngine::search(sharded, &queries[i]).answers,
            |i, answers| Digest::of(&answers) == expected[i],
        );
        out.checked(n, failed);
        untraced_qps.push(n as f64 / wall_s);
        let base = (traced_qps.len() * n) as u32;
        let pass_start = Instant::now();
        let mut failed = 0;
        for (i, q) in queries.iter().enumerate() {
            let span = tracer.begin(Name::ShardedSearch, ROOT, base + i as u32);
            let result = QueryEngine::search(sharded, q);
            let merge = result.stats.merge_time.as_nanos() as u64;
            tracer.end(span, result.stats.shards_probed as u64, merge);
            failed += usize::from(Digest::of(&result.answers) != expected[i]);
        }
        traced_qps.push(n as f64 / pass_start.elapsed().as_secs_f64());
        out.checked(n, failed);
        let (_, failed) = traced_pass(&state.arena, queries, &expected, &mut ctx, tracer, base);
        out.checked(n, failed);
    }
    report_shared_layers(
        &mut out,
        env,
        tracer,
        &state.store,
        queries,
        &state.arena,
        (&untraced_qps, &traced_qps),
    );
    let (sharded_us, searches) = mean_dur(tracer, Name::ShardedSearch, 1e3);
    // The span's counts: a = shards probed, b = merge nanoseconds.
    let (probed, merge_ns) = tracer
        .spans()
        .iter()
        .filter(|s| s.name == Name::ShardedSearch)
        .fold((0, 0), |(a, b), s| (a + s.a, b + s.b));
    let per_search = |total: u64| total as f64 / searches.max(1) as f64;
    out.set("sharded.shards_probed", per_search(probed));
    out.set("sharded.fanout_ratio", per_search(probed) / SHARDS as f64);
    out.set("sharded.merge_us", per_search(merge_ns) / 1e3);
    out.set_sampled(
        "sharded.overhead_us",
        sharded_us - out.get("engine.search_us").unwrap_or(0.0),
        searches,
    );
    out
}
