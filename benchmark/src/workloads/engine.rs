//! The three in-process workloads on one `SealEngine`: a selective
//! probe where the filter dominates, a broad one where verification
//! does, and a compressed index served from the loaded `.seal` file.

use super::{measure_closed_loop, report_shared_layers};
use crate::gate::{differing, digests, oracle_sample};
use crate::layers::traced_pass;
use crate::report::Outcome;
use crate::run::{timed_pass, Digest};
use crate::setup::{
    build_engine, build_store, context_for, generate_inputs, repeat_setup, report_setup,
    save_and_load, warm_up, Env, Mix, Phases, SEAL_KIND,
};
use crate::trace::Tracer;
use seal_core::{FilterKind, ObjectStore, Query, SealEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What distinguishes the three workloads.
pub struct Spec {
    name: &'static str,
    objects: usize,
    kind: FilterKind,
    mix: Mix,
    tau: f64,
    /// Serve from the engine loaded from disk, not the one built.
    serve_loaded: bool,
}

pub fn spec(name: &str, env: &Env) -> Option<Spec> {
    Some(match name {
        // Small regions at τ = 0.4: a handful of lists, a few hundred
        // postings, short qualifying prefixes — the filter is most of
        // the query.
        "probe_selective" => Spec {
            name: "probe_selective",
            objects: env.objects(50_000),
            kind: SEAL_KIND,
            mix: Mix::Small,
            tau: 0.4,
            serve_loaded: false,
        },
        // Large regions at τ = 0.1: thousands of candidates and long
        // qualifying prefixes — verification is most of the query.
        "verify_broad" => Spec {
            name: "verify_broad",
            objects: env.objects(100_000),
            kind: FilterKind::Token,
            mix: Mix::Large,
            tau: 0.1,
            serve_loaded: false,
        },
        // The only workload whose answers come off compressed posting
        // lists and out of a container that was written and read back.
        "compressed_probe" => Spec {
            name: "compressed_probe",
            objects: env.objects(100_000),
            kind: FilterKind::HashHybridCompressed {
                side: 64,
                buckets: None,
            },
            mix: Mix::Small,
            tau: 0.1,
            serve_loaded: true,
        },
        _ => return None,
    })
}

struct State {
    store: Arc<ObjectStore>,
    queries: Vec<Query>,
    built: SealEngine,
    loaded: SealEngine,
}

fn setup_once(spec: &Spec, env: &Env) -> (State, Phases) {
    let mut phases = Phases::default();
    let begin = Instant::now();
    let ((dataset, queries), t) = generate_inputs(spec.objects, spec.mix, spec.tau, env.seed);
    phases.generate = Some(t);
    let (store, t) = build_store(&dataset, &dataset.objects);
    phases.store = Some(t);
    let (built, t) = build_engine(&store, spec.kind);
    phases.filter_build = Some(t);
    let path = env.out_dir.join(format!("{}.seal", spec.name));
    let loaded = save_and_load(&built, &path, &mut phases);
    let serving = if spec.serve_loaded { &loaded } else { &built };
    let mut ctx = context_for(serving);
    phases.warm_up = Some(warm_up(&queries, |q| {
        serving.search_with_ctx(q, &mut ctx);
    }));
    phases.total = Some((begin, Instant::now()));
    (
        State {
            store,
            queries,
            built,
            loaded,
        },
        phases,
    )
}

pub fn run(spec: Spec, env: &Env, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (state, reps) = repeat_setup(|| setup_once(&spec, env));
    report_setup(&mut out, &reps, env.trace.then_some(&mut *tracer));
    let (serving, other) = if spec.serve_loaded {
        (&state.loaded, &state.built)
    } else {
        (&state.built, &state.loaded)
    };
    out.set("index_bytes", serving.index_bytes() as f64);
    let queries = &state.queries;
    let n = queries.len();
    let mut ctx = context_for(serving);

    // Gate: loaded == built on the whole set, serving == oracle on the
    // sample.
    let expected = digests(queries, |q| serving.search_with_ctx(q, &mut ctx).answers);
    let others = digests(queries, |q| other.search_with_ctx(q, &mut ctx).answers);
    out.checked(n, differing(&expected, &others));
    let sample = oracle_sample(&state.store, &serving.config(), queries, env.seed);
    let wrong = sample.mismatches(|q| serving.search_with_ctx(q, &mut ctx).answers);
    out.checked(sample.cases.len(), wrong);
    out.note(sample.describe());

    if !env.trace {
        measure_closed_loop(&mut out, env, &expected, |i| {
            serving.search_with_ctx(&queries[i], &mut ctx).answers
        });
        return out;
    }

    // Traced run: whole passes over the set, untraced and traced in
    // turn, so drift hits both alike and the counts stay exact.
    let limit = Duration::from_secs_f64(env.seconds);
    let start = Instant::now();
    let (mut untraced_qps, mut traced_qps) = (Vec::new(), Vec::new());
    while start.elapsed() < limit || traced_qps.is_empty() {
        let (wall_s, failed) = timed_pass(
            n,
            |i| serving.search_with_ctx(&queries[i], &mut ctx).answers,
            |i, answers| Digest::of(&answers) == expected[i],
        );
        out.checked(n, failed);
        untraced_qps.push(n as f64 / wall_s);
        let base = (traced_qps.len() * n) as u32;
        let (wall_s, failed) = traced_pass(serving, queries, &expected, &mut ctx, tracer, base);
        out.checked(n, failed);
        traced_qps.push(n as f64 / wall_s);
    }
    report_shared_layers(
        &mut out,
        env,
        tracer,
        &state.store,
        queries,
        &state.built,
        (&untraced_qps, &traced_qps),
    );
    out
}
