//! `serve_query`: `GET /query` over loopback against an in-process
//! `Server`, closed loop, one thread per keep-alive connection. The
//! engine is a small share of a wire round trip, so this is where
//! `http`, `batcher` and `server` show — and where an engine speed-up
//! must not be expected to.
//!
//! The client loop is the benchmark's own: `seal_server::client::run_load`
//! is open-loop and times from the send, not from when the request was
//! due, so it cannot report a closed loop's latency.

use super::{report_shared_layers, report_summary};
use crate::gate::{differing, digests, oracle_sample};
use crate::json::{self, Value};
use crate::layers::{mean_dur, traced_pass};
use crate::report::Outcome;
use crate::run::{closed_loop, Digest, LoopOut};
use crate::setup::{
    build_store, context_for, generate_inputs, repeat_setup, report_setup, save_and_load, timed,
    Env, Mix, Phases, SEAL_KIND, WARM_UP,
};
use crate::stats::{percentile, summarize_phase, Sample};
use crate::trace::{Name, Tracer, ROOT};
use seal_core::{
    BuildOpts, LiveEngine, ObjectStore, Query, QueryContext, QueryEngine, SealEngine, SearchResult,
    SimilarityConfig,
};
use seal_server::batcher::Batcher;
use seal_server::client::HttpClient;
use seal_server::http::{encode_response, parse_request, Limits};
use seal_server::{Server, ServerConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections (and driver threads) wanted; never more than `nproc`.
const CLIENTS: usize = 2;

struct State {
    store: Arc<ObjectStore>,
    queries: Vec<Query>,
    /// The request target of each query of the set.
    targets: Vec<String>,
    live: Arc<LiveEngine>,
    loaded: SealEngine,
    server: Server,
}

/// `/query?...` for one query: numeric token ids, shortest-round-trip
/// floats, so the server parses back exactly this query.
fn target_for(q: &Query) -> String {
    let (lo, hi) = (q.region.min(), q.region.max());
    let tokens: Vec<String> = q.tokens.iter().map(|t| t.0.to_string()).collect();
    format!(
        "/query?region={},{},{},{}&tokens={}&tau_r={}&tau_t={}",
        lo.x,
        lo.y,
        hi.x,
        hi.y,
        tokens.join(","),
        q.tau_spatial,
        q.tau_textual
    )
}

/// The answer ids in a `/query` response body.
fn wire_digest(body: &[u8]) -> Option<Digest> {
    let text = std::str::from_utf8(body).ok()?;
    let list = text.split_once("\"answers\":[")?.1.split_once(']')?.0;
    let ids: Option<Vec<u32>> = list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().ok())
        .collect();
    Some(Digest::of_raw(ids?.into_iter()))
}

/// One request; the status (0 for a transport error) and the digest of
/// the answers it carried.
fn ask(client: &mut HttpClient, target: &str) -> (u16, Option<Digest>) {
    match client.request("GET", target, b"") {
        Ok(r) => (r.status, wire_digest(&r.body)),
        Err(_) => (0, None),
    }
}

fn connect(server: &Server) -> HttpClient {
    HttpClient::connect(&server.addr().to_string()).expect("connect to the in-process server")
}

fn setup_once(env: &Env) -> (State, Phases) {
    let mut phases = Phases::default();
    let begin = Instant::now();
    let ((dataset, queries), t) = generate_inputs(env.objects(50_000), Mix::Small, 0.4, env.seed);
    phases.generate = Some(t);
    let targets: Vec<String> = queries.iter().map(target_for).collect();
    let (store, t) = build_store(&dataset, &dataset.objects);
    phases.store = Some(t);
    let (live, t) = timed(|| {
        Arc::new(LiveEngine::with_opts(
            store.clone(),
            SEAL_KIND,
            SimilarityConfig::default(),
            BuildOpts::default(),
        ))
    });
    phases.filter_build = Some(t);
    let loaded = save_and_load(
        &live.engine(),
        &env.out_dir.join("serve_query.seal"),
        &mut phases,
    );
    let (server, t) =
        timed(|| Server::spawn(live.clone(), ServerConfig::default()).expect("spawn the server"));
    phases.spawn = Some(t);
    let (_, t) = timed(|| {
        let mut client = connect(&server);
        for target in targets.iter().take(WARM_UP) {
            ask(&mut client, target);
        }
    });
    phases.warm_up = Some(t);
    phases.total = Some((begin, Instant::now()));
    (
        State {
            store,
            queries,
            targets,
            live,
            loaded,
            server,
        },
        phases,
    )
}

/// The answer body the server writes for a result (the shadow encodes
/// the same bytes).
fn answer_body(result: SearchResult, generation: u64) -> String {
    let result = result.sorted();
    let ids: Vec<String> = result.answers.iter().map(|id| id.0.to_string()).collect();
    format!(
        "{{\"answers\":[{}],\"count\":{},\"candidates\":{},\"generation\":{}}}",
        ids.join(","),
        result.answers.len(),
        result.stats.candidates,
        generation
    )
}

/// Runs `work(t, connection_t)` on one thread per connection and joins
/// them all.
fn on_each_connection<R: Send>(
    connections: &mut [HttpClient],
    work: impl Fn(usize, &mut HttpClient) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                let work = &work;
                scope.spawn(move || work(t, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// The in-process shadow of one wire request: the layers the server
/// passes through between its socket read and write, each called
/// directly under its own span, and the direct search `submit` wraps.
struct Replay<'a> {
    /// A batcher configured as the server's own.
    batcher: Batcher,
    live: &'a LiveEngine,
    limits: Limits,
}

impl Replay<'_> {
    fn run(&self, tr: &mut Tracer, request: u32, target: &str, q: &Query, ctx: &mut QueryContext) {
        let raw = format!("GET {target} HTTP/1.1\r\nHost: seal\r\nContent-Length: 0\r\n\r\n");
        let root = tr.begin(Name::Shadow, ROOT, request);
        let span = tr.begin(Name::HttpParse, root, request);
        let parsed = parse_request(raw.as_bytes(), &self.limits);
        tr.end(span, 0, 0);
        assert!(parsed.is_ok(), "the client's own request must parse");
        let span = tr.begin(Name::BatcherSubmit, root, request);
        let batch = AtomicUsize::new(0);
        let result = self
            .batcher
            .submit(q.clone(), &|b| batch.store(b, Ordering::Relaxed))
            .expect("the shadow batcher's queue never fills");
        tr.end(span, batch.load(Ordering::Relaxed) as u64, 0);
        let span = tr.begin(Name::HttpEncode, root, request);
        let body = answer_body(result, 0);
        black_box(encode_response(200, "OK", &[], body.as_bytes(), true));
        tr.end(span, 0, 0);
        let span = tr.begin(Name::LiveSearch, root, request);
        black_box(self.live.search_with_ctx(q, ctx));
        tr.end(span, 0, 0);
        tr.end(root, 0, 0);
    }
}

pub fn run(env: &Env, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = CLIENTS.min(nproc);
    out.note(format!(
        "serve_query: nproc={nproc}, {clients} client thread(s), one keep-alive connection each"
    ));
    let (state, reps) = repeat_setup(|| setup_once(env));
    report_setup(&mut out, &reps, env.trace.then_some(&mut *tracer));
    let engine: Arc<dyn QueryEngine> = state.live.clone();
    out.set("index_bytes", engine.status().index_bytes as f64);
    let (queries, targets) = (&state.queries, &state.targets);
    let n = queries.len();
    let arena = state.live.engine();
    let mut ctx = context_for(&arena);

    // Gate: wire == direct == loaded on the whole set, wire == oracle
    // on the sample.
    let expected = digests(queries, |q| state.live.search_with_ctx(q, &mut ctx).answers);
    let from_loaded = digests(queries, |q| {
        state.loaded.search_with_ctx(q, &mut ctx).answers
    });
    out.checked(n, differing(&expected, &from_loaded));
    let mut client = connect(&state.server);
    let wire_wrong = targets
        .iter()
        .zip(&expected)
        .filter(|(t, e)| ask(&mut client, t) != (200, Some(**e)))
        .count();
    out.checked(n, wire_wrong);
    let sample = oracle_sample(&state.store, &arena.config(), queries, env.seed);
    let wrong = sample
        .cases
        .iter()
        .filter(|(q, answers)| ask(&mut client, &target_for(q)) != (200, Some(Digest::of(answers))))
        .count();
    out.checked(sample.cases.len(), wrong);
    out.note(sample.describe());
    drop(client);

    let limit = Duration::from_secs_f64(env.seconds);
    let shed = AtomicUsize::new(0);
    let check = |i: usize, (status, digest): (u16, Option<Digest>)| {
        if status == 503 {
            shed.fetch_add(1, Ordering::Relaxed);
        }
        status == 200 && digest == Some(expected[i])
    };
    let mut connections: Vec<HttpClient> = (0..clients).map(|_| connect(&state.server)).collect();
    let start = Instant::now();
    if !env.trace {
        let loops: Vec<LoopOut> = on_each_connection(&mut connections, |t, client| {
            closed_loop(
                start,
                limit,
                n,
                t,
                clients,
                |i| ask(client, &targets[i]),
                &check,
            )
        });
        let mut samples: Vec<Sample> = Vec::new();
        for l in loops {
            out.checked(l.attempted, l.failed);
            samples.extend(l.samples);
        }
        report_summary(
            &mut out,
            &summarize_phase(&samples, limit.as_nanos() as u64),
        );
        return out;
    }

    // Traced run, in whole passes over the set split across the
    // connections: wire only, then wire under a span with each request
    // replayed in process (parse → submit → encode, and the direct
    // search the submit wraps) so the round trip can be attributed.
    let cfg = ServerConfig::default();
    let replay = Replay {
        batcher: Batcher::new(engine.clone(), cfg.max_batch, cfg.max_queued, cfg.threads),
        live: &state.live,
        limits: Limits::default(),
    };
    let origin = tracer.origin();
    let (mut untraced_qps, mut traced_qps) = (Vec::new(), Vec::new());
    let mut requests = 0usize;
    while start.elapsed() < limit || traced_qps.is_empty() {
        for traced in [false, true] {
            let base = (traced_qps.len() * n) as u32;
            // (spans, requests made, requests failed, Σ wire ns)
            let results: Vec<(Tracer, usize, usize, u64)> =
                on_each_connection(&mut connections, |t, client| {
                    let mut tr = Tracer::new(origin);
                    let mut ctx = context_for(&replay.live.engine());
                    let (mut made, mut failed, mut wire_ns) = (0, 0, 0u64);
                    for i in (t..n).step_by(clients) {
                        made += 1;
                        if !traced {
                            let t0 = Instant::now();
                            let reply = ask(client, &targets[i]);
                            wire_ns += t0.elapsed().as_nanos() as u64;
                            failed += usize::from(!check(i, reply));
                            continue;
                        }
                        let request = base + i as u32;
                        let wire = tr.begin(Name::Wire, ROOT, request);
                        let reply = ask(client, &targets[i]);
                        tr.end(wire, u64::from(reply.0), 0);
                        wire_ns += tr.spans()[wire as usize].dur_ns();
                        failed += usize::from(!check(i, reply));
                        replay.run(&mut tr, request, &targets[i], &queries[i], &mut ctx);
                    }
                    (tr, made, failed, wire_ns)
                });
            // A closed loop of `clients` callers completes
            // clients / (mean round trip) requests per second; the
            // shadow work between a traced pass's requests is left out.
            let wire_ns: u64 = results.iter().map(|r| r.3).sum();
            let qps = clients as f64 * n as f64 / (wire_ns as f64 / 1e9).max(1e-12);
            if traced {
                &mut traced_qps
            } else {
                &mut untraced_qps
            }
            .push(qps);
            requests += n;
            for (tr, made, failed, _) in results {
                out.checked(made, failed);
                tracer.absorb(tr);
            }
        }
    }
    // The engine under the server, decomposed, on the same queries.
    let (_, failed) = traced_pass(&arena, queries, &expected, &mut ctx, tracer, 0);
    out.checked(n, failed);
    report_shared_layers(
        &mut out,
        env,
        tracer,
        &state.store,
        queries,
        &arena,
        (&untraced_qps, &traced_qps),
    );

    let p50 = |name| {
        let mut d = tracer.durations(name);
        d.sort_unstable();
        percentile(&d, 0.5) as f64
    };
    let wire_ns = p50(Name::Wire);
    let attributed_ns = p50(Name::HttpParse) + p50(Name::BatcherSubmit) + p50(Name::HttpEncode);
    let (parse_ns, shadowed) = mean_dur(tracer, Name::HttpParse, 1.0);
    out.set_sampled("http.parse_ns", parse_ns, shadowed);
    out.set_sampled(
        "http.encode_ns",
        mean_dur(tracer, Name::HttpEncode, 1.0).0,
        shadowed,
    );
    let submit_us = mean_dur(tracer, Name::BatcherSubmit, 1e3).0;
    out.set_sampled("batcher.submit_us", submit_us, shadowed);
    out.set_sampled(
        "batcher.overhead_us",
        submit_us - mean_dur(tracer, Name::LiveSearch, 1e3).0,
        shadowed,
    );
    out.set_sampled("server.wire_p50_us", wire_ns / 1e3, shadowed);
    out.set("server.unattributed_us", (wire_ns - attributed_ns) / 1e3);
    out.set("server.attributed_share", attributed_ns / wire_ns.max(1.0));
    out.set(
        "server.shed_share",
        shed.load(Ordering::Relaxed) as f64 / requests.max(1) as f64,
    );
    let metrics = json::parse(&state.server.metrics_json()).expect("the server's metrics are JSON");
    let number = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
    let batches = number(metrics.get("batches"));
    out.set(
        "batcher.mean_batch",
        number(metrics.get("batched_queries")) / batches.max(1.0),
    );
    out.set("batcher.max_batch", number(metrics.get("max_batch")));
    out.set(
        "server.handler_p50_us",
        number(
            metrics
                .get("query")
                .and_then(|q| q.get("latency"))
                .and_then(|l| l.get("p50_us")),
        ),
    );
    out
}
