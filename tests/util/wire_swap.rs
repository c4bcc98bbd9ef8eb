//! The wire suite shared by `server_concurrent.rs` (a `LiveEngine`)
//! and `server_sharded.rs` (a `ShardedEngine` of 4 shards): the
//! serving tier under interleaved `/query`, `/push` and `/refresh`
//! traffic — the wire-level twin of
//! `live_ingest::queries_keep_answering_while_refresh_runs`. The
//! serving tier is engine-generic, so the same oracle discipline must
//! hold when every `/query` fans out across shards and every `/push`
//! routes through the partitioner.
//!
//! Setup mirrors the in-process test: a gen-0 corpus, a staged delta
//! pushed **over the wire**, and both legal answer snapshots computed
//! from the naive oracle up front —
//!
//! * **before** the swap: gen-0 answers plus the frozen-weight delta
//!   overlay, under the ids the staged objects keep forever;
//! * **after** the swap: a from-scratch union build.
//!
//! Then ≥ 32 client threads hammer `/query` (plus `/push` and
//! `/status` mixers) while one client drives `POST /refresh`. Every
//! response observed at any point must decode to exactly one of the
//! two legal snapshots — anything else (a torn answer, a dropped
//! overlay, a half-swapped generation) fails the run. The mixer
//! pushes deliberately stage objects that can never be answers, so
//! they stress the ingest path without disturbing the oracle. Over the
//! sharded backend `/status` must also expose the per-shard detail
//! rows throughout.
//!
//! Included by each test binary with `#[path]`, next to `mod util`.

// Each binary runs one backend, so the other variant is unused there.
#![allow(dead_code)]

use crate::util::twitter_fixture;
use seal_core::{
    verify::naive_search, BuildOpts, FilterKind, LiveEngine, ObjectId, ObjectStore, Query,
    QueryEngine, RoiObject, ShardedEngine, SimilarityConfig,
};
use seal_server::{HttpClient, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Reader threads validating answers against the oracle. With the
/// push/status mixers below, the client-thread count is ≥ 32 (the
/// serving-tier acceptance bar).
const READERS: usize = 32;
const PUSH_MIXERS: usize = 2;
const STATUS_MIXERS: usize = 1;
/// Shards of the sharded backend.
const SHARDS: usize = 4;

/// The engine behind the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One `LiveEngine`.
    Live,
    /// A `ShardedEngine` of [`SHARDS`] shards.
    Sharded,
}

/// The two legal answer sets a wire client may observe for one query
/// while the refresh is in flight.
struct LegalAnswers {
    before: Vec<u32>,
    after: Vec<u32>,
}

fn query_path(q: &Query) -> String {
    let tokens: Vec<String> = q.tokens.iter().map(|t| t.0.to_string()).collect();
    format!(
        "/query?region={},{},{},{}&tokens={}&tau_r={}&tau_t={}",
        q.region.min().x,
        q.region.min().y,
        q.region.max().x,
        q.region.max().y,
        tokens.join(","),
        q.tau_spatial,
        q.tau_textual,
    )
}

/// One `/push` body line for an object (float `Display` round-trips,
/// so the server re-materializes the exact same object).
fn push_line(o: &RoiObject) -> String {
    let tokens: Vec<String> = o.tokens.iter().map(|t| t.0.to_string()).collect();
    format!(
        "{} {} {} {} {}",
        o.region.min().x,
        o.region.min().y,
        o.region.max().x,
        o.region.max().y,
        tokens.join(","),
    )
}

fn parse_answers(body: &str) -> Vec<u32> {
    let start = body
        .find("\"answers\":[")
        .unwrap_or_else(|| panic!("no answers array in {body:?}"))
        + "\"answers\":[".len();
    let end = start + body[start..].find(']').expect("unterminated answers");
    body[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("numeric object id"))
        .collect()
}

/// Runs the whole wire suite once over `backend`: oracle set-up, the
/// staged delta, ≥ 32 clients across a `POST /refresh`, then the
/// post-swap checks. Sharded-only asserts run under `Backend::Sharded`.
pub fn swap_under_load(backend: Backend) {
    let sharded = backend == Backend::Sharded;
    let (store, queries) = twitter_fixture(900, 3);
    let all: Vec<RoiObject> = store.objects().to_vec();
    let vocab = store.vocab_size();
    let split = 700usize;
    let gen0_store = Arc::new(ObjectStore::from_objects(all[..split].to_vec(), vocab));
    let delta = &all[split..];
    let union_store = Arc::new(ObjectStore::from_objects(all.clone(), vocab));
    let cfg = SimilarityConfig;

    // Both legal snapshots per query, straight from the oracle. The
    // sharded engine's global ids follow push order, so the staged
    // delta keeps ids split.. regardless of which shard each object
    // routed to.
    let legal: Vec<LegalAnswers> = queries
        .iter()
        .map(|q| {
            let mut before: Vec<ObjectId> = naive_search(&gen0_store, &cfg, q);
            for (i, o) in delta.iter().enumerate() {
                if cfg.is_answer(q, o, gen0_store.weights()) {
                    before.push(ObjectId((split + i) as u32));
                }
            }
            before.sort_unstable();
            let mut after = naive_search(&union_store, &cfg, q);
            after.sort_unstable();
            LegalAnswers {
                before: before.into_iter().map(|id| id.0).collect(),
                after: after.into_iter().map(|id| id.0).collect(),
            }
        })
        .collect();

    let kind = FilterKind::Hierarchical {
        max_level: 5,
        budget: 8,
    };
    let engine: Arc<dyn QueryEngine> = match backend {
        Backend::Live => Arc::new(LiveEngine::new(gen0_store, kind)),
        Backend::Sharded => {
            let engine = ShardedEngine::with_opts(
                &gen0_store,
                kind,
                cfg,
                BuildOpts::default(),
                SHARDS,
                None,
            );
            assert_eq!(engine.shard_count(), SHARDS);
            Arc::new(engine)
        }
    };
    // `max_staged` equals the oracle delta exactly: once the delta is
    // staged, the churn gate is closed, so the mixer pushes below are
    // deterministically shed with 503 and can never leak extra
    // objects into the generation-1 build (which would shift the IDF
    // weights away from the precomputed union oracle).
    let server = Server::spawn(
        engine,
        ServerConfig {
            max_connections: READERS + PUSH_MIXERS + STATUS_MIXERS + 8,
            max_staged: delta.len(),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // Stage the delta over the wire; it is answerable immediately, and
    // global ids continue in push order.
    let mut c = HttpClient::connect(&addr).expect("connect");
    let body: String = delta.iter().map(|o| push_line(o) + "\n").collect();
    let resp = c
        .request("POST", "/push", body.as_bytes())
        .expect("push delta");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let text = resp.text();
    assert!(
        text.contains(&format!("\"staged\":{}", delta.len())),
        "{text}"
    );
    assert!(text.contains(&format!("\"first_id\":{split}")), "{text}");

    // Pre-swap sanity: the wire serves exactly the `before` snapshot,
    // and a sharded `/status` already exposes one detail row per shard.
    let paths: Vec<String> = queries.iter().map(query_path).collect();
    for (path, l) in paths.iter().zip(&legal) {
        let resp = c.request("GET", path, &[]).expect("pre-swap query");
        assert_eq!(resp.status, 200);
        assert_eq!(
            parse_answers(&resp.text()),
            l.before,
            "{backend:?} pre-swap {path}"
        );
    }
    if sharded {
        let status = c.request("GET", "/status", &[]).expect("status").text();
        assert_eq!(
            status.matches("\"generation\":0").count(),
            SHARDS + 1,
            "engine + per-shard generations: {status}"
        );
    }

    let refresh_done = AtomicBool::new(false);
    let ready = AtomicUsize::new(0);
    let served_during_refresh = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Readers: every observed answer set must equal one of the two
        // legal snapshots, before, during and right after the swap.
        for r in 0..READERS {
            let (addr, paths, legal) = (&addr, &paths, &legal);
            let (refresh_done, ready, served) = (&refresh_done, &ready, &served_during_refresh);
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("reader connect");
                let mut qi = r; // stagger the workload across readers
                loop {
                    let done_before = refresh_done.load(Ordering::Acquire);
                    let path = &paths[qi % paths.len()];
                    let resp = client.request("GET", path, &[]).expect("reader query");
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    let got = parse_answers(&resp.text());
                    let l = &legal[qi % paths.len()];
                    assert!(
                        got == l.before || got == l.after,
                        "{backend:?}: mid-swap answer matched neither legal snapshot for {path}:\n \
                         got {got:?}\n pre {:?}\n post {:?}",
                        l.before,
                        l.after
                    );
                    if qi == r {
                        ready.fetch_add(1, Ordering::Release);
                    }
                    if !done_before {
                        served.fetch_add(1, Ordering::Relaxed);
                    } else {
                        break; // one full validated pass after the swap
                    }
                    qi += 1;
                }
            });
        }
        // Push mixers: stage objects far outside every query region
        // (spatial similarity 0 ⇒ never an answer), over an existing
        // token so the corpus vocabulary cannot drift, to keep the
        // ingest path busy without touching the oracle sets.
        for m in 0..PUSH_MIXERS {
            let (addr, refresh_done, ready) = (&addr, &refresh_done, &ready);
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("mixer connect");
                let mut i = 0usize;
                while !refresh_done.load(Ordering::Acquire) {
                    let x = 1.0e7 + (m * 1000 + i) as f64;
                    let line = format!("{x} {x} {} {} 0\n", x + 1.0, x + 1.0);
                    let resp = client
                        .request("POST", "/push", line.as_bytes())
                        .expect("mixer push");
                    // 200 (staged) and 503 (churn gate) are both legal
                    // under load; anything else is a protocol bug.
                    assert!(
                        resp.status == 200 || resp.status == 503,
                        "mixer push answered {}",
                        resp.status
                    );
                    if i == 0 {
                        ready.fetch_add(1, Ordering::Release);
                    }
                    i += 1;
                }
            });
        }
        // Status mixer: admin reads interleave with everything else; a
        // sharded view always lists every shard.
        for _ in 0..STATUS_MIXERS {
            let (addr, refresh_done, ready) = (&addr, &refresh_done, &ready);
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("status connect");
                let mut first = true;
                while !refresh_done.load(Ordering::Acquire) {
                    let resp = client.request("GET", "/status", &[]).expect("status");
                    assert_eq!(resp.status, 200);
                    if sharded {
                        let text = resp.text();
                        assert_eq!(
                            text.matches("\"staged\":").count(),
                            SHARDS + 1,
                            "engine + per-shard staged counts: {text}"
                        );
                    }
                    if first {
                        ready.fetch_add(1, Ordering::Release);
                        first = false;
                    }
                }
            });
        }
        // Start gate: every client thread has completed at least one
        // exchange before the refresh fires, so the swap happens under
        // real concurrent load.
        let clients = READERS + PUSH_MIXERS + STATUS_MIXERS;
        while ready.load(Ordering::Acquire) < clients {
            std::thread::yield_now();
        }
        let mut refresher = HttpClient::connect(&addr).expect("refresher connect");
        let resp = refresher
            .request("POST", "/refresh", &[])
            .expect("wire refresh");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let text = resp.text();
        assert!(text.contains("\"generation\":1"), "{text}");
        if sharded {
            assert!(
                text.contains(&format!("\"merged\":{}", delta.len())),
                "exactly the oracle delta merges (mixers are shed): {text}"
            );
        }
        refresh_done.store(true, Ordering::Release);
    });
    assert!(
        served_during_refresh.load(Ordering::Relaxed) > 0,
        "{backend:?}: no query completed while the refresh was in flight"
    );

    // Steady state after the swap: exactly the union answers, from a
    // generation-1 engine (every shard merged or reweighted).
    let mut c = HttpClient::connect(&addr).expect("post-swap connect");
    for (path, l) in paths.iter().zip(&legal) {
        let resp = c.request("GET", path, &[]).expect("post-swap query");
        assert_eq!(
            parse_answers(&resp.text()),
            l.after,
            "{backend:?} post-swap {path}"
        );
    }
    let status = c.request("GET", "/status", &[]).expect("status").text();
    assert!(status.contains("\"generation\":1"), "{status}");
    let metrics = server.metrics_json();
    server.shutdown();
    // The run exercised real concurrency: queries were answered and
    // nothing hit the error paths.
    assert!(metrics.contains("\"parse_errors\":0"), "{metrics}");
    if sharded {
        assert!(status.contains("\"shards\":["), "{status}");
        assert!(metrics.contains("\"shards\":["), "{metrics}");
    }
}
