//! The serving loop: a bounded thread-per-connection HTTP/1.1 server
//! over any [`QueryEngine`] (single [`seal_core::LiveEngine`] arena or
//! a partitioned [`seal_core::ShardedEngine`] — construction sites
//! pick; every handler is engine-generic).
//!
//! # Endpoints
//!
//! | method | path       | does |
//! |--------|------------|------|
//! | GET/POST | `/query` | one spatio-textual query (coalesced into adaptive batches) |
//! | POST   | `/push`     | stage objects for the next generation (TSV body) |
//! | POST   | `/refresh`  | fold the staged delta into the next generation |
//! | GET    | `/status`   | generation / staged / object gauges |
//! | GET    | `/metrics`  | per-endpoint latency histograms + counters |
//!
//! # Concurrency model
//!
//! One acceptor thread; one thread per live connection, bounded by
//! [`ServerConfig::max_connections`] (beyond it, connections are
//! answered `503` and closed — admission control at the accept gate).
//! Every `/query` flows through the shared [`Batcher`] into
//! [`QueryEngine::search_batch`], whose workers (the dispatching
//! connection thread itself for a batch of one) probe through their
//! warm thread-local query scratch. Requests never
//! hold the engine's swap lock; `/push` and `/refresh` ride the
//! engine's generation protocol unchanged, so everything the model
//! harness of `tests/exactness.rs` proves about generations holds
//! verbatim over the wire.
//!
//! # Backpressure
//!
//! Three gates, all answering `503` with `Retry-After`:
//! * accept gate — connection pool exhausted;
//! * query gate — the batcher's queue is at capacity;
//! * churn gate — staged delta grew past
//!   [`ServerConfig::max_staged`] (the staleness window the ROADMAP
//!   documents): `/push` sheds load until a `/refresh` drains it.
//!
//! Slow-loris writes are bounded by
//! [`ServerConfig::request_timeout`]: a request that hasn't fully
//! arrived within it is answered `408` and the connection closed.

use crate::batcher::Batcher;
use crate::http::{self, Limits, Parsed, Request, CONTINUE_100};
use crate::metrics::Metrics;
use seal_core::{EngineStatus, ObjectId, Query, QueryEngine, RoiObject};
use seal_geom::Rect;
use seal_text::{TokenId, TokenSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables for one server instance. The defaults serve the test and
/// bench workloads; production deployments would size them to the box.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, bench).
    pub addr: String,
    /// Connection pool bound (accept-gate admission control).
    pub max_connections: usize,
    /// Worker budget for each dispatched query batch (0 = one per
    /// core).
    pub threads: usize,
    /// Largest coalesced batch per dispatch.
    pub max_batch: usize,
    /// Queued-query bound; submissions beyond it are shed with `503`.
    pub max_queued: usize,
    /// Staged-delta churn bound; `/push` sheds with `503` beyond it.
    pub max_staged: usize,
    /// How long one request may take to arrive in full (slow-loris
    /// bound) and how long an idle keep-alive connection is kept.
    pub request_timeout: Duration,
    /// HTTP parse limits (head bytes, header count, body bytes).
    pub limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 128,
            threads: 0,
            max_batch: 64,
            max_queued: 1024,
            max_staged: 1 << 20,
            request_timeout: Duration::from_secs(10),
            limits: Limits::default(),
        }
    }
}

/// Shared server state (one allocation, `Arc`ed into every thread).
struct Shared {
    engine: Arc<dyn QueryEngine>,
    batcher: Batcher,
    metrics: Metrics,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    started: Instant,
}

/// A running server: spawn with [`Server::spawn`], stop with
/// [`Server::shutdown`] (which joins every thread).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr` and starts serving `engine`. Returns once the
    /// listener is accepting (the bound address is
    /// [`addr`](Server::addr), useful with port 0).
    pub fn spawn(engine: Arc<dyn QueryEngine>, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            batcher: Batcher::new(engine.clone(), cfg.max_batch, cfg.max_queued, cfg.threads),
            engine,
            metrics: Metrics::default(),
            cfg,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            started: Instant::now(),
        });
        let accept_shared = shared.clone();
        let acceptor = std::thread::Builder::new()
            .name("seal-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the server (tests compare wire answers
    /// against direct calls on it).
    pub fn engine(&self) -> Arc<dyn QueryEngine> {
        self.shared.engine.clone()
    }

    /// Serving metrics (shared with `/metrics`).
    pub fn metrics_json(&self) -> String {
        metrics_document(&self.shared)
    }

    /// Stops accepting, wakes the acceptor, and joins every thread.
    /// In-flight requests finish (connection threads notice the flag
    /// within one poll tick).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

/// Accepts connections until shutdown; enforces the pool bound; joins
/// finished connection threads opportunistically and all of them on
/// exit.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let conn = listener.accept();
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok((stream, _peer)) = conn else { continue };
        // Reap finished threads so the handle list stays bounded by
        // the live-connection count.
        handles.retain(|h| !h.is_finished());
        if shared.active.load(Ordering::Acquire) >= shared.cfg.max_connections {
            shared
                .metrics
                .connections_refused
                .fetch_add(1, Ordering::Relaxed);
            let body = error_body("connection pool exhausted");
            let _ = (&stream).write_all(&http::encode_response(
                503,
                "Service Unavailable",
                &[("Retry-After", "1")],
                body.as_bytes(),
                false,
            ));
            continue; // stream drops → close
        }
        shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
        shared.active.fetch_add(1, Ordering::AcqRel);
        let conn_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("seal-conn".into())
            .spawn(move || {
                // Decrement on drop, so a panicking handler can't
                // leak a pool slot and starve the accept gate.
                struct SlotGuard<'a>(&'a AtomicUsize);
                impl Drop for SlotGuard<'_> {
                    fn drop(&mut self) {
                        self.0.fetch_sub(1, Ordering::AcqRel);
                    }
                }
                let _slot = SlotGuard(&conn_shared.active);
                handle_connection(stream, &conn_shared);
            });
        match spawned {
            Ok(h) => handles.push(h),
            Err(_) => {
                shared.active.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

/// Poll tick: how often a blocked read re-checks the shutdown flag
/// and the request deadline.
const POLL_TICK: Duration = Duration::from_millis(50);

/// One connection's serve loop: incremental reads, pipelining,
/// keep-alive, typed rejections, slow-loris deadline.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_nodelay(true);
    let limits = shared.cfg.limits;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Deadline for the *current* request (or idle period) to make
    // progress; reset after each completed exchange.
    let mut deadline = Instant::now() + shared.cfg.request_timeout;
    let mut sent_continue = false;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Serve every complete pipelined request already buffered.
        loop {
            match http::parse_request(&buf, &limits) {
                Ok(Parsed::Complete(req, consumed)) => {
                    buf.drain(..consumed);
                    let keep_alive = req.keep_alive;
                    let response = respond(shared, &req);
                    if stream.write_all(&response).is_err() {
                        return;
                    }
                    if !keep_alive {
                        lingering_close(&mut stream);
                        return;
                    }
                    deadline = Instant::now() + shared.cfg.request_timeout;
                    sent_continue = false;
                }
                Ok(Parsed::NeedMore) => break,
                Err(e) => {
                    shared.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
                    let (status, reason) = e.status();
                    let body = error_body(&e.to_string());
                    let _ = stream.write_all(&http::encode_response(
                        status,
                        reason,
                        &[],
                        body.as_bytes(),
                        false,
                    ));
                    lingering_close(&mut stream);
                    return;
                }
            }
        }
        // The head is complete but the body still in flight, and the
        // client is waiting for permission to send it.
        if !sent_continue && http::wants_continue(&buf, &limits) {
            if stream.write_all(CONTINUE_100).is_err() {
                return;
            }
            sent_continue = true;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    if !buf.is_empty() {
                        // A request started but never finished: the
                        // slow-loris bound fires.
                        shared.metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
                        let body = error_body("request did not arrive in time");
                        let _ = stream.write_all(&http::encode_response(
                            408,
                            "Request Timeout",
                            &[],
                            body.as_bytes(),
                            false,
                        ));
                        lingering_close(&mut stream);
                    }
                    return; // idle keep-alive expiry closes silently
                }
            }
            Err(_) => return,
        }
    }
}

/// Lingering close: half-close the write side, then drain (and
/// discard) whatever request bytes the peer already sent, bounded in
/// both bytes and time. Closing with unread data in the kernel buffer
/// makes TCP send RST, which can destroy the error response before
/// the client reads it — draining first lets the close complete with
/// FIN so the typed status actually arrives.
fn lingering_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 1 << 20 && Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(n) => drained += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Routes one request and records metrics. Always returns the full
/// response bytes.
fn respond(shared: &Shared, req: &Request) -> Vec<u8> {
    let start = Instant::now();
    let (status, reason, extra, body, endpoint) = route(shared, req);
    let us = start.elapsed().as_micros() as u64;
    let ep = match endpoint {
        Endpoint::Query => &shared.metrics.query,
        Endpoint::Push => &shared.metrics.push,
        Endpoint::Refresh => &shared.metrics.refresh,
        Endpoint::Admin => &shared.metrics.admin,
    };
    ep.record(status, us);
    let headers: Vec<(&str, &str)> = extra.iter().map(|(k, v)| (*k, v.as_str())).collect();
    http::encode_response(status, reason, &headers, body.as_bytes(), req.keep_alive)
}

enum Endpoint {
    Query,
    Push,
    Refresh,
    Admin,
}

type Routed = (
    u16,
    &'static str,
    Vec<(&'static str, String)>,
    String,
    Endpoint,
);

fn route(shared: &Shared, req: &Request) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/status") | ("GET", "/") => {
            (200, "OK", vec![], status_body(shared), Endpoint::Admin)
        }
        ("GET", "/metrics") => (200, "OK", vec![], metrics_document(shared), Endpoint::Admin),
        ("GET", "/query") | ("POST", "/query") => handle_query(shared, req),
        ("POST", "/push") => handle_push(shared, req),
        ("POST", "/refresh") => handle_refresh(shared),
        (_, "/status") | (_, "/metrics") | (_, "/") => method_not_allowed("GET", Endpoint::Admin),
        (_, "/query") => method_not_allowed("GET, POST", Endpoint::Query),
        (_, "/push") => method_not_allowed("POST", Endpoint::Push),
        (_, "/refresh") => method_not_allowed("POST", Endpoint::Refresh),
        _ => (
            404,
            "Not Found",
            vec![],
            error_body("no such endpoint (have: /query /push /refresh /status /metrics)"),
            Endpoint::Admin,
        ),
    }
}

fn method_not_allowed(allow: &'static str, ep: Endpoint) -> Routed {
    (
        405,
        "Method Not Allowed",
        vec![("Allow", allow.to_string())],
        error_body("method not allowed"),
        ep,
    )
}

fn busy(shared: &Shared, what: &str, ep: Endpoint) -> Routed {
    shared.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
    (
        503,
        "Service Unavailable",
        vec![("Retry-After", "1".to_string())],
        error_body(what),
        ep,
    )
}

fn handle_query(shared: &Shared, req: &Request) -> Routed {
    // POST carries the params in the body (query-string syntax); GET
    // in the URL. Both accept the same keys.
    let body_string;
    let params: &str = if req.method == "POST" && !req.body.is_empty() {
        match std::str::from_utf8(&req.body) {
            Ok(s) => {
                body_string = s.trim().to_string();
                &body_string
            }
            Err(_) => {
                return (
                    400,
                    "Bad Request",
                    vec![],
                    error_body("query body must be UTF-8 key=value pairs"),
                    Endpoint::Query,
                )
            }
        }
    } else {
        &req.query
    };
    let query = match parse_query_params(shared, params) {
        Ok(q) => q,
        Err(msg) => {
            return (
                400,
                "Bad Request",
                vec![],
                error_body(&msg),
                Endpoint::Query,
            )
        }
    };
    let result = match shared
        .batcher
        .submit(query, &|n| shared.metrics.record_batch(n))
    {
        Ok(r) => r,
        Err(_) => return busy(shared, "query queue at capacity", Endpoint::Query),
    };
    let result = result.sorted();
    let ids: Vec<String> = result.answers.iter().map(|id| id.0.to_string()).collect();
    let body = format!(
        "{{\"answers\":[{}],\"count\":{},\"candidates\":{},\"generation\":{}}}",
        ids.join(","),
        result.answers.len(),
        result.stats.candidates,
        shared.engine.generation(),
    );
    (200, "OK", vec![], body, Endpoint::Query)
}

/// Parses `region=x0,y0,x1,y1&tokens=a,b&tau_r=F&tau_t=F` into a
/// validated [`Query`]. Tokens are numeric ids, or names when the
/// store carries a dictionary.
fn parse_query_params(shared: &Shared, params: &str) -> Result<Query, String> {
    let region = http::query_param(params, "region").ok_or("missing required param: region")?;
    let region = parse_rect(region)?;
    let tokens = http::query_param(params, "tokens").unwrap_or("");
    let mut ids: Vec<TokenId> = Vec::new();
    for t in tokens.split(',').map(str::trim) {
        if t.is_empty() {
            continue;
        }
        ids.push(resolve_token(shared.engine.as_ref(), t)?);
    }
    let tau_r = parse_f64_param(params, "tau_r", 0.4)?;
    let tau_t = parse_f64_param(params, "tau_t", 0.4)?;
    Query::with_token_ids(region, ids, tau_r, tau_t).map_err(|e| e.to_string())
}

fn parse_f64_param(params: &str, key: &str, default: f64) -> Result<f64, String> {
    match http::query_param(params, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad {key}: {e}")),
    }
}

fn parse_rect(s: &str) -> Result<Rect, String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 4 {
        return Err(format!(
            "region must be x0,y0,x1,y1 — got {} fields",
            parts.len()
        ));
    }
    let mut nums = [0.0f64; 4];
    for (i, p) in parts.iter().enumerate() {
        nums[i] = p
            .trim()
            .parse()
            .map_err(|e| format!("bad region coordinate {p:?}: {e}"))?;
    }
    Rect::new(nums[0], nums[1], nums[2], nums[3]).map_err(|e| e.to_string())
}

/// A token as sent over the wire: a numeric id, or a dictionary name.
fn resolve_token(engine: &dyn QueryEngine, t: &str) -> Result<TokenId, String> {
    if t.bytes().all(|b| b.is_ascii_digit()) {
        let id: u32 = t.parse().map_err(|e| format!("bad token id {t:?}: {e}"))?;
        return Ok(TokenId(id));
    }
    engine.resolve_token(t).ok_or_else(|| {
        format!("unknown token {t:?} (not numeric and not in the engine's dictionary)")
    })
}

/// `/push` body: one object per line, `x0 y0 x1 y1 tok,tok,tok`
/// (whitespace-separated coordinates — the datagen TSV shape). The
/// whole body is validated before anything is staged, so a malformed
/// line stages nothing.
fn handle_push(shared: &Shared, req: &Request) -> Routed {
    if shared.engine.staged_len() >= shared.cfg.max_staged {
        return busy(
            shared,
            "staged delta at capacity; POST /refresh to drain it",
            Endpoint::Push,
        );
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return (
            400,
            "Bad Request",
            vec![],
            error_body("push body must be UTF-8 TSV"),
            Endpoint::Push,
        );
    };
    let mut objects: Vec<RoiObject> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_push_line(shared.engine.as_ref(), line) {
            Ok(o) => objects.push(o),
            Err(msg) => {
                return (
                    400,
                    "Bad Request",
                    vec![],
                    error_body(&format!("line {}: {msg}", lineno + 1)),
                    Endpoint::Push,
                )
            }
        }
    }
    if objects.is_empty() {
        return (
            400,
            "Bad Request",
            vec![],
            error_body("push body staged no objects"),
            Endpoint::Push,
        );
    }
    let count = objects.len();
    let first = shared.engine.push_all(objects);
    let body = format!(
        "{{\"staged\":{count},\"first_id\":{},\"total_staged\":{}}}",
        first.map_or(0, |ObjectId(id)| id),
        shared.engine.staged_len(),
    );
    (200, "OK", vec![], body, Endpoint::Push)
}

fn parse_push_line(engine: &dyn QueryEngine, line: &str) -> Result<RoiObject, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() != 5 {
        return Err(format!(
            "expected `x0 y0 x1 y1 tokens,comma,separated` — got {} fields",
            fields.len()
        ));
    }
    let mut nums = [0.0f64; 4];
    for (i, f) in fields[..4].iter().enumerate() {
        nums[i] = f
            .parse()
            .map_err(|e| format!("bad coordinate {f:?}: {e}"))?;
    }
    let region = Rect::new(nums[0], nums[1], nums[2], nums[3]).map_err(|e| e.to_string())?;
    let mut ids: Vec<TokenId> = Vec::new();
    for t in fields[4].split(',').map(str::trim) {
        if t.is_empty() {
            continue;
        }
        ids.push(resolve_token(engine, t)?);
    }
    if ids.is_empty() {
        return Err("an object needs at least one token".to_string());
    }
    Ok(RoiObject::new(region, TokenSet::from_ids(ids)))
}

fn handle_refresh(shared: &Shared) -> Routed {
    let stats = shared.engine.refresh();
    let body = format!(
        "{{\"generation\":{},\"merged\":{},\"total\":{},\"build_seconds\":{:.6},\"scheme_reused\":{}}}",
        stats.generation, stats.merged, stats.total, stats.build_seconds, stats.scheme_reused,
    );
    (200, "OK", vec![], body, Endpoint::Refresh)
}

/// Renders [`EngineStatus::shards`] as a JSON array — one row per
/// shard, empty (`[]`) for a single-arena engine. Shared by `/status`
/// and `/metrics` so operators see an uneven partition in either.
fn shards_json(status: &EngineStatus) -> String {
    let rows: Vec<String> = status
        .shards
        .iter()
        .map(|s| {
            format!(
                "{{\"generation\":{},\"staged\":{},\"objects\":{}}}",
                s.generation, s.staged, s.objects
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

fn status_body(shared: &Shared) -> String {
    let status = shared.engine.status();
    format!(
        "{{\"generation\":{},\"objects\":{},\"staged\":{},\"filter\":\"{}\",\
         \"index_bytes\":{},\"shards\":{},\"queued_queries\":{},\"uptime_seconds\":{:.3}}}",
        shared.engine.generation(),
        shared.engine.len(),
        shared.engine.staged_len(),
        status.filter,
        status.index_bytes,
        shards_json(&status),
        shared.batcher.queued(),
        shared.started.elapsed().as_secs_f64(),
    )
}

fn metrics_document(shared: &Shared) -> String {
    shared.metrics.to_json(
        shared.engine.generation(),
        shared.engine.staged_len(),
        shared.engine.len(),
        &shards_json(&shared.engine.status()),
    )
}

fn error_body(msg: &str) -> String {
    // The messages are ASCII from our own code; escape the two JSON
    // specials that could sneak in via numbers/paths anyway.
    let escaped: String = msg
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("{{\"error\":\"{escaped}\"}}")
}

// The end-to-end behavior (sockets, pipelining, hostile inputs,
// concurrency oracle) is pinned by the black-box integration tests
// `tests/server_protocol.rs` and `tests/server_concurrent.rs` at the
// workspace root; unit tests here cover the pure helpers.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_param_parsing() {
        assert!(parse_rect("0,0,10,10").is_ok());
        assert!(parse_rect("0,0,10").is_err());
        assert!(parse_rect("a,b,c,d").is_err());
        assert!(parse_rect("10,0,0,10").is_err(), "inverted");
    }

    #[test]
    fn error_body_escapes_json_specials() {
        let b = error_body("bad \"token\" \\ and\ncontrol");
        assert!(b.contains("\\\"token\\\""));
        assert!(!b.contains('\n'));
        assert!(b.starts_with("{\"error\":\""));
    }
}
