//! Black-box protocol conformance for `seal-server`: every test binds
//! an ephemeral port and speaks to the server over a raw
//! [`TcpStream`] — request bytes in, response bytes out, no shared
//! types with the implementation beyond the spawn handle.
//!
//! Covered: the happy path of every endpoint (with answers checked
//! against a direct `LiveEngine::search` on the engine behind the
//! server), pipelined requests, keep-alive vs `Connection: close`,
//! `Expect: 100-continue`, the full typed-rejection table
//! (400/404/405/408/413/431/501/503/505), slow-loris and truncated
//! writes, and the churn backpressure gate. A server that panics on
//! any of these inputs fails the follow-up "still serving" probes.

use seal_core::{FilterKind, LiveEngine, Query};
use seal_server::{Limits, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

#[path = "util/mod.rs"]
mod util;
use util::twitter_fixture;

const KIND: FilterKind = FilterKind::Hierarchical {
    max_level: 5,
    budget: 8,
};

/// A small served corpus plus its query workload.
fn spawn_fixture(cfg: ServerConfig) -> (Server, Vec<Query>) {
    let (store, queries) = twitter_fixture(300, 2);
    let live = Arc::new(LiveEngine::new(Arc::new(store), KIND));
    let server = Server::spawn(live, cfg).expect("bind ephemeral port");
    (server, queries)
}

fn config() -> ServerConfig {
    ServerConfig::default()
}

/// Writes `request`, half-closes the write side, and drains the
/// response bytes until the server closes.
fn send(server: &Server, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).expect("write request");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read response");
    out
}

fn send_str(server: &Server, request: &str) -> String {
    String::from_utf8_lossy(&send(server, request.as_bytes())).into_owned()
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n")
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn status_of(response: &str) -> u16 {
    let line = response.lines().next().unwrap_or("");
    assert!(
        line.starts_with("HTTP/1.1 "),
        "not an HTTP/1.1 status line: {line:?}"
    );
    line[9..12].parse().expect("numeric status")
}

/// Reads exactly one response off a keep-alive stream (head +
/// `Content-Length` body), leaving the connection open.
fn read_one_response(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "peer closed mid-head: {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    while buf.len() < head_end + len {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "peer closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    assert_eq!(buf.len(), head_end + len, "server sent extra bytes");
    String::from_utf8_lossy(&buf).into_owned()
}

/// `region=…&tokens=…&tau_r=…&tau_t=…` for a workload query (float
/// `Display` round-trips exactly, so the server re-parses the same
/// query).
fn query_params(q: &Query) -> String {
    let tokens: Vec<String> = q.tokens.iter().map(|t| t.0.to_string()).collect();
    format!(
        "region={},{},{},{}&tokens={}&tau_r={}&tau_t={}",
        q.region.min().x,
        q.region.min().y,
        q.region.max().x,
        q.region.max().y,
        tokens.join(","),
        q.tau_spatial,
        q.tau_textual,
    )
}

/// Extracts the id list out of `"answers":[…]` in a response body.
fn parse_answers(response: &str) -> Vec<u32> {
    let start = response
        .find("\"answers\":[")
        .unwrap_or_else(|| panic!("no answers array in {response:?}"))
        + "\"answers\":[".len();
    let end = start + response[start..].find(']').expect("unterminated answers");
    response[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("numeric object id"))
        .collect()
}

#[test]
fn admin_endpoints_answer_200() {
    let (server, _) = spawn_fixture(config());
    for path in ["/status", "/", "/metrics"] {
        let resp = send_str(&server, &get(path));
        assert_eq!(status_of(&resp), 200, "GET {path}:\n{resp}");
        assert!(resp.contains("\"generation\""), "GET {path}:\n{resp}");
        assert!(resp.contains("Content-Type: application/json"));
    }
}

#[test]
fn wire_answers_equal_direct_engine_answers() {
    let (server, queries) = spawn_fixture(config());
    let live = server.engine();
    for q in &queries {
        let resp = send_str(&server, &get(&format!("/query?{}", query_params(q))));
        assert_eq!(status_of(&resp), 200, "{resp}");
        let direct: Vec<u32> = live
            .search(q)
            .sorted()
            .answers
            .iter()
            .map(|id| id.0)
            .collect();
        assert_eq!(parse_answers(&resp), direct, "wire drifted from engine");
    }
}

#[test]
fn post_query_body_is_equivalent_to_get_params() {
    let (server, queries) = spawn_fixture(config());
    for q in queries.iter().take(4) {
        let params = query_params(q);
        let via_get = parse_answers(&send_str(&server, &get(&format!("/query?{params}"))));
        let via_post = parse_answers(&send_str(&server, &post("/query", &params)));
        assert_eq!(via_get, via_post);
    }
}

#[test]
fn push_then_refresh_lifecycle() {
    let (server, _) = spawn_fixture(config());
    // Push two objects in one body (with a blank line to skip).
    let resp = send_str(&server, &post("/push", "1 1 2 2 0,1\n\n3 3 4 4 2\n"));
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"staged\":2"), "{resp}");
    assert!(resp.contains("\"first_id\":300"), "{resp}");

    let status = send_str(&server, &get("/status"));
    assert!(status.contains("\"staged\":2"), "{status}");

    // The staged objects are answerable before any refresh, under the
    // ids they will keep forever.
    let probe = "region=0.5,0.5,4.5,4.5&tokens=0,1,2&tau_r=0.01&tau_t=0.01";
    let overlay = parse_answers(&send_str(&server, &get(&format!("/query?{probe}"))));
    assert!(
        overlay.contains(&300) && overlay.contains(&301),
        "staged objects invisible before refresh: {overlay:?}"
    );

    let resp = send_str(&server, &post("/refresh", ""));
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"generation\":1"), "{resp}");
    assert!(resp.contains("\"merged\":2"), "{resp}");

    let status = send_str(&server, &get("/status"));
    assert!(status.contains("\"generation\":1"), "{status}");
    assert!(status.contains("\"staged\":0"), "{status}");
    assert!(status.contains("\"objects\":302"), "{status}");

    // Still answerable, same ids, now from the merged generation.
    let merged = parse_answers(&send_str(&server, &get(&format!("/query?{probe}"))));
    assert_eq!(merged, overlay, "ids changed across the swap");
}

#[test]
fn malformed_requests_get_typed_status_codes() {
    let (server, _) = spawn_fixture(config());
    let many_headers: String = {
        let hs: String = (0..70).map(|i| format!("H{i}: v\r\n")).collect();
        format!("GET /status HTTP/1.1\r\n{hs}\r\n")
    };
    let huge_head = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
    let cases: Vec<(String, u16, &str)> = vec![
        ("GARBAGE\r\n\r\n".into(), 400, "not a request line"),
        ("GET /status\r\n\r\n".into(), 400, "two-field request line"),
        ("GET /status HTTP/2.0\r\n\r\n".into(), 505, "wrong version"),
        (
            "GET /status HTTP/1.1\r\nno-colon-here\r\n\r\n".into(),
            400,
            "header without a colon",
        ),
        (many_headers, 431, "too many headers"),
        (huge_head, 431, "oversized head"),
        (
            "POST /push HTTP/1.1\r\nContent-Length: banana\r\n\r\n".into(),
            400,
            "non-numeric content length",
        ),
        (
            "POST /push HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\n".into(),
            400,
            "disagreeing duplicate content lengths",
        ),
        (
            format!(
                "POST /push HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                Limits::default().max_body_bytes + 1
            ),
            413,
            "declared body over the limit",
        ),
        (
            "POST /push HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".into(),
            501,
            "chunked transfer encoding",
        ),
    ];
    for (req, want, what) in cases {
        let resp = send_str(&server, &req);
        assert_eq!(status_of(&resp), want, "{what}:\n{resp}");
    }
    // The server survived the whole table.
    assert_eq!(status_of(&send_str(&server, &get("/status"))), 200);
}

#[test]
fn bad_query_parameters_answer_400() {
    let (server, _) = spawn_fixture(config());
    let cases = [
        "/query",                                  // missing region
        "/query?region=1,2,3",                     // three fields
        "/query?region=1,2,nan-ish,x",             // unparsable coordinate
        "/query?region=5,5,1,1",                   // inverted rect
        "/query?region=0,0,1,1&tau_r=zero",        // unparsable tau
        "/query?region=0,0,1,1&tau_r=0",           // tau out of (0,1]
        "/query?region=0,0,1,1&tokens=coffee",     // name, but no dictionary
        "/query?region=0,-1e308,1,1e308",          // height overflows f64
        "/query?region=1e300,0,0,1",               // coordinate past the bound
        "/query?region=3e150,3e150,-3e150,-3e150", // inverted, near the bound
    ];
    for path in cases {
        let resp = send_str(&server, &get(path));
        assert_eq!(status_of(&resp), 400, "GET {path}:\n{resp}");
        // Coordinates print in exponent form, so no body spells out
        // a 300-digit number.
        let body = resp.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        assert!(body.len() < 512, "GET {path}: {} byte body", body.len());
    }
    // Push bodies are validated as a whole before staging anything.
    let overflowing = "2 -1e308 3 1e308 0\n";
    for body in [
        "",
        "1 2 3\n",
        "1 1 2 2 0\nbroken line\n",
        "1 1 2 2 \n",
        overflowing,
    ] {
        let resp = send_str(&server, &post("/push", body));
        assert_eq!(status_of(&resp), 400, "push {body:?}:\n{resp}");
    }
    let status = send_str(&server, &get("/status"));
    assert!(status.contains("\"staged\":0"), "a bad body staged objects");
    let resp = send_str(&server, &get("/query?region=0,0,1,1"));
    assert_eq!(
        status_of(&resp),
        200,
        "serving after the bad requests:\n{resp}"
    );
}

#[test]
fn unknown_paths_and_methods_answer_404_and_405() {
    let (server, _) = spawn_fixture(config());
    assert_eq!(status_of(&send_str(&server, &get("/nope"))), 404);
    let cases = [
        ("DELETE /query HTTP/1.1\r\n\r\n", "Allow: GET, POST"),
        ("GET /push HTTP/1.1\r\n\r\n", "Allow: POST"),
        ("GET /refresh HTTP/1.1\r\n\r\n", "Allow: POST"),
        (
            "POST /status HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            "Allow: GET",
        ),
        (
            "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            "Allow: GET",
        ),
    ];
    for (req, allow) in cases {
        let resp = send_str(&server, req);
        assert_eq!(status_of(&resp), 405, "{req:?}:\n{resp}");
        assert!(resp.contains(allow), "{req:?} missing {allow:?}:\n{resp}");
    }
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (server, _) = spawn_fixture(config());
    let pipeline = format!("{}{}{}", get("/status"), get("/metrics"), get("/status"));
    let resp = send_str(&server, &pipeline);
    let oks = resp.matches("HTTP/1.1 200 OK").count();
    assert_eq!(oks, 3, "expected three pipelined responses:\n{resp}");
    // Response order matches request order: status, metrics, status.
    let status_marker = "\"uptime_seconds\"";
    let metrics_marker = "\"batched_queries\"";
    let first_status = resp.find(status_marker).expect("first status body");
    let metrics = resp.find(metrics_marker).expect("metrics body");
    let second_status = resp.rfind(status_marker).expect("second status body");
    assert!(
        first_status < metrics && metrics < second_status,
        "pipelined responses out of order:\n{resp}"
    );
}

#[test]
fn keep_alive_serves_multiple_exchanges_and_close_closes() {
    let (server, _) = spawn_fixture(config());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..3 {
        stream.write_all(get("/status").as_bytes()).unwrap();
        let resp = read_one_response(&mut stream);
        assert_eq!(status_of(&resp), 200);
        assert!(resp.contains("Connection: keep-alive"), "{resp}");
    }
    // `Connection: close` is honored: the response says so and the
    // server closes the socket afterwards.
    stream
        .write_all(b"GET /status HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let resp = read_one_response(&mut stream);
    assert!(resp.contains("Connection: close"), "{resp}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty(), "bytes after a close response: {rest:?}");
}

#[test]
fn http10_defaults_to_close() {
    let (server, _) = spawn_fixture(config());
    let resp = send_str(&server, "GET /status HTTP/1.0\r\n\r\n");
    assert_eq!(status_of(&resp), 200);
    assert!(resp.contains("Connection: close"), "{resp}");
}

#[test]
fn expect_continue_handshake() {
    let (server, _) = spawn_fixture(config());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = "1 1 2 2 0";
    stream
        .write_all(
            format!(
                "POST /push HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // The interim response arrives before we send a single body byte.
    let mut interim = [0u8; 25];
    stream.read_exact(&mut interim).expect("read 100");
    assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    stream.write_all(body.as_bytes()).unwrap();
    let resp = read_one_response(&mut stream);
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("\"staged\":1"), "{resp}");
}

#[test]
fn slow_loris_write_times_out_with_408() {
    let mut cfg = config();
    cfg.request_timeout = Duration::from_millis(250);
    let (server, _) = spawn_fixture(cfg);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A request that starts but never finishes: one partial line, then
    // silence past the deadline.
    stream.write_all(b"GET /status HT").unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read 408 + close");
    let resp = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&resp), 408, "{resp}");
    // The server is still serving afterwards.
    assert_eq!(status_of(&send_str(&server, &get("/status"))), 200);
}

#[test]
fn idle_keep_alive_expires_silently() {
    let mut cfg = config();
    cfg.request_timeout = Duration::from_millis(250);
    let (server, _) = spawn_fixture(cfg);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // No bytes at all: the idle connection is reclaimed without a 408
    // (nothing was half-sent, so there is nothing to answer).
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read EOF");
    assert!(out.is_empty(), "idle expiry produced bytes: {out:?}");
}

#[test]
fn truncated_writes_and_abrupt_closes_leave_the_server_serving() {
    let (server, _) = spawn_fixture(config());
    // Clients that send a partial request line, a partial head, or a
    // head whose declared body never arrives — then slam the
    // connection shut.
    let fragments: [&[u8]; 4] = [
        b"G",
        b"GET /status HTTP/1.1\r\nHos",
        b"POST /push HTTP/1.1\r\nContent-Length: 10\r\n\r\n1 1",
        b"",
    ];
    for frag in fragments {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(frag).unwrap();
        drop(stream); // abrupt close, no half-close handshake
    }
    // Every one of those connections must have been torn down without
    // wedging a worker; a healthy pool still answers.
    let resp = send_str(&server, &get("/status"));
    assert_eq!(status_of(&resp), 200, "{resp}");
}

#[test]
fn oversized_actual_body_respects_configured_limit() {
    let mut cfg = config();
    cfg.limits.max_body_bytes = 64;
    let (server, _) = spawn_fixture(cfg);
    // Under the limit: accepted.
    let ok = send_str(&server, &post("/push", "1 1 2 2 0\n"));
    assert_eq!(status_of(&ok), 200, "{ok}");
    // Over the configured limit: rejected from the declared length,
    // before the body is buffered.
    let big = "9 9 10 10 0\n".repeat(32);
    let resp = send_str(&server, &post("/push", &big));
    assert_eq!(status_of(&resp), 413, "{resp}");
}

#[test]
fn churn_gate_sheds_pushes_with_503_until_refresh() {
    let mut cfg = config();
    cfg.max_staged = 1;
    let (server, _) = spawn_fixture(cfg);
    let ok = send_str(&server, &post("/push", "1 1 2 2 0\n"));
    assert_eq!(status_of(&ok), 200, "{ok}");
    // The staged delta is now at the bound: further pushes shed.
    let shed = send_str(&server, &post("/push", "3 3 4 4 1\n"));
    assert_eq!(status_of(&shed), 503, "{shed}");
    assert!(shed.contains("Retry-After: 1"), "{shed}");
    // Draining the delta reopens the gate.
    assert_eq!(status_of(&send_str(&server, &post("/refresh", ""))), 200);
    let ok = send_str(&server, &post("/push", "3 3 4 4 1\n"));
    assert_eq!(status_of(&ok), 200, "{ok}");
}
