//! A minimal blocking HTTP/1.1 client and an open-loop load
//! generator — enough to drive the serving tier from the CLI
//! (`seal loadgen`) and the CI smoke test without any external
//! dependency.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// The status code from the status line.
    pub status: u16,
    /// The response body.
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

impl HttpResponse {
    /// The body as UTF-8 (lossy — diagnostics only).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to one server.
pub struct HttpClient {
    stream: TcpStream,
    addr: String,
    buf: Vec<u8>,
}

impl HttpClient {
    /// Connects (with a 5 s timeout on reads so a wedged server fails
    /// the caller instead of hanging it).
    pub fn connect(addr: &str) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            addr: addr.to_string(),
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads the full response. Reconnects once
    /// transparently if the keep-alive connection was closed under us
    /// (the server's idle timeout or a `Connection: close` exchange).
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<HttpResponse> {
        match self.try_request(method, target, body) {
            Ok(r) => Ok(r),
            Err(_) => {
                *self = HttpClient::connect(&self.addr)?;
                self.try_request(method, target, body)
            }
        }
    }

    fn try_request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<HttpResponse> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: seal\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        if !body.is_empty() {
            self.stream.write_all(body)?;
        }
        read_response(&mut self.stream, &mut self.buf)
    }
}

/// Reads one response from the stream; `buf` carries bytes of a
/// following pipelined response between calls.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<HttpResponse> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(parsed) = try_parse_response(buf)? {
            return Ok(parsed);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Parses one complete response from the front of `buf` (draining the
/// consumed bytes), or `None` when more bytes are needed.
fn try_parse_response(buf: &mut Vec<u8>) -> io::Result<Option<HttpResponse>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    // Interim 100 Continue responses have no body; skip to the real one.
    if status == 100 {
        buf.drain(..head_end + 4);
        return try_parse_response(buf);
    }
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Ok(Some(HttpResponse {
        status,
        body,
        keep_alive,
    }))
}

/// What one load-generation run measured. Latencies are exact
/// (client-side, per-request), unlike the server's log-bucketed
/// histograms.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The request rate the schedule aimed for.
    pub offered_qps: f64,
    /// Requests completed per wall-clock second.
    pub achieved_qps: f64,
    /// Requests sent.
    pub sent: usize,
    /// 2xx responses.
    pub ok: usize,
    /// 503 responses (backpressure sheds — expected under overload).
    pub shed: usize,
    /// Any other non-2xx response or transport error.
    pub errors: usize,
    /// Exact latency percentiles over the 2xx responses, microseconds.
    pub p50_us: f64,
    /// 95th percentile (µs).
    pub p95_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// Worst observed (µs).
    pub max_us: f64,
}

impl LoadReport {
    /// The report as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"offered_qps\":{:.1},\"achieved_qps\":{:.1},\"sent\":{},\"ok\":{},\
             \"shed\":{},\"errors\":{},\"p50_us\":{:.1},\"p95_us\":{:.1},\"p99_us\":{:.1},\
             \"max_us\":{:.1}}}",
            self.offered_qps,
            self.achieved_qps,
            self.sent,
            self.ok,
            self.shed,
            self.errors,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
        )
    }
}

/// Exact percentile over a sorted slice (nearest-rank).
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Drives `targets` round-robin at `offered_qps` for `duration`,
/// spread over `clients` keep-alive connections, open-loop (each
/// request fires at its scheduled instant whether or not earlier ones
/// returned — so queueing delay shows up as latency, not as a lower
/// offered rate).
///
/// `targets` are `(method, path, body)` triples; a plain query
/// workload passes `("GET", "/query?...", b"")`.
pub fn run_load(
    addr: &str,
    targets: &[(String, String, Vec<u8>)],
    offered_qps: f64,
    duration: Duration,
    clients: usize,
) -> io::Result<LoadReport> {
    assert!(!targets.is_empty(), "load needs at least one target");
    let clients = clients.max(1);
    let total = (offered_qps * duration.as_secs_f64()).round().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / offered_qps.max(1e-9));
    let start = Instant::now() + Duration::from_millis(5);

    struct ThreadOut {
        latencies_us: Vec<u64>,
        sent: usize,
        ok: usize,
        shed: usize,
        errors: usize,
    }

    let outs: Vec<io::Result<ThreadOut>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            handles.push(scope.spawn(move || -> io::Result<ThreadOut> {
                let mut client = HttpClient::connect(addr)?;
                let mut out = ThreadOut {
                    latencies_us: Vec::new(),
                    sent: 0,
                    ok: 0,
                    shed: 0,
                    errors: 0,
                };
                // Client c owns schedule slots c, c+clients, c+2·clients…
                let mut slot = c;
                while slot < total {
                    let due = start + interval.mul_f64(slot as f64);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let (method, path, body) = &targets[slot % targets.len()];
                    let t0 = Instant::now();
                    out.sent += 1;
                    match client.request(method, path, body) {
                        Ok(r) if (200..300).contains(&r.status) => {
                            out.ok += 1;
                            out.latencies_us
                                .push(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                        }
                        Ok(r) if r.status == 503 => out.shed += 1,
                        Ok(_) => out.errors += 1,
                        Err(_) => out.errors += 1,
                    }
                    slot += clients;
                }
                Ok(out)
            }));
        }
        handles
            .into_iter()
            // seal-lint: allow(panic-surface) — loadgen harness thread, not the serving path; a panicked load worker is a harness bug that must be loud
            .map(|h| h.join().expect("load thread"))
            .collect()
    });

    let wall = start.elapsed().as_secs_f64();
    let mut latencies: Vec<u64> = Vec::new();
    let (mut sent, mut ok, mut shed, mut errors) = (0usize, 0usize, 0usize, 0usize);
    for out in outs {
        let out = out?;
        latencies.extend_from_slice(&out.latencies_us);
        sent += out.sent;
        ok += out.ok;
        shed += out.shed;
        errors += out.errors;
    }
    latencies.sort_unstable();
    Ok(LoadReport {
        offered_qps,
        achieved_qps: ok as f64 / wall.max(1e-9),
        sent,
        ok,
        shed,
        errors,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
    }

    #[test]
    fn response_parsing_handles_split_and_pipelined_bytes() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nokHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        let mut buf = Vec::new();
        // Feed byte by byte: must never error, completes exactly twice.
        let mut seen = Vec::new();
        for &b in wire.iter() {
            buf.push(b);
            while let Some(r) = try_parse_response(&mut buf).unwrap() {
                seen.push(r);
            }
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].status, 200);
        assert_eq!(seen[0].body, b"ok");
        assert!(seen[0].keep_alive);
        assert_eq!(seen[1].status, 404);
        assert!(buf.is_empty());
    }

    #[test]
    fn interim_100_is_skipped() {
        let wire =
            b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx".to_vec();
        let mut buf = wire;
        let r = try_parse_response(&mut buf).unwrap().expect("complete");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"x");
    }
}
