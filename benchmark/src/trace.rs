//! Spans recorded by the benchmark itself, around its calls into each
//! layer. Nothing inside the measured crates is instrumented: a span is
//! two clock reads in this package, kept in memory until the run ends
//! and then written to `benchmark/out/trace-<workload>.json`.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// A span's position in its [`Tracer`].
pub type SpanId = u32;

/// "No parent": a root span.
pub const ROOT: SpanId = u32::MAX;

/// Every span name the benchmark records. `a`/`b` are the two counts a
/// span carries, taken at the same boundary as its clock reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One decomposed `SealEngine` search (candidates + verify).
    Search,
    /// `CandidateFilter::candidates_into`; a = lists probed, b =
    /// postings scanned.
    Candidates,
    /// `verify::verify`; a = candidates, b = results.
    Verify,
    /// `QueryEngine::search` on the sharded engine; a = shards
    /// probed, b = merge nanoseconds (from the returned stats).
    ShardedSearch,
    /// One `GET /query` round trip, client side; a = HTTP status.
    Wire,
    /// The in-process replay of one wire request.
    Shadow,
    /// `http::parse_request` on the request's bytes.
    HttpParse,
    /// `Batcher::submit`; a = size of the batch that carried it.
    BatcherSubmit,
    /// `http::encode_response` on the answer body.
    HttpEncode,
    /// `LiveEngine::search_with_ctx`; a = objects staged.
    LiveSearch,
    /// `LiveEngine::push_all`; a = objects pushed.
    PushAll,
    /// `LiveEngine::refresh`; a = objects merged, b = 1 when the
    /// previous generation's scheme was reused.
    Refresh,
    /// Set-up phases, one span each.
    Generate,
    StoreBuild,
    FilterBuild,
    ShardedBuild,
    Save,
    Load,
    Spawn,
    WarmUp,
    /// `SealEngine::to_container_bytes`; a = bytes.
    Serialize,
    /// `SealEngine::load_from_bytes`.
    LoadBuffered,
    /// `container::crc32` over the container; a = bytes.
    Crc,
    /// `Container::parse`.
    ContainerParse,
    /// A fresh `SealEngine` build over the union corpus.
    FreshBuild,
}

impl Name {
    /// The name written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Search => "engine.search",
            Name::Candidates => "filters.candidates_into",
            Name::Verify => "verify.verify",
            Name::ShardedSearch => "sharded.search",
            Name::Wire => "server.wire",
            Name::Shadow => "server.shadow",
            Name::HttpParse => "http.parse_request",
            Name::BatcherSubmit => "batcher.submit",
            Name::HttpEncode => "http.encode_response",
            Name::LiveSearch => "live.search",
            Name::PushAll => "live.push_all",
            Name::Refresh => "live.refresh",
            Name::Generate => "datagen.generate",
            Name::StoreBuild => "store.build",
            Name::FilterBuild => "filters.build",
            Name::ShardedBuild => "sharded.build",
            Name::Save => "persist.save",
            Name::Load => "persist.load",
            Name::Spawn => "server.spawn",
            Name::WarmUp => "warm_up",
            Name::Serialize => "persist.to_container_bytes",
            Name::LoadBuffered => "persist.load_from_bytes",
            Name::Crc => "container.crc32",
            Name::ContainerParse => "container.parse",
            Name::FreshBuild => "live.fresh_build",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: Name,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// Spans of one request share this identifier.
    pub request: u32,
    pub a: u64,
    pub b: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log. One per thread; [`Tracer::absorb`] merges
/// them when the threads have ended.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (threads that will be
    /// merged share one origin).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: Name, parent: SpanId, request: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            a: 0,
            b: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span now, attaching its counts.
    pub fn end(&mut self, id: SpanId, a: u64, b: u64) {
        let end_ns = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.a = a;
        s.b = b;
    }

    /// Records an interval that was timed elsewhere (set-up phases).
    pub fn record(&mut self, name: Name, start: Instant, end: Instant, a: u64, b: u64) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            parent: ROOT,
            request: 0,
            a,
            b,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: Name) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Writes the log as one JSON document: at most `max_spans` spans
    /// (the earliest recorded), with the totals beside them so a
    /// truncated file says so.
    pub fn write_json(&self, path: &Path, workload: &str, max_spans: usize) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(max_spans);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{written},\
             \"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request_id\",\"a\",\"b\"],\
             \"spans\":[",
            self.spans.len()
        )?;
        for (i, s) in self.spans[..written].iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            let parent = if s.parent == ROOT || s.parent as usize >= written {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "\n[\"{}\",{},{},{parent},{},{},{}]",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.request,
                s.a,
                s.b
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover. Children may overlap each
/// other (their union is subtracted once) and are clipped to the
/// parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            if end > start {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (start, end) in kids {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name: Name::Search,
            start_ns,
            end_ns,
            parent,
            request: 0,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        // search [0,100) with candidates [10,40) and verify [40,90).
        let spans = [span(0, 100, ROOT), span(10, 40, 0), span(40, 90, 0)];
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn self_time_with_nested_children_only_counts_direct_ones() {
        // root [0,100) → child [10,60) → grandchild [20,30).
        let spans = [span(0, 100, ROOT), span(10, 60, 0), span(20, 30, 1)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,50) and [30,70) cover [10,70) = 60, not 80; a
        // third child contained in the first adds nothing.
        let spans = [
            span(0, 100, ROOT),
            span(10, 50, 0),
            span(30, 70, 0),
            span(15, 20, 0),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // A child that outlives its parent only counts inside it.
        let spans = [span(10, 50, ROOT), span(40, 90, 0), span(0, 5, 0)];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let r = a.begin(Name::Wire, ROOT, 1);
        a.end(r, 200, 0);
        let mut b = Tracer::new(origin);
        let root = b.begin(Name::Shadow, ROOT, 2);
        let kid = b.begin(Name::HttpParse, root, 2);
        b.end(kid, 0, 0);
        b.end(root, 0, 0);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, ROOT);
        assert_eq!(s[2].parent, 1, "child now points at the re-based parent");
        assert_eq!(s[0].a, 200);
        assert_eq!(a.durations(Name::HttpParse).len(), 1);
    }

    #[test]
    fn trace_file_is_json_and_says_when_it_is_truncated() {
        let mut t = Tracer::new(Instant::now());
        for i in 0..3 {
            let id = t.begin(Name::Candidates, ROOT, i);
            t.end(id, 4, 190);
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-unit-test.json");
        t.write_json(&path, "probe_selective", 2).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc = crate::json::parse(&text).expect("trace file parses");
        assert_eq!(
            doc.get("spans_recorded").and_then(|v| v.as_f64()),
            Some(3.0)
        );
        assert_eq!(doc.get("spans_written").and_then(|v| v.as_f64()), Some(2.0));
        let spans = doc.get("spans").and_then(|v| v.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].as_array().unwrap()[0].as_str(),
            Some("filters.candidates_into")
        );
    }
}
