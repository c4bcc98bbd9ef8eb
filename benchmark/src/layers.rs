//! The traced run's view of the layers every workload sits on: the
//! decomposed engine search (filter → verify), the stand-alone
//! posting-index probes and the persistence probes. Each function
//! times calls into public functions of one layer and turns the spans
//! into that layer's metrics.

use crate::report::Outcome;
use crate::run::Digest;
use crate::setup::{secs, timed};
use crate::stats::{fit_cost_model, mean, median};
use crate::trace::{self_times, Name, Tracer, ROOT};
use seal_core::{ObjectId, ObjectStore, Query, QueryContext, SealEngine, SearchStats};
use seal_index::{CompressedInvertedIndex, Container, InvertedIndex};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// `SealEngine::search_with_ctx` taken apart: the same two calls it
/// makes, each under its own span, inside one `engine.search` span.
pub fn traced_search(
    engine: &SealEngine,
    q: &Query,
    ctx: &mut QueryContext,
    tracer: &mut Tracer,
    request: u32,
) -> Vec<ObjectId> {
    let root = tracer.begin(Name::Search, ROOT, request);
    let mut stats = SearchStats::new();
    let filter = tracer.begin(Name::Candidates, root, request);
    engine.filter().candidates_into(q, ctx, &mut stats);
    tracer.end(
        filter,
        stats.lists_probed as u64,
        stats.postings_scanned as u64,
    );
    let verify = tracer.begin(Name::Verify, root, request);
    let answers = seal_core::verify::verify(
        engine.store(),
        &engine.config(),
        q,
        ctx.candidates(),
        &mut stats,
    );
    tracer.end(verify, stats.candidates as u64, stats.results as u64);
    tracer.end(root, 0, 0);
    answers
}

/// One whole traced pass over the query set (request ids
/// `request_base + i`). Returns the pass's wall seconds and how many
/// answers differed from `expected`.
pub fn traced_pass(
    engine: &SealEngine,
    queries: &[Query],
    expected: &[Digest],
    ctx: &mut QueryContext,
    tracer: &mut Tracer,
    request_base: u32,
) -> (f64, usize) {
    let start = Instant::now();
    let mut failed = 0;
    for (i, q) in queries.iter().enumerate() {
        let answers = traced_search(engine, q, ctx, tracer, request_base + i as u32);
        if Digest::of(&answers) != expected[i] {
            failed += 1;
        }
    }
    (start.elapsed().as_secs_f64(), failed)
}

/// `filters.*`, `verify.*` and `engine.*` from the decomposed-search
/// spans. Request ids are `pass · n_queries + query`, and only whole
/// passes are traced, so the counts are exact per-query means.
pub fn engine_metrics(out: &mut Outcome, tracer: &Tracer, n_queries: usize) {
    if n_queries == 0 {
        return;
    }
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let (mut search_ns, mut self_ns, mut searches) = (0u64, 0u64, 0usize);
    let (mut filter_ns, mut lists, mut postings) = (0u64, 0u64, 0u64);
    let (mut verify_ns, mut candidates, mut results) = (0u64, 0u64, 0u64);
    // Per query of the set: (Σ search ns, searches, postings, candidates).
    let mut per_query = vec![(0u64, 0u64, 0u64, 0u64); n_queries];
    for (s, &self_time) in spans.iter().zip(&selfs) {
        let row = &mut per_query[s.request as usize % n_queries];
        match s.name {
            Name::Search => {
                search_ns += s.dur_ns();
                self_ns += self_time;
                searches += 1;
                row.0 += s.dur_ns();
                row.1 += 1;
            }
            Name::Candidates => {
                filter_ns += s.dur_ns();
                lists += s.a;
                postings += s.b;
                row.2 = s.b;
            }
            Name::Verify => {
                verify_ns += s.dur_ns();
                candidates += s.a;
                results += s.b;
                row.3 = s.a;
            }
            _ => {}
        }
    }
    if searches == 0 {
        return;
    }
    let per = |total: u64| total as f64 / searches as f64;
    out.set_sampled("engine.search_us", per(search_ns) / 1e3, searches);
    out.set_sampled("engine.self_us", per(self_ns) / 1e3, searches);
    out.set_sampled("filters.candidates_us", per(filter_ns) / 1e3, searches);
    out.set_sampled("verify.verify_us", per(verify_ns) / 1e3, searches);
    out.set("filters.lists_probed", per(lists));
    out.set("filters.postings_scanned", per(postings));
    out.set("filters.candidates", per(candidates));
    out.set("verify.results", per(results));
    out.set(
        "filters.ns_per_posting",
        filter_ns as f64 / postings.max(1) as f64,
    );
    out.set(
        "verify.ns_per_candidate",
        verify_ns as f64 / candidates.max(1) as f64,
    );
    out.set(
        "filters.precision",
        results as f64 / candidates.max(1) as f64,
    );
    let rows: Vec<(f64, f64, f64)> = per_query
        .iter()
        .filter(|r| r.1 > 0)
        .map(|r| (r.2 as f64, r.3 as f64, r.0 as f64 / r.1 as f64))
        .collect();
    let fit = fit_cost_model(&rows);
    out.set("engine.pi1_ns", fit.pi1);
    out.set("engine.pi2_ns", fit.pi2);
    out.set_sampled("engine.model_r2", fit.r2, rows.len());
}

/// Passes of each stand-alone index probe; the median pass is reported.
const INDEX_PASSES: usize = 5;

/// Queries whose tokens the index probes look up (decoding a frequent
/// token's prefix is thousands of ids, so the whole set would take
/// seconds a pass).
const INDEX_QUERIES: usize = 512;

/// `index.*`: a token-keyed posting index built from the workload's
/// corpus (one posting per object token, positional prefix bounds) in
/// its arena and its compressed form, probed with the tokens of the
/// set's first [`INDEX_QUERIES`] queries at the workload's textual
/// threshold.
pub fn index_probe(out: &mut Outcome, store: &ObjectStore, queries: &[Query]) {
    let mut arena: InvertedIndex<u32> = InvertedIndex::new();
    for (id, o) in store.iter() {
        let k = o.tokens.len().max(1) as f64;
        for (j, t) in o.tokens.iter().enumerate() {
            arena.push(t.0, id.0, (k - j as f64) / k);
        }
    }
    arena.finalize();
    let compressed = CompressedInvertedIndex::compress(&arena);
    let postings = arena.posting_count().max(1) as f64;
    out.set(
        "index.bytes_per_posting",
        arena.size_bytes() as f64 / postings,
    );
    out.set(
        "index.id_bytes_per_posting",
        compressed.id_column_bytes() as f64 / postings,
    );
    let Some(c) = queries.first().map(|q| q.tau_textual) else {
        return;
    };
    let keys: Vec<u32> = queries
        .iter()
        .take(INDEX_QUERIES)
        .flat_map(|q| q.tokens.iter().map(|t| t.0))
        .collect();
    let mut cut_ns = Vec::with_capacity(INDEX_PASSES);
    let mut decode_ns = Vec::with_capacity(INDEX_PASSES);
    let mut scratch = Vec::new();
    for _ in 0..INDEX_PASSES {
        let start = Instant::now();
        for k in &keys {
            black_box(arena.qualifying(black_box(k), c));
        }
        cut_ns.push(start.elapsed().as_nanos() as f64 / keys.len().max(1) as f64);
        let mut decoded = 0usize;
        let start = Instant::now();
        for k in &keys {
            decoded += black_box(compressed.qualifying_into(black_box(k), c, &mut scratch)).len();
        }
        decode_ns.push(start.elapsed().as_nanos() as f64 / decoded.max(1) as f64);
    }
    out.set_sampled("index.cut_ns", median(&cut_ns), INDEX_PASSES * keys.len());
    out.set_sampled("index.decode_ns_per_id", median(&decode_ns), INDEX_PASSES);
}

/// Repetitions of each persistence probe.
const PERSIST_REPS: usize = 3;

/// `persist.*` and `container.*` on the workload's arena engine:
/// serialization apart from the file write (each repetition saves to
/// `path` right after serializing, and the difference is the write,
/// fsync and rename), the buffered load beside the streamed one, and
/// the container's checksum and framing on their own.
pub fn persist_probe(out: &mut Outcome, engine: &SealEngine, path: &Path, tracer: &mut Tracer) {
    let (mut serialize, mut write, mut crc, mut parse, mut buffered) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut size = 0usize;
    for _ in 0..PERSIST_REPS {
        let (bytes, t) = timed(|| engine.to_container_bytes().expect("serialize the engine"));
        tracer.record(Name::Serialize, t.0, t.1, bytes.len() as u64, 0);
        serialize.push(secs(t));
        size = bytes.len();
        let (saved, save) = timed(|| engine.save(path));
        saved.expect("save the engine");
        std::fs::remove_file(path).expect("remove the saved engine");
        tracer.record(Name::Save, save.0, save.1, bytes.len() as u64, 0);
        write.push(secs(save) - secs(t));
        let (_, t) = timed(|| black_box(seal_index::container::crc32(black_box(&bytes))));
        tracer.record(Name::Crc, t.0, t.1, bytes.len() as u64, 0);
        crc.push(bytes.len() as f64 / secs(t).max(1e-12) / 1e9);
        let (parsed, t) = timed(|| Container::parse(&bytes).map(|c| c.sections().len()));
        parsed.expect("parse the container just written");
        tracer.record(Name::ContainerParse, t.0, t.1, 0, 0);
        parse.push(secs(t));
        let (loaded, t) = timed(|| SealEngine::load_from_bytes(&bytes, 1));
        drop(loaded.expect("load the container just written"));
        tracer.record(Name::LoadBuffered, t.0, t.1, 0, 0);
        buffered.push(secs(t));
    }
    out.set_sampled("persist.serialize_s", median(&serialize), PERSIST_REPS);
    out.set_sampled("persist.write_s", median(&write), PERSIST_REPS);
    out.set_sampled("persist.load_buffered_s", median(&buffered), PERSIST_REPS);
    out.set(
        "persist.bytes_per_object",
        size as f64 / engine.store().len().max(1) as f64,
    );
    out.set_sampled("container.crc_gbps", median(&crc), PERSIST_REPS);
    out.set_sampled("container.parse_s", median(&parse), PERSIST_REPS);
}

/// `trace.overhead_share`: how much slower the traced passes ran than
/// the untraced ones beside them (median pass rates).
pub fn overhead_share(untraced_qps: &[f64], traced_qps: &[f64]) -> f64 {
    let (u, t) = (median(untraced_qps), median(traced_qps));
    if u > 0.0 {
        1.0 - t / u
    } else {
        0.0
    }
}

/// Mean of a span family's durations in the given unit divisor.
pub fn mean_dur(tracer: &Tracer, name: Name, unit_ns: f64) -> (f64, usize) {
    let d: Vec<f64> = tracer
        .durations(name)
        .iter()
        .map(|&n| n as f64 / unit_ns)
        .collect();
    (mean(&d), d.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_relative_to_the_untraced_rate() {
        assert!((overhead_share(&[100.0, 110.0, 90.0], &[95.0, 95.0]) - 0.05).abs() < 1e-12);
        assert_eq!(overhead_share(&[], &[1.0]), 0.0);
    }
}
