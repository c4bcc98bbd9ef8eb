//! The six workloads. Each one sets up [`SETUP_REPS`](crate::setup::SETUP_REPS)
//! times, passes the correctness gate, then runs its measured phase:
//! untraced for the end-to-end metrics, or — with `--trace 1` —
//! alternating untraced and traced passes for the per-layer ones.

mod engine;
mod lifecycle;
mod serve;
mod sharded;

use crate::layers::{engine_metrics, index_probe, overhead_share, persist_probe};
use crate::report::Outcome;
use crate::run::{closed_loop, Digest};
use crate::setup::{peak_rss_mb, Env};
use crate::stats::{summarize_phase, Summary};
use crate::trace::Tracer;
use seal_core::{ObjectId, ObjectStore, Query, SealEngine};
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 6] = [
    "probe_selective",
    "verify_broad",
    "compressed_probe",
    "sharded_fanout",
    "serve_query",
    "lifecycle",
];

/// Spans written to the trace file at most; the rest stay in memory
/// and still count in every per-layer metric.
const MAX_FILE_SPANS: usize = 200_000;

/// Runs one workload; `None` for an unknown name.
pub fn run(name: &str, env: &Env) -> Option<Outcome> {
    let mut tracer = Tracer::new(std::time::Instant::now());
    let mut out = match name {
        "sharded_fanout" => sharded::run(env, &mut tracer),
        "serve_query" => serve::run(env, &mut tracer),
        "lifecycle" => lifecycle::run(env, &mut tracer),
        _ => engine::run(engine::spec(name, env)?, env, &mut tracer),
    };
    if env.trace {
        let path = env.out_dir.join(format!("trace-{name}.json"));
        tracer
            .write_json(&path, name, MAX_FILE_SPANS)
            .expect("write the trace file");
        out.note(format!(
            "trace: {} spans recorded, {} written to {}",
            tracer.spans().len(),
            tracer.spans().len().min(MAX_FILE_SPANS),
            path.display()
        ));
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Some(out)
}

/// Reports the measured phase's throughput and latencies.
fn report_summary(out: &mut Outcome, s: &Summary) {
    out.set_sampled("qps", s.qps, s.samples);
    out.set_sampled("query_p50_us", s.p50_us, s.samples);
    out.set_sampled("query_p99_us", s.tail_us, s.samples);
    let per_segment: Vec<String> = s.segment_qps.iter().map(|q| format!("{q:.0}")).collect();
    out.note(format!("segments (qps): {}", per_segment.join(" ")));
    if s.tail_p != 0.99 {
        out.note(format!(
            "note: too few samples per segment for a p99 with 10 samples beyond it; \
             query_p99_us is the pooled p{:.0}",
            s.tail_p * 100.0
        ));
    }
}

/// The untraced measured phase of a single-threaded workload: one
/// closed loop of `search(i)` over the query set for `env.seconds`,
/// every answer compared with the digest the gate recorded.
fn measure_closed_loop(
    out: &mut Outcome,
    env: &Env,
    expected: &[Digest],
    search: impl FnMut(usize) -> Vec<ObjectId>,
) {
    let limit = Duration::from_secs_f64(env.seconds);
    let measured = closed_loop(
        Instant::now(),
        limit,
        expected.len(),
        0,
        1,
        search,
        |i, answers| Digest::of(&answers) == expected[i],
    );
    out.checked(measured.attempted, measured.failed);
    report_summary(
        out,
        &summarize_phase(&measured.samples, limit.as_nanos() as u64),
    );
}

/// What every traced run reports beside its own layers: the decomposed
/// engine search from the spans, the tracing overhead from the pass
/// rates, and the index and persistence probes on the workload's
/// corpus and arena.
fn report_shared_layers(
    out: &mut Outcome,
    env: &Env,
    tracer: &mut Tracer,
    store: &ObjectStore,
    queries: &[Query],
    arena: &SealEngine,
    (untraced_qps, traced_qps): (&[f64], &[f64]),
) {
    engine_metrics(out, tracer, queries.len());
    out.set_sampled(
        "trace.overhead_share",
        overhead_share(untraced_qps, traced_qps),
        traced_qps.len(),
    );
    index_probe(out, store, queries);
    persist_probe(out, arena, &env.out_dir.join("probe.seal"), tracer);
}
