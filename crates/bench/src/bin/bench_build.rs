//! Records index *build* numbers to `BENCH_build.json`:
//!
//! 1. **Parallel hierarchical build** — wall-clock seconds for the
//!    SEAL (`Hierarchical`) build at 1/2/4/8 threads, the speedups,
//!    and an **identical-selections check**: the HSS-Greedy cell
//!    selection fingerprint and the index posting count must match the
//!    sequential build bit-for-bit at every thread count (parallelism
//!    buys wall-clock only, never changes the index).
//! 2. **Incremental re-finalize** — merging K staged postings into an
//!    N-posting frozen index vs. rebuilding from scratch, the
//!    streaming-ingest cycle the merge-based `finalize` makes cheap.
//!
//! ```text
//! cargo run --release -p seal-bench --bin bench_build -- \
//!     [--objects N] [--seed N] [--out PATH]
//! ```
//!
//! The speedup curve is only meaningful on multi-core hardware: the
//! JSON records `available_parallelism` alongside the timings so a
//! 1-core container's flat curve is not mistaken for a regression
//! (same caveat as `BENCH_batch.json`).

use seal_bench::data::{build_store, dataset, BenchConfig, Which};
use seal_bench::harness::{out_path, time_ms, write_json};
use seal_core::filters::HierarchicalFilter;
use seal_core::{BuildOpts, SimilarityConfig};
use seal_index::InvertedIndex;

/// Hierarchical configuration under test (the paper's default shape,
/// depth-capped so the bench finishes in seconds at the default
/// object count).
const MAX_LEVEL: u8 = 8;
const BUDGET: usize = 16;

fn main() {
    let cfg = BenchConfig::from_args();
    let out_path = out_path("BENCH_build.json");

    let d = dataset(Which::Twitter, &cfg);
    let store = build_store(&d);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sim = SimilarityConfig::default();

    // --- Parallel hierarchical build -------------------------------
    let threads = [1usize, 2, 4, 8];
    let mut build_s = Vec::new();
    let mut baseline: Option<(Vec<(u32, u64)>, usize)> = None;
    let mut identical = true;
    for &t in &threads {
        let store_t = store.clone();
        let (filter, ms) = time_ms(move || {
            HierarchicalFilter::build_with_opts(
                store_t,
                MAX_LEVEL,
                BUDGET,
                sim,
                BuildOpts::with_threads(t),
            )
        });
        let fingerprint = filter.scheme().selected_cells_sorted();
        let postings = filter.index().posting_count();
        match &baseline {
            None => baseline = Some((fingerprint, postings)),
            Some((fp, pc)) => {
                if *fp != fingerprint || *pc != postings {
                    identical = false;
                }
            }
        }
        println!("threads={t:<2} build {:>8.1} ms", ms);
        build_s.push(ms / 1e3);
    }
    assert!(
        identical,
        "parallel hierarchical build diverged from the sequential selection"
    );
    let base = build_s[0].max(1e-9);

    // --- Incremental re-finalize vs fresh rebuild ------------------
    const FROZEN: usize = 400_000;
    const STAGED: usize = 4_000;
    const KEYS: u64 = 512;
    let posting = |i: usize| {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h % KEYS, (i as u32) & 0xFFFFF, (h >> 16) as f64 % 1e6)
    };
    let mut incremental: InvertedIndex<u64> = InvertedIndex::new();
    for i in 0..FROZEN {
        let (k, o, b) = posting(i);
        incremental.push(k, o, b);
    }
    incremental.finalize();
    for i in FROZEN..FROZEN + STAGED {
        let (k, o, b) = posting(i);
        incremental.push(k, o, b);
    }
    let ((), merge_ms) = time_ms(|| incremental.finalize());

    let (fresh, fresh_ms) = time_ms(|| {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        for i in 0..FROZEN + STAGED {
            let (k, o, b) = posting(i);
            idx.push(k, o, b);
        }
        idx.finalize();
        idx
    });
    assert_eq!(
        fresh.posting_count(),
        incremental.posting_count(),
        "merge path lost postings"
    );
    println!(
        "re-finalize {STAGED} staged into {FROZEN} frozen: merge {merge_ms:.1} ms, \
         fresh rebuild {fresh_ms:.1} ms ({:.2}x)",
        fresh_ms / merge_ms.max(1e-9)
    );

    // --- JSON ------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"bench\": \"index build: parallel hierarchical + incremental re-finalize\",\n",
    );
    json.push_str(&format!("  \"objects\": {},\n", store.len()));
    json.push_str(&format!(
        "  \"hierarchical\": {{ \"max_level\": {MAX_LEVEL}, \"budget\": {BUDGET} }},\n"
    ));
    json.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    json.push_str(
        "  \"caveat\": \"speedup curve is flat by construction when available_parallelism is 1; \
         identical_selections and the refinalize ratio are valid anywhere\",\n",
    );
    json.push_str("  \"threads\": [1, 2, 4, 8],\n");
    json.push_str(&format!(
        "  \"build_seconds\": [{:.3}, {:.3}, {:.3}, {:.3}],\n",
        build_s[0], build_s[1], build_s[2], build_s[3]
    ));
    json.push_str(&format!(
        "  \"speedup_vs_1_thread\": [{:.2}, {:.2}, {:.2}, {:.2}],\n",
        base / build_s[0].max(1e-9),
        base / build_s[1].max(1e-9),
        base / build_s[2].max(1e-9),
        base / build_s[3].max(1e-9)
    ));
    json.push_str(&format!("  \"identical_selections\": {identical},\n"));
    json.push_str(&format!(
        "  \"refinalize\": {{ \"frozen_postings\": {FROZEN}, \"staged_postings\": {STAGED}, \
         \"merge_ms\": {merge_ms:.1}, \"fresh_rebuild_ms\": {fresh_ms:.1}, \
         \"fresh_over_merge\": {:.2} }}\n",
        fresh_ms / merge_ms.max(1e-9)
    ));
    json.push_str("}\n");

    write_json(&out_path, &json);
}
