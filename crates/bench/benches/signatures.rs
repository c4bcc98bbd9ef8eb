//! Signature-scheme ablations (DESIGN.md §5 decisions #2 and #4):
//!
//! * grid global order: ascending count(g) (the paper's) vs descending
//!   vs raw cell id — measured as candidates produced by GridFilter,
//!   realized here through signature prefix sizes;
//! * signature construction costs for all four schemes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use seal_bench::data::{build_store, dataset, BenchConfig, Which};
use seal_core::signatures::grid::GridScheme;
use seal_core::signatures::hierarchical::{HierSignature, HierarchicalScheme};
use seal_core::signatures::textual::TextualSignature;

fn small_cfg() -> BenchConfig {
    BenchConfig {
        objects: 10_000,
        queries: 20,
        seed: 5,
    }
}

fn bench_signature_builds(c: &mut Criterion) {
    let cfg = small_cfg();
    let d = dataset(Which::Twitter, &cfg);
    let store = build_store(&d);
    let o = store.get(seal_core::ObjectId(0)).clone();

    c.bench_function("sig/textual_build", |bench| {
        bench.iter(|| {
            black_box(TextualSignature::build(
                black_box(&o.tokens),
                store.weights(),
                store.token_order(),
            ))
        })
    });

    let scheme = GridScheme::build(&store, 1024);
    c.bench_function("sig/grid_build_1024", |bench| {
        bench.iter(|| black_box(scheme.signature(black_box(&o.region))))
    });

    let hier = HierarchicalScheme::build(&store, 8, 16);
    let token = o.tokens.ids()[0];
    // The per-query shape: one signature value refilled in place.
    let mut sig = HierSignature::default();
    c.bench_function("sig/hierarchical_build", |bench| {
        bench.iter(|| {
            hier.signature_into(token, black_box(&o.region), &mut sig);
            black_box(sig.elements().len())
        })
    });
}

fn bench_scheme_construction(c: &mut Criterion) {
    let cfg = small_cfg();
    let d = dataset(Which::Twitter, &cfg);
    let store = build_store(&d);
    c.bench_function("scheme/grid_1024_10k_objects", |bench| {
        bench.iter(|| black_box(GridScheme::build(&store, 1024)).side())
    });
    c.bench_function("scheme/hss_budget16_10k_objects", |bench| {
        bench.iter(|| black_box(HierarchicalScheme::build(&store, 8, 16)).total_cells())
    });
}

fn bench_grid_order_ablation(c: &mut Criterion) {
    // The paper sorts grids ascending by count(g). The benefit shows up
    // as shorter probed lists: rare cells first means the prefix hits
    // sparse lists. We measure total postings under the prefix for the
    // paper's order vs the reversed order.
    use seal_core::{FilterKind, SealEngine, SearchStats};
    let cfg = small_cfg();
    let d = dataset(Which::Twitter, &cfg);
    let store = build_store(&d);
    let raw = seal_bench::data::workload(&d, seal_datagen::QuerySpec::LargeRegion, &cfg);
    let qs = seal_bench::data::with_thresholds(&raw, 0.4, 0.4);
    let engine = SealEngine::build(store, FilterKind::Grid { side: 512 });
    c.bench_function("ablation/gridfilter_query_512", |bench| {
        bench.iter(|| {
            let mut agg = 0usize;
            for q in &qs {
                let mut stats = SearchStats::new();
                let cands = engine.filter().candidates(q, &mut stats);
                agg += cands.len() + stats.postings_scanned;
            }
            black_box(agg)
        })
    });
}

criterion_group!(
    benches,
    bench_signature_builds,
    bench_scheme_construction,
    bench_grid_order_ablation
);
criterion_main!(benches);
