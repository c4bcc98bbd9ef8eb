//! The §6 sweep driver: every table and figure of the paper as rows of
//! the cost counters `SearchStats` keeps (lists probed, postings
//! retrieved, candidates verified, answers), plus index bytes.
//!
//! Counters are machine-independent and deterministic for a seed, so
//! they are what `tests/reproduction.rs` asserts and what
//! `REPRODUCTION.json` records. `ms` is the mean per-query time, taken
//! here around the engine calls; nothing asserts it.

use crate::baselines::{IrTreeBaseline, KeywordFirst, SpatialFirst};
use crate::data::{build_store, queries, twitter, usa, BenchConfig};
use seal_core::granularity::{level_costs, CostModel};
use seal_core::{
    verify, FilterKind, ObjectStore, Query, QueryContext, SealEngine, SearchStats, SimilarityConfig,
};
use seal_datagen::{Dataset, QuerySpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The figures `repro --figure` names, in paper order (`all` runs each).
pub const FIGURES: [&str; 8] = [
    "table1", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
];

const TAUS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];
const DEFAULT_TAU: f64 = 0.4;
const LARGE: QuerySpec = QuerySpec::LargeRegion;
const SMALL: QuerySpec = QuerySpec::SmallRegion;

/// Figure 13's granularities, as grid-tree levels: 64 … 2048 cells per
/// side. The §4.3 estimate holds a dense `(side + 1)²` array per level,
/// so level 13 (the paper's 8192) alone would take ~800 MB.
const FIG13_LEVELS: std::ops::RangeInclusive<u8> = 6..=11;

/// One reproduction row: one method's counters summed over one query
/// set (`queries` queries at `tau_r` / `tau_t`), at position `x` of its
/// panel (the swept τ, the granularity, `m_t` or bucket count, or the
/// corpus size).
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub struct Row {
    pub figure: &'static str,
    pub dataset: &'static str,
    pub panel: &'static str,
    pub method: String,
    pub x: f64,
    pub tau_r: f64,
    pub tau_t: f64,
    pub queries: usize,
    pub stats: SearchStats,
    pub index_bytes: usize,
    pub ms: f64,
}

impl Row {
    /// The row as one flat JSON object on one line (`repro`'s output).
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        format!(
            "{{\"figure\":\"{}\",\"dataset\":\"{}\",\"panel\":\"{}\",\"method\":\"{}\",\
             \"x\":{},\"tau_r\":{},\"tau_t\":{},\"queries\":{},\"lists\":{},\"postings\":{},\
             \"candidates\":{},\"results\":{},\"index_bytes\":{},\"ms\":{:.4}}}",
            self.figure,
            self.dataset,
            self.panel,
            self.method,
            self.x,
            self.tau_r,
            self.tau_t,
            self.queries,
            s.lists_probed,
            s.postings_scanned,
            s.candidates,
            s.results,
            self.index_bytes,
            self.ms,
        )
    }
}

/// A row at `(panel, method, x)`, for [`run`] to stamp with its figure
/// and dataset; the thresholds are read off the query set.
fn row(
    at: (&'static str, &str, f64),
    qs: &[Query],
    stats: SearchStats,
    bytes: usize,
    ms: f64,
) -> Row {
    let (tau_r, tau_t) = qs
        .first()
        .map_or((0.0, 0.0), |q| (q.tau_spatial, q.tau_textual));
    let (panel, method, x) = at;
    Row {
        figure: "",
        dataset: "",
        panel,
        method: method.to_string(),
        x,
        tau_r,
        tau_t,
        queries: qs.len(),
        stats,
        index_bytes: bytes,
        ms,
    }
}

/// What a row measures: an engine, or one of the §2.3 baselines.
enum Method {
    Engine(SealEngine),
    IrTree(IrTreeBaseline),
    Keyword(KeywordFirst),
    Spatial(SpatialFirst),
}

impl Method {
    /// One query's counters. A baseline makes the two calls
    /// `SealEngine::search_with_ctx` makes — its `candidates`, then
    /// `verify` over `store` — so every counter means the same in its
    /// rows as in an engine's.
    fn search(&self, store: &ObjectStore, q: &Query) -> SearchStats {
        let mut stats = SearchStats::new();
        let candidates = match self {
            Method::Engine(e) => return e.search(q).stats,
            Method::IrTree(b) => b.candidates(q, &mut stats),
            Method::Keyword(b) => b.candidates(q, &mut stats),
            Method::Spatial(b) => b.candidates(q, &mut stats),
        };
        verify::verify(store, &SimilarityConfig, q, &candidates, &mut stats);
        stats
    }

    fn index_bytes(&self) -> usize {
        match self {
            Method::Engine(e) => e.index_bytes(),
            Method::IrTree(b) => b.index_bytes(),
            Method::Keyword(b) => b.index_bytes(),
            Method::Spatial(b) => b.index_bytes(),
        }
    }
}

/// Runs the query set once to warm up, then once timed around the
/// `search` calls: the summed counters and the mean ms per query.
fn measure(at: (&'static str, &str, f64), m: &Method, store: &ObjectStore, qs: &[Query]) -> Row {
    for q in qs {
        black_box(m.search(store, q));
    }
    let mut stats = SearchStats::new();
    let start = Instant::now();
    for q in qs {
        stats.accumulate(&m.search(store, q));
    }
    let ms = ms_per(start.elapsed(), qs.len());
    row(at, qs, stats, m.index_bytes(), ms)
}

fn ms_per(elapsed: Duration, n: usize) -> f64 {
    elapsed.as_secs_f64() * 1e3 / n.max(1) as f64
}

/// `(τ_R, τ_T)`: `tau` in the swept slot, the default in the other.
fn thresholds(sweep_r: bool, tau: f64) -> (f64, f64) {
    if sweep_r {
        (tau, DEFAULT_TAU)
    } else {
        (DEFAULT_TAU, tau)
    }
}

fn hash(side: u32, buckets: u64) -> FilterKind {
    let buckets = Some(buckets);
    FilterKind::HashHybrid { side, buckets }
}

/// Runs `figure` (one of [`FIGURES`], or `all`), handing each row to
/// `emit` as soon as its dataset's rows are measured. An unknown name
/// is an error before any work starts.
pub fn run(figure: &str, cfg: &BenchConfig, emit: &mut dyn FnMut(Row)) -> Result<(), String> {
    let figures = match figure {
        "all" => &FIGURES[..],
        f => match FIGURES.iter().position(|&g| g == f) {
            Some(i) => &FIGURES[i..=i],
            None => return Err(format!("unknown figure {f:?}")),
        },
    };
    for &figure in figures {
        let datasets: &[fn(&BenchConfig) -> Dataset] = match figure {
            "table1" => &[twitter, usa],
            "fig17" => &[usa],
            _ => &[twitter],
        };
        for generate in datasets {
            let d = generate(cfg);
            let rows = match figure {
                "table1" => table1(&d),
                "fig13" => fig13(&d, cfg),
                "fig15" => fig15(&d, cfg),
                "fig18" => fig18(&d, cfg),
                _ => tau_panels(&d, cfg, figure),
            };
            for r in rows {
                emit(Row {
                    figure,
                    dataset: d.name,
                    ..r
                });
            }
        }
    }
    Ok(())
}

/// Table 1's index sizes; `ms` is the build time.
fn table1(d: &Dataset) -> Vec<Row> {
    let store = build_store(d);
    let compressed = FilterKind::HashHybridCompressed {
        side: 1024,
        buckets: Some(1 << 20),
    };
    let x = store.len() as f64;
    let start = Instant::now();
    let bytes = IrTreeBaseline::build_with_fanout(store.clone(), 64).index_bytes();
    let ms = ms_per(start.elapsed(), 1);
    let irtree = row(("", "IR-tree", x), &[], SearchStats::new(), bytes, ms);
    let kinds = [
        ("TokenInv", FilterKind::Token),
        ("TokenInv compressed", FilterKind::TokenCompressed),
        ("GridInv(1024)", FilterKind::Grid { side: 1024 }),
        ("HashInv(1024)", hash(1024, 1 << 20)),
        ("HashInv compressed", compressed),
        ("HierarchicalInv", FilterKind::seal_default()),
    ];
    let engines = kinds.into_iter().map(|(name, kind)| {
        let start = Instant::now();
        let bytes = SealEngine::build(store.clone(), kind).index_bytes();
        let ms = ms_per(start.elapsed(), 1);
        row(("", name, x), &[], SearchStats::new(), bytes, ms)
    });
    std::iter::once(irtree).chain(engines).collect()
}

/// Figures 12, 14, 16 and 17: every method at every τ of four panels —
/// (a) large regions over τ_R, (b) large over τ_T, (c) small over τ_R,
/// (d) small over τ_T — the other threshold at 0.4.
fn tau_panels(d: &Dataset, cfg: &BenchConfig, figure: &str) -> Vec<Row> {
    let store = build_store(d);
    let engine = |kind| Method::Engine(SealEngine::build(store.clone(), kind));
    let sides = [256, 512, 1024];
    let grid = |side| (format!("Grid({side})"), engine(FilterKind::Grid { side }));
    let hybrid = |side| (format!("HashHybrid({side})"), engine(hash(side, 1 << 20)));
    let methods: Vec<(String, Method)> = match figure {
        "fig12" => [("Token".into(), engine(FilterKind::Token))]
            .into_iter()
            .chain(sides.map(grid))
            .collect(),
        "fig14" => sides
            .into_iter()
            .flat_map(|s| [grid(s), hybrid(s)])
            .collect(),
        _ => {
            let irtree = IrTreeBaseline::build_with_fanout(store.clone(), 64);
            let keyword = KeywordFirst::build(store.clone());
            let spatial = SpatialFirst::build(store.clone());
            vec![
                ("IR-tree".into(), Method::IrTree(irtree)),
                ("Keyword-first".into(), Method::Keyword(keyword)),
                ("Spatial-first".into(), Method::Spatial(spatial)),
                ("Seal".into(), engine(FilterKind::seal_default())),
            ]
        }
    };
    let mut rows = Vec::new();
    for (panel, spec) in [("a", LARGE), ("b", LARGE), ("c", SMALL), ("d", SMALL)] {
        for tau in TAUS {
            let qs = queries(d, spec, cfg, thresholds(matches!(panel, "a" | "c"), tau));
            for (name, m) in &methods {
                rows.push(measure((panel, name, tau), m, &store, &qs));
            }
        }
    }
    rows
}

/// Figure 13: GridFilter across granularities, the filter and the
/// verify call timed apart (each row carries the counters its call
/// keeps), beside the §4.3 estimate of the same two costs.
fn fig13(d: &Dataset, cfg: &BenchConfig) -> Vec<Row> {
    let store = build_store(d);
    let model = CostModel::default();
    let mut rows = Vec::new();
    for (panel, spec) in [("a", LARGE), ("b", SMALL)] {
        let qs = queries(d, spec, cfg, (DEFAULT_TAU, DEFAULT_TAU));
        for level in FIG13_LEVELS {
            let side = 1u32 << level;
            let e = SealEngine::build(store.clone(), FilterKind::Grid { side });
            for q in &qs {
                black_box(e.search(q));
            }
            let (mut ctx, sim) = (QueryContext::new(), e.config());
            let (mut filtered, mut verified) = (SearchStats::new(), SearchStats::new());
            let (mut filter_t, mut verify_t) = (Duration::ZERO, Duration::ZERO);
            for q in &qs {
                let start = Instant::now();
                e.filter().candidates_into(q, &mut ctx, &mut filtered);
                let mid = Instant::now();
                verify::verify(e.store(), &sim, q, ctx.candidates(), &mut verified);
                filter_t += mid - start;
                verify_t += mid.elapsed();
            }
            let (x, bytes, n) = (f64::from(side), e.index_bytes(), qs.len());
            let at = (panel, "Grid filter", x);
            rows.push(row(at, &qs, filtered, bytes, ms_per(filter_t, n)));
            let at = (panel, "Grid verify", x);
            rows.push(row(at, &qs, verified, bytes, ms_per(verify_t, n)));
        }
        let n = qs.len() as f64;
        let costs = level_costs(&store, &qs, *FIG13_LEVELS.end(), model);
        for c in costs.iter().filter(|c| FIG13_LEVELS.contains(&c.level)) {
            let estimate = SearchStats {
                postings_scanned: (c.filter_cost * n / model.pi1).round() as usize,
                candidates: (c.verify_cost * n / model.pi2).round() as usize,
                ..SearchStats::new()
            };
            let at = (panel, "Grid estimate", f64::from(c.side));
            rows.push(row(at, &qs, estimate, 0, 0.0));
        }
    }
    rows
}

/// Figure 15: hash vs hierarchical hybrid signatures at four matched
/// budget steps (bucket count; `m_t`), τ_R = 0.4, τ_T = 0.1.
fn fig15(d: &Dataset, cfg: &BenchConfig) -> Vec<Row> {
    let store = build_store(d);
    let build = |kind| Method::Engine(SealEngine::build(store.clone(), kind));
    let steps: Vec<_> = [(1 << 14, 8), (1 << 16, 32), (1 << 18, 128), (1 << 20, 512)]
        .into_iter()
        .map(|(buckets, budget)| {
            let hier = FilterKind::Hierarchical {
                max_level: 10,
                budget,
            };
            (buckets, budget, build(hash(1024, buckets)), build(hier))
        })
        .collect();
    let mut rows = Vec::new();
    for (panel, spec) in [("a", LARGE), ("b", SMALL)] {
        let qs = queries(d, spec, cfg, (0.4, 0.1));
        for (buckets, budget, hash, hier) in &steps {
            let at = (panel, "HashHybrid", *buckets as f64);
            rows.push(measure(at, hash, &store, &qs));
            let at = (panel, "Hierarchical", *budget as f64);
            rows.push(measure(at, hier, &store, &qs));
        }
    }
    rows
}

/// Figure 18: Seal over 1/5 … 5/5 of `d` (`--objects`), large
/// regions; panel a sweeps τ_R, panel b τ_T.
fn fig18(d: &Dataset, cfg: &BenchConfig) -> Vec<Row> {
    let mut rows = Vec::new();
    for step in 1..=5 {
        let objects = cfg.objects * step / 5;
        let cfg = BenchConfig {
            objects,
            ..cfg.clone()
        };
        let smaller = (step < 5).then(|| twitter(&cfg));
        let d = smaller.as_ref().unwrap_or(d);
        let store = build_store(d);
        let seal = Method::Engine(SealEngine::build(store.clone(), FilterKind::seal_default()));
        for (panel, tau) in ["a", "b"]
            .into_iter()
            .flat_map(|p| [0.1, 0.3, 0.5].map(|t| (p, t)))
        {
            let qs = queries(d, LARGE, &cfg, thresholds(panel == "a", tau));
            rows.push(measure((panel, "Seal", objects as f64), &seal, &store, &qs));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figures_fail_before_any_work() {
        let cfg = BenchConfig::default();
        let err = run("fig99", &cfg, &mut |_| panic!("no rows")).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
    }
}
