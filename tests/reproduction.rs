//! Integration: the paper's §6, pinned on cost counters.
//!
//! One sweep — the same `seal_bench::sweep::run` that `repro` prints —
//! at the recorded scale (2 000 objects, 20 queries, seed 2012) is
//! computed once per test binary. Each figure's qualitative claim is
//! asserted on its counters, never on time; the rows themselves are
//! compared field by field (all but `ms`) against `REPRODUCTION.json`,
//! which is `repro --figure all --objects 2000 --queries 20` verbatim.
//!
//! Claims that do not reproduce at this scale are findings, listed with
//! their numbers in the README's "Reproducing the paper" table, and are
//! not asserted here.

use seal_bench::data::BenchConfig;
use seal_bench::sweep::{run, Row};
use seal_core::granularity::CostModel;
use std::sync::OnceLock;

const RECORDED: &str = include_str!("../REPRODUCTION.json");

fn rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let cfg = BenchConfig {
            objects: 2_000,
            queries: 20,
            seed: 2012,
        };
        let mut rows = Vec::new();
        run("all", &cfg, &mut |row| rows.push(row)).expect("`all` is a figure");
        rows
    })
}

/// The rows of one figure panel for one method, in sweep order.
fn series(figure: &str, dataset: &str, panel: &str, method: &str) -> Vec<&'static Row> {
    let found: Vec<&Row> = rows()
        .iter()
        .filter(|r| {
            r.figure == figure && r.dataset == dataset && r.panel == panel && r.method == method
        })
        .collect();
    assert!(!found.is_empty(), "no {figure}({panel}) rows for {method}");
    found
}

/// The filter's counters (lists, postings, candidates) along a series.
fn filter_counters(series: &[&Row]) -> Vec<[usize; 3]> {
    series
        .iter()
        .map(|r| {
            [
                r.stats.lists_probed,
                r.stats.postings_scanned,
                r.stats.candidates,
            ]
        })
        .collect()
}

fn non_increasing(v: &[usize]) -> bool {
    v.windows(2).all(|w| w[1] <= w[0])
}

/// Every counter non-increasing along the sweep, and postings and
/// candidates strictly lower at its end than at its start.
fn assert_falling(series: &[&Row], what: &str) {
    let c = filter_counters(series);
    for k in 0..3 {
        let column: Vec<usize> = c.iter().map(|r| r[k]).collect();
        assert!(non_increasing(&column), "{what}: counter {k} rises: {c:?}");
    }
    let (first, last) = (c[0], c[c.len() - 1]);
    assert!(
        last[1] < first[1] && last[2] < first[2],
        "{what}: flat: {c:?}"
    );
}

/// Flat JSON object → (key, raw value) pairs. Method names carry no
/// `,` or `:`, so a split is exact for `Row::to_json`'s output.
fn fields(line: &str) -> Vec<(&str, &str)> {
    let body = line.trim().trim_start_matches('{').trim_end_matches('}');
    body.split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').expect("key:value");
            (k.trim_matches('"'), v)
        })
        .collect()
}

#[test]
fn rows_match_the_recorded_reproduction() {
    let recorded: Vec<&str> = RECORDED.lines().collect();
    assert_eq!(recorded.len(), rows().len(), "row count");
    for (line, row) in recorded.iter().zip(rows()) {
        let got = row.to_json();
        let (want, got) = (fields(line), fields(&got));
        assert_eq!(want.len(), got.len(), "{line}");
        for ((wk, wv), (gk, gv)) in want.iter().zip(&got) {
            assert_eq!(wk, gk, "{line}");
            if *wk != "ms" {
                assert_eq!(wv, gv, "field {wk} of recorded row {line}");
            }
        }
    }
}

/// Fig 12: TokenFilter does not look at τ_R and prunes harder as τ_T
/// rises; GridFilter prunes harder as τ_R rises.
#[test]
fn fig12_token_tracks_tau_t_and_grid_tracks_tau_r() {
    for (sweep_r, sweep_t) in [("a", "b"), ("c", "d")] {
        let token = filter_counters(&series("fig12", "twitter-like", sweep_r, "Token"));
        assert!(token.windows(2).all(|w| w[0] == w[1]), "{token:?}");
        assert_falling(
            &series("fig12", "twitter-like", sweep_t, "Token"),
            "Token over τ_T",
        );
        for side in [256, 512, 1024] {
            let grid = series("fig12", "twitter-like", sweep_r, &format!("Grid({side})"));
            assert_falling(&grid, &format!("Grid({side}) over τ_R"));
        }
    }
}

/// Fig 13: doubling the granularity never adds candidates and never
/// removes probed lists, and the §4.3 estimate's cheapest granularity
/// is within one doubling of the counted cheapest.
#[test]
fn fig13_granularity_trades_lists_for_candidates_and_the_estimate_finds_the_optimum() {
    let model = CostModel::default();
    for panel in ["a", "b"] {
        let filter = series("fig13", "twitter-like", panel, "Grid filter");
        let verify = series("fig13", "twitter-like", panel, "Grid verify");
        let estimate = series("fig13", "twitter-like", panel, "Grid estimate");
        let lists: Vec<usize> = filter.iter().map(|r| r.stats.lists_probed).collect();
        assert!(lists.windows(2).all(|w| w[0] <= w[1]), "{panel}: {lists:?}");
        let cands: Vec<usize> = verify.iter().map(|r| r.stats.candidates).collect();
        assert!(non_increasing(&cands), "{panel}: {cands:?}");

        let cost = |postings: usize, candidates: usize| {
            model.pi1 * postings as f64 + model.pi2 * candidates as f64
        };
        let argmin = |costs: Vec<f64>| {
            (0..costs.len())
                .min_by(|&a, &b| costs[a].total_cmp(&costs[b]))
                .expect("a non-empty sweep")
        };
        let counted = argmin(
            filter
                .iter()
                .zip(&verify)
                .map(|(f, v)| cost(f.stats.postings_scanned, v.stats.candidates))
                .collect(),
        );
        let estimated = argmin(
            estimate
                .iter()
                .map(|e| cost(e.stats.postings_scanned, e.stats.candidates))
                .collect(),
        );
        assert_eq!(filter[counted].x, verify[counted].x);
        assert!(
            counted.abs_diff(estimated) <= 1,
            "{panel}: counted optimum {} vs estimated {}",
            filter[counted].x,
            estimate[estimated].x
        );
    }
}

/// Fig 14: hybrid (token, cell) elements never admit more candidates
/// than the grid alone at the same granularity.
#[test]
fn fig14_hash_hybrid_never_admits_more_than_grid() {
    for panel in ["a", "b", "c", "d"] {
        for side in [256, 512, 1024] {
            let grid = series("fig14", "twitter-like", panel, &format!("Grid({side})"));
            let hash = series(
                "fig14",
                "twitter-like",
                panel,
                &format!("HashHybrid({side})"),
            );
            for (g, h) in grid.iter().zip(&hash) {
                assert_eq!(g.x, h.x);
                assert!(
                    h.stats.candidates <= g.stats.candidates,
                    "{panel} side {side} τ {}: hash {} > grid {}",
                    g.x,
                    h.stats.candidates,
                    g.stats.candidates
                );
            }
        }
    }
}

/// Fig 15: a larger per-token budget `m_t` never adds candidates.
#[test]
fn fig15_hierarchical_candidates_never_rise_with_the_budget() {
    for panel in ["a", "b"] {
        let hier = series("fig15", "twitter-like", panel, "Hierarchical");
        assert!(hier.windows(2).all(|w| w[0].x < w[1].x));
        let cands: Vec<usize> = hier.iter().map(|r| r.stats.candidates).collect();
        assert!(non_increasing(&cands), "{panel}: {cands:?}");
    }
}

/// Figs 16/17: Seal retrieves no more postings than any baseline, at
/// every τ of every panel, on both datasets.
#[test]
fn fig16_17_seal_scans_fewest_postings() {
    for (figure, dataset) in [("fig16", "twitter-like"), ("fig17", "usa-like")] {
        for panel in ["a", "b", "c", "d"] {
            let seal = series(figure, dataset, panel, "Seal");
            for baseline in ["Keyword-first", "Spatial-first", "IR-tree"] {
                let other = series(figure, dataset, panel, baseline);
                for (s, o) in seal.iter().zip(&other) {
                    assert!(
                        s.stats.postings_scanned <= o.stats.postings_scanned,
                        "{figure}({panel}) τ {}: Seal {} > {baseline} {}",
                        s.x,
                        s.stats.postings_scanned,
                        o.stats.postings_scanned
                    );
                }
            }
        }
    }
}

/// Fig 18: each counter's elasticity in the corpus size — the slope of
/// its least-squares log-log fit over the five steps — is at most 1.
#[test]
fn fig18_counters_grow_at_most_linearly() {
    for panel in ["a", "b"] {
        for tau in [0.1, 0.3, 0.5] {
            let steps: Vec<&Row> = series("fig18", "twitter-like", panel, "Seal")
                .into_iter()
                .filter(|r| (if panel == "a" { r.tau_r } else { r.tau_t }) == tau)
                .collect();
            assert_eq!(steps.len(), 5, "{panel} τ {tau}");
            let counters = filter_counters(&steps);
            for k in 0..3 {
                let xy: Vec<(f64, f64)> = steps
                    .iter()
                    .zip(&counters)
                    .map(|(r, c)| {
                        assert!(c[k] > 0, "{panel} τ {tau}: counter {k} is 0 at {}", r.x);
                        (r.x.ln(), (c[k] as f64).ln())
                    })
                    .collect();
                let n = xy.len() as f64;
                let mx = xy.iter().map(|p| p.0).sum::<f64>() / n;
                let my = xy.iter().map(|p| p.1).sum::<f64>() / n;
                let cov: f64 = xy.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
                let var: f64 = xy.iter().map(|p| (p.0 - mx).powi(2)).sum();
                let slope = cov / var;
                assert!(
                    slope <= 1.0,
                    "{panel} τ {tau} counter {k}: slope {slope:.2}"
                );
            }
        }
    }
}

/// Table 1: HashInv > HierarchicalInv > TokenInv > GridInv in bytes.
/// (HashInv > HierarchicalInv holds on the Twitter-like corpus only —
/// a finding on USA-like; IR-tree's "≫" is a finding on both.)
#[test]
fn table1_index_size_ordering() {
    for dataset in ["twitter-like", "usa-like"] {
        let bytes = |method: &str| series("table1", dataset, "", method)[0].index_bytes;
        let (hier, token, grid) = (
            bytes("HierarchicalInv"),
            bytes("TokenInv"),
            bytes("GridInv(1024)"),
        );
        assert!(
            hier > token && token > grid,
            "{dataset}: {hier} {token} {grid}"
        );
        if dataset == "twitter-like" {
            assert!(bytes("HashInv(1024)") > hier, "{dataset}");
        }
    }
}
