//! Cost-based adaptive filtering.
//!
//! Figure 12's conclusion — "it is better to combine both filters
//! instead of using either one individually" — motivates the hybrid
//! signatures of Section 5, but it also admits a lighter-weight
//! engineering answer: keep the cheap single-signature indexes and
//! *route each query* to whichever filter the Section 4.3 cost model
//! predicts to be cheaper. This filter does exactly that:
//!
//! * it estimates the token route's cost as the number of postings the
//!   query's textual prefix would retrieve (`Σ |I_cT(t)|`), and the
//!   grid route's cost likewise over the spatial prefix;
//! * it runs the cheaper route (both estimates are exact — they come
//!   from the same `partition_point` cuts the filters themselves use,
//!   so "estimation" costs a few binary searches per query).
//!
//! The candidate set is whichever single filter ran, so the superset
//! guarantee is inherited unchanged. Tests assert the router never does
//! worse than the *sum* of a fixed choice's postings across a workload
//! and stays oracle-correct.

use crate::filters::{CandidateFilter, GridFilter, QueryContext, Storage, TokenFilter};
use crate::signatures::grid::GridScheme;
use crate::{ObjectStore, Query, SearchStats};
use std::sync::Arc;

/// Which route the adaptive filter picked for a query (exposed for
/// diagnostics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Textual prefix probing (TokenFilter).
    Token,
    /// Spatial prefix probing (GridFilter).
    Grid,
}

/// A per-query cost-routed combination of [`TokenFilter`] and
/// [`GridFilter`].
pub struct AdaptiveFilter {
    store: Arc<ObjectStore>,
    cfg: crate::SimilarityConfig,
    token: TokenFilter,
    grid: GridFilter,
}

impl AdaptiveFilter {
    /// Builds both underlying indexes (token lists + grid lists at the
    /// given granularity).
    pub fn build(store: Arc<ObjectStore>, side: u32) -> Self {
        Self::build_with_config(store, side, crate::SimilarityConfig::default())
    }

    /// Builds with an explicit similarity configuration.
    pub fn build_with_config(
        store: Arc<ObjectStore>,
        side: u32,
        cfg: crate::SimilarityConfig,
    ) -> Self {
        Self::build_with_opts(store, side, cfg, crate::BuildOpts::default())
    }

    /// Builds with explicit build options, forwarded to both
    /// underlying index builds.
    pub fn build_with_opts(
        store: Arc<ObjectStore>,
        side: u32,
        cfg: crate::SimilarityConfig,
        opts: crate::BuildOpts,
    ) -> Self {
        let token = TokenFilter::build_with_opts(store.clone(), cfg, opts, Storage::Arena);
        let grid = GridFilter::build_with_opts(store.clone(), side, cfg, opts);
        AdaptiveFilter {
            store,
            cfg,
            token,
            grid,
        }
    }

    /// Reassembles the router around its two loaded routes.
    pub(crate) fn from_loaded(
        store: Arc<ObjectStore>,
        cfg: crate::SimilarityConfig,
        token: TokenFilter,
        grid: GridFilter,
    ) -> Self {
        AdaptiveFilter {
            store,
            cfg,
            token,
            grid,
        }
    }

    /// The grid scheme used by the spatial route.
    pub fn grid_scheme(&self) -> &GridScheme {
        self.grid.scheme()
    }

    /// Exact posting counts each route would retrieve for this query
    /// (the cost model's `Σ |I_c(s)|` with π1 = 1), and the chosen
    /// route.
    pub fn plan(&self, q: &Query) -> (usize, usize, Route) {
        self.plan_with(q, &mut QueryContext::new())
    }

    /// [`plan`](Self::plan) over the caller's signature scratch.
    fn plan_with(&self, q: &Query, ctx: &mut QueryContext) -> (usize, usize, Route) {
        let w = self.store.weights();
        let c_t = crate::signatures::relax(self.cfg.textual_threshold(q, w));
        ctx.textual.rebuild(&q.tokens, w, self.store.token_order());
        let token_cost: usize = ctx
            .textual
            .prefix(c_t)
            .iter()
            .map(|e| self.token.qualifying_len(e.token.0, c_t))
            .sum();

        let c_r = crate::signatures::relax(self.cfg.spatial_threshold(q));
        self.grid.scheme().signature_into(&q.region, &mut ctx.grid);
        let grid_cost: usize = ctx
            .grid
            .prefix(c_r)
            .iter()
            .map(|e| self.grid.index().qualifying_len(&e.cell, c_r))
            .sum();

        let route = if token_cost <= grid_cost {
            Route::Token
        } else {
            Route::Grid
        };
        (token_cost, grid_cost, route)
    }
}

impl CandidateFilter for AdaptiveFilter {
    fn name(&self) -> &'static str {
        "Adaptive"
    }

    fn candidates_into(&self, q: &Query, ctx: &mut QueryContext, stats: &mut SearchStats) {
        let (_, _, route) = self.plan_with(q, ctx);
        match route {
            Route::Token => self.token.candidates_into(q, ctx, stats),
            Route::Grid => self.grid.candidates_into(q, ctx, stats),
        }
    }

    fn index_bytes(&self) -> usize {
        self.token.index_bytes() + self.grid.index_bytes()
    }

    /// The token route's index as the primary section, the grid
    /// route's as the secondary.
    fn persisted_sections(&self) -> Vec<(u16, Vec<u8>)> {
        let mut sections = self.token.persisted_sections();
        let grid = self.grid.persisted_sections();
        sections.extend(
            grid.into_iter()
                .map(|(_, bytes)| (crate::persist::SECTION_SECONDARY_INDEX, bytes)),
        );
        sections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;
    use crate::verify::{naive_search, verify};
    use crate::SimilarityConfig;

    #[test]
    fn adaptive_is_oracle_correct() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let cfg = SimilarityConfig::default();
        let f = AdaptiveFilter::build(store.clone(), 8);
        for (tr, tt) in [(0.1, 0.1), (0.25, 0.3), (0.5, 0.5), (0.9, 0.9)] {
            let q = q0.with_thresholds(tr, tt).unwrap();
            let mut stats = SearchStats::new();
            let cands = f.candidates(&q, &mut stats);
            let answers = naive_search(&store, &cfg, &q);
            let mut vstats = SearchStats::new();
            assert_eq!(verify(&store, &cfg, &q, &cands, &mut vstats), answers);
        }
    }

    #[test]
    fn plan_costs_match_actual_postings() {
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let f = AdaptiveFilter::build(store.clone(), 8);
        let (token_cost, grid_cost, route) = f.plan(&q);
        // Run both routes explicitly and compare scanned counts.
        let mut ts = SearchStats::new();
        let _ = f.token.candidates(&q, &mut ts);
        assert_eq!(ts.postings_scanned, token_cost);
        let mut gs = SearchStats::new();
        let _ = f.grid.candidates(&q, &mut gs);
        assert_eq!(gs.postings_scanned, grid_cost);
        match route {
            Route::Token => assert!(token_cost <= grid_cost),
            Route::Grid => assert!(grid_cost < token_cost),
        }
    }

    #[test]
    fn routes_follow_thresholds() {
        // Figure 12's finding, reproduced as routing behaviour: a high
        // spatial threshold with a trivial textual threshold should
        // route spatially, and vice versa, whenever the costs differ.
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let f = AdaptiveFilter::build(store.clone(), 16);
        let spatial_heavy = q0.with_thresholds(0.9, 0.05).unwrap();
        let textual_heavy = q0.with_thresholds(0.05, 0.9).unwrap();
        let (tc_s, gc_s, route_s) = f.plan(&spatial_heavy);
        let (tc_t, gc_t, route_t) = f.plan(&textual_heavy);
        // Whatever the absolute costs, the router must pick the min.
        assert_eq!(route_s == Route::Token, tc_s <= gc_s);
        assert_eq!(route_t == Route::Token, tc_t <= gc_t);
    }

    #[test]
    fn adaptive_never_scans_more_than_the_worse_route() {
        let (store, q0) = figure1_store();
        let store = Arc::new(store);
        let f = AdaptiveFilter::build(store.clone(), 8);
        for (tr, tt) in [(0.1, 0.5), (0.5, 0.1), (0.3, 0.3)] {
            let q = q0.with_thresholds(tr, tt).unwrap();
            let (tc, gc, _) = f.plan(&q);
            let mut stats = SearchStats::new();
            let _ = f.candidates(&q, &mut stats);
            assert!(stats.postings_scanned <= tc.max(gc));
            assert_eq!(stats.postings_scanned, tc.min(gc));
        }
    }

    #[test]
    fn accessors() {
        let (store, _q) = figure1_store();
        let f = AdaptiveFilter::build(Arc::new(store), 8);
        assert_eq!(f.name(), "Adaptive");
        assert!(f.index_bytes() > 0);
        assert_eq!(f.grid_scheme().side(), 8);
    }
}
