//! Sharded serving (`ShardedEngine`): the exactness contract.
//!
//! Sharding moves work around; it must never move answers. For any
//! push/query/refresh interleaving and any shard count:
//!
//! 1. **Staged overlay ≡ single engine.** Between refreshes the
//!    sharded engine answers exactly like one `LiveEngine` fed the
//!    same push sequence — both serve the frozen-weight generation
//!    plus delta overlay, just in different places.
//! 2. **Refresh ≡ fresh build.** After every refresh the sharded
//!    engine answers exactly like a from-scratch `SealEngine::build`
//!    over the union corpus, which in turn matches the naive oracle.
//! 3. **Top-k bit-identity.** Ranked results — scores, order and
//!    id tie-breaks included — equal the single engine's.

use proptest::prelude::*;
use seal_core::{verify::naive_search, BuildOpts};
use seal_core::{
    FilterKind, LiveEngine, ObjectId, ObjectStore, Query, QueryEngine, RoiObject, SealEngine,
    ShardedEngine, SimilarityConfig,
};
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::{materialize, obj_strategy, workload, VOCAB};

/// A cross-section of filter kinds: the sharded layer is
/// filter-agnostic, so a plain arena, a hierarchical scheme and a
/// hashed hybrid cover the interesting per-shard index paths without
/// re-running the whole `live_ingest` matrix.
fn kinds() -> Vec<FilterKind> {
    let mut kinds = util::kinds(8, &[Some(64)], 4, 8);
    kinds.retain(|k| {
        matches!(
            k,
            FilterKind::Token | FilterKind::Hierarchical { .. } | FilterKind::HashHybrid { .. }
        )
    });
    kinds
}

/// Post-refresh contract: sharded answers equal a fresh build over the
/// union, and both equal the oracle (so the equality is not a shared
/// bug).
fn assert_matches_fresh(
    sharded: &ShardedEngine,
    union: &[RoiObject],
    queries: &[Query],
    kind: FilterKind,
    n: usize,
) {
    let fresh_store = Arc::new(ObjectStore::from_objects(union.to_vec(), VOCAB));
    let fresh = SealEngine::build(fresh_store.clone(), kind);
    let cfg = SimilarityConfig;
    for (qi, q) in queries.iter().enumerate() {
        let got = sharded.search(q).sorted().answers;
        let expect = fresh.search(q).sorted().answers;
        assert_eq!(
            got, expect,
            "{kind:?} n={n} query {qi} diverged from the fresh union build"
        );
        let mut oracle = naive_search(&fresh_store, &cfg, q);
        oracle.sort_unstable();
        assert_eq!(got, oracle, "{kind:?} n={n} query {qi} oracle");
        // Ranked retrieval, ties included: `(id, score)` pairs must be
        // bit-identical, which exercises the deterministic id
        // tie-break across the shard merge.
        for k in [1usize, 3, 100] {
            for alpha in [0.0, 0.5, 1.0] {
                assert_eq!(
                    sharded.search_top_k(q.region, q.tokens.clone(), k, alpha),
                    fresh.search_top_k(q.region, q.tokens.clone(), k, alpha),
                    "{kind:?} n={n} query {qi} top-{k} alpha {alpha}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any push/query/refresh interleaving at N ∈ {1, 2, 3, 4, 8}: the
    /// staged overlay matches a single `LiveEngine` mirror at every
    /// step, each refresh matches a fresh union build and the oracle.
    #[test]
    fn sharded_interleavings_match_single_engine_oracles(
        raw in proptest::collection::vec(obj_strategy(), 6..32),
        initial_frac in 1usize..5,
        cuts in proptest::collection::vec(0usize..32, 0..3),
    ) {
        let objects: Vec<RoiObject> = raw.iter().map(materialize).collect();
        let initial = (objects.len() * initial_frac / 5).max(1).min(objects.len());
        let queries = workload();
        for kind in kinds() {
            for n in [1usize, 2, 3, 4, 8] {
                let store0 = Arc::new(ObjectStore::from_objects(objects[..initial].to_vec(), VOCAB));
                let sharded = ShardedEngine::with_opts(
                    &store0,
                    kind,
                    SimilarityConfig,
                    BuildOpts::default(),
                    n,
                    None,
                );
                let mirror = LiveEngine::new(store0, kind);
                for (i, o) in objects[initial..].iter().enumerate() {
                    let id = QueryEngine::push(&sharded, o.clone());
                    prop_assert_eq!(
                        id,
                        ObjectId((initial + i) as u32),
                        "{:?} n={}: global ids follow push order", kind, n
                    );
                    mirror.push(o.clone());
                    for (qi, q) in queries.iter().enumerate() {
                        prop_assert_eq!(
                            sharded.search(q).sorted().answers,
                            mirror.search(q).sorted().answers,
                            "{:?} n={} query {} staged overlay diverged", kind, n, qi
                        );
                    }
                    if cuts.contains(&i) {
                        ShardedEngine::refresh(&sharded);
                        mirror.refresh();
                        assert_matches_fresh(&sharded, &objects[..initial + i + 1], &queries, kind, n);
                    }
                }
                ShardedEngine::refresh(&sharded);
                assert_matches_fresh(&sharded, &objects, &queries, kind, n);
                prop_assert_eq!(sharded.len(), objects.len());
                prop_assert_eq!(QueryEngine::staged_len(&sharded), 0);
                prop_assert_eq!(sharded.shard_count(), n);
            }
        }
    }
}
