//! Integration: the Seal probe's two structural contracts.
//!
//! * **Slots.** A `HierarchicalFilter` reads its lists by pre-resolved
//!   slot, so on every construction path — fresh build, `.seal` load,
//!   `extend_from` refresh, per-shard builds — each key of the index
//!   must be reached by exactly one scheme entry, and reading by slot
//!   must return the list a key search returns.
//! * **Cost counters.** The probe's machine-independent work
//!   (`lists_probed`, `postings_scanned`, `candidates`, `results`) and
//!   the order candidates come out in are pinned over a seeded query
//!   set to the values the quad-descent / key-search probe produced:
//!   a faster probe must do the same work, not different work.

use seal_core::filters::HierarchicalFilter;
use seal_core::signatures::hierarchical::HierarchicalScheme;
use seal_core::{FilterKind, LiveEngine, QueryContext, SealEngine, SearchStats, ShardedEngine};
use seal_index::container::crc32;
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::twitter_fixture;

const SEAL: FilterKind = FilterKind::Hierarchical {
    max_level: 8,
    budget: 16,
};

fn seal_filter(engine: &SealEngine) -> &HierarchicalFilter {
    engine
        .filter()
        .as_any()
        .and_then(|a| a.downcast_ref::<HierarchicalFilter>())
        .expect("a Hierarchical engine serves a HierarchicalFilter")
}

/// Every index key is bound by exactly one `(token, cell)` entry, every
/// bound slot is the key's own, and the by-slot list is the by-key list.
fn assert_slots_cover_the_index(engine: &SealEngine, what: &str) {
    let filter = seal_filter(engine);
    let (scheme, index) = (filter.scheme(), filter.index());
    let mut bound = vec![0usize; index.key_count()];
    for t in scheme.tokens() {
        for (cell, slot) in scheme.token_cells(t) {
            let key = HierarchicalScheme::key(t, cell);
            assert_eq!(slot, index.slot(&key), "{what}: token {t:?} {cell:?}");
            if let Some(slot) = slot {
                bound[slot] += 1;
                let (at, by_key) = (index.list_at(slot), index.list(&key).unwrap());
                assert_eq!(at.ids, by_key.ids, "{what}: slot {slot}");
                assert_eq!(at.bounds, by_key.bounds, "{what}: slot {slot}");
            }
        }
    }
    assert!(index.key_count() > 0, "{what}: empty index");
    assert!(
        bound.iter().all(|&n| n == 1),
        "{what}: {} of {} keys not bound exactly once",
        bound.iter().filter(|&&n| n != 1).count(),
        bound.len()
    );
}

#[test]
fn slots_cover_the_index_on_every_construction_path() {
    let (all, _) = twitter_fixture(1_200, 1);
    let vocab = all.vocab_size();
    // Generation 0 plus the later objects that keep its space MBR (a
    // delta outside it forces a fresh build instead of a reuse).
    let gen0 = seal_core::ObjectStore::from_objects(all.objects()[..900].to_vec(), vocab);
    let delta: Vec<_> = all.objects()[900..]
        .iter()
        .filter(|o| gen0.space().contains_rect(&o.region))
        .cloned()
        .collect();
    assert!(
        delta.len() > 100,
        "fixture delta too small: {}",
        delta.len()
    );
    let store = Arc::new(gen0.extended(&delta));

    let fresh = SealEngine::build(store.clone(), SEAL);
    assert_slots_cover_the_index(&fresh, "fresh");

    let bytes = fresh.to_container_bytes().expect("serialize");
    let loaded = SealEngine::load_from_bytes(&bytes, 1).expect("load");
    assert_slots_cover_the_index(&loaded, "loaded");

    // A refreshed generation: the untouched tokens' runs are copied
    // from the previous scheme and rebound to the new arena.
    let live = LiveEngine::new(Arc::new(gen0), SEAL);
    live.push_all(delta);
    assert!(live.refresh().scheme_reused);
    assert_slots_cover_the_index(&live.engine(), "refreshed");
    assert_eq!(
        seal_filter(&live.engine()).scheme().selected_cells_sorted(),
        seal_filter(&fresh).scheme().selected_cells_sorted(),
    );

    let sharded = ShardedEngine::build(&store, SEAL, 4);
    for (i, shard) in sharded.shard_engines().iter().enumerate() {
        assert_slots_cover_the_index(shard, &format!("shard {i} of 4"));
    }
}

/// Totals over the query set plus a digest of every candidate id in
/// the order the filter produced it.
#[derive(Debug, PartialEq, Eq)]
struct ProbeWork {
    lists_probed: usize,
    postings_scanned: usize,
    candidates: usize,
    results: usize,
    candidate_order_crc: u32,
}

fn probe_work(engine: &SealEngine, queries: &[seal_core::Query]) -> ProbeWork {
    let mut ctx = QueryContext::new();
    let mut total = SearchStats::new();
    let mut order = Vec::new();
    for q in queries {
        let found = engine.search_with_ctx(q, &mut ctx);
        total.lists_probed += found.stats.lists_probed;
        total.postings_scanned += found.stats.postings_scanned;
        total.candidates += found.stats.candidates;
        total.results += found.stats.results;
        for id in ctx.candidates() {
            order.extend_from_slice(&id.0.to_le_bytes());
        }
        order.extend_from_slice(&u32::MAX.to_le_bytes()); // query separator
    }
    ProbeWork {
        lists_probed: total.lists_probed,
        postings_scanned: total.postings_scanned,
        candidates: total.candidates,
        results: total.results,
        candidate_order_crc: crc32(&order),
    }
}

#[test]
fn probe_work_matches_recorded_counters() {
    // Recorded at the parent of the flat-scheme change (HashMap +
    // quad-descent signatures, `keys.binary_search` per list).
    let recorded = ProbeWork {
        lists_probed: 1_181,
        postings_scanned: 6_200,
        candidates: 5_340,
        results: 87,
        candidate_order_crc: 0xcca6_6058,
    };
    let (store, queries) = twitter_fixture(3_000, 150);
    let engine = SealEngine::build(Arc::new(store), SEAL);
    assert_eq!(probe_work(&engine, &queries), recorded);
    let bytes = engine.to_container_bytes().expect("serialize");
    let loaded = SealEngine::load_from_bytes(&bytes, 1).expect("load");
    assert_eq!(probe_work(&loaded, &queries), recorded, "loaded engine");
}
