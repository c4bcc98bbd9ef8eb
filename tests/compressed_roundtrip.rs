//! Integration net for the compressed serving mode: the
//! finalize → serialize → load → qualifying pipeline must agree with
//! the uncompressed index (superset at the probe level, exact equality
//! after verification), stay correct under heavy thread interleaving,
//! and keep the warm probe path allocation-free.

use seal_core::{FilterKind, QueryContext, SealEngine};
use seal_index::{CompressedInvertedIndex, IndexCodecError, InvertedIndex};
use seal_text::TokenWeights;
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::twitter_fixture;

const THREADS: usize = 64;

/// One quantization step for a group whose maximum bound is `max`.
fn quant_step(max: f64) -> f64 {
    max / 65535.0 + 1e-9
}

#[test]
fn serialize_load_qualifying_matches_uncompressed() {
    // Build a realistic token index off a generated store, round-trip
    // it through the compressed codec, and check every key at several
    // thresholds: nothing the uncompressed index returns may be lost,
    // and nothing outside one quantization step may be admitted.
    let (store, _) = twitter_fixture(2_000, 1);
    let mut idx: InvertedIndex<u32> = InvertedIndex::new();
    for (id, o) in store.iter() {
        for t in o.tokens.iter() {
            idx.push(t.0, id.0, store.weights().weight(t) * 3.0);
        }
    }
    idx.finalize();

    let compressed = CompressedInvertedIndex::compress(&idx);
    let loaded: CompressedInvertedIndex<u32> =
        CompressedInvertedIndex::from_bytes(compressed.to_bytes()).expect("codec round-trip");
    assert_eq!(loaded.key_count(), idx.key_count());
    assert_eq!(loaded.posting_count(), idx.posting_count());

    let mut scratch = Vec::new();
    for (key, group) in idx.iter() {
        let max = group.bounds[0].iter().copied().fold(0.0f64, f64::max);
        for thr in [0.0, max * 0.3, max * 0.7, max, max * 1.5] {
            let exact: std::collections::BTreeSet<u32> =
                idx.qualifying(&key, thr).iter().copied().collect();
            let got: std::collections::BTreeSet<u32> = loaded
                .qualifying_into(&key, thr, &mut scratch)
                .iter()
                .copied()
                .collect();
            assert!(exact.is_subset(&got), "key {key} thr {thr}: lost postings");
            let relaxed: std::collections::BTreeSet<u32> = idx
                .qualifying(&key, thr - quant_step(max))
                .iter()
                .copied()
                .collect();
            assert!(
                got.is_subset(&relaxed),
                "key {key} thr {thr}: admitted beyond one quantization step"
            );
        }
    }
}

#[test]
fn compressed_engines_answer_exactly_like_uncompressed() {
    // Filter-level supersets may differ by quantization, but verified
    // answers must be identical query-for-query.
    let (store, queries) = twitter_fixture(3_000, 20);
    let store = Arc::new(store);
    for (arena, compressed) in [
        (FilterKind::Token, FilterKind::TokenCompressed),
        (
            FilterKind::HashHybrid {
                side: 32,
                buckets: Some(1 << 12),
            },
            FilterKind::HashHybridCompressed {
                side: 32,
                buckets: Some(1 << 12),
            },
        ),
    ] {
        let exact = SealEngine::build(store.clone(), arena);
        let served = SealEngine::build(store.clone(), compressed);
        let mut ctx = QueryContext::with_capacity(store.len());
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                served.search_with_ctx(q, &mut ctx).sorted().answers,
                exact.search(q).sorted().answers,
                "{} diverged from {} on query {i}",
                served.filter_name(),
                exact.filter_name(),
            );
        }
    }
}

#[test]
fn sixty_four_thread_batch_over_compressed_arenas() {
    // Mirror of tests/concurrent_batch.rs for the compressed serving
    // mode: each worker decodes qualifying prefixes into its own
    // context scratch, so interleaved reuse must never corrupt results.
    let (store, queries) = twitter_fixture(5_000, 36);
    assert!(queries.len() >= THREADS);
    let store = Arc::new(store);
    for kind in [
        FilterKind::TokenCompressed,
        FilterKind::HashHybridCompressed {
            side: 64,
            buckets: Some(1 << 12),
        },
        FilterKind::HashHybridCompressed {
            side: 32,
            buckets: None,
        },
    ] {
        let engine = SealEngine::build(store.clone(), kind);
        let mut ctx = QueryContext::new();
        let sequential: Vec<Vec<_>> = queries
            .iter()
            .map(|q| engine.search_with_ctx(q, &mut ctx).sorted().answers)
            .collect();
        let parallel: Vec<Vec<_>> = engine
            .search_batch(&queries, THREADS)
            .into_iter()
            .map(|r| r.sorted().answers)
            .collect();
        assert_eq!(
            parallel, sequential,
            "{kind:?}: {THREADS}-thread batch diverged from sequential"
        );
    }
}

#[test]
fn warm_compressed_probes_do_not_grow_the_decode_scratch() {
    // The acceptance check for in-place serving: after one warm pass,
    // further probes reuse the context's decode buffers without any
    // reallocation (capacities frozen).
    let (store, queries) = twitter_fixture(3_000, 16);
    let store = Arc::new(store);
    let token = SealEngine::build(store.clone(), FilterKind::TokenCompressed);
    let hybrid = SealEngine::build(
        store.clone(),
        FilterKind::HashHybridCompressed {
            side: 32,
            buckets: Some(1 << 12),
        },
    );
    let mut ctx = QueryContext::with_capacity(store.len());
    for q in &queries {
        let _ = token.search_with_ctx(q, &mut ctx);
        let _ = hybrid.search_with_ctx(q, &mut ctx);
    }
    let warm = ctx.decode_capacity();
    assert!(
        warm > 0,
        "workload must actually exercise the id-decode buffer, got {warm}"
    );
    for _ in 0..3 {
        for q in &queries {
            let _ = token.search_with_ctx(q, &mut ctx);
            let _ = hybrid.search_with_ctx(q, &mut ctx);
        }
        assert_eq!(
            ctx.decode_capacity(),
            warm,
            "warm serving must not reallocate the decode scratch"
        );
    }
}

#[test]
fn block_packed_truncations_and_bad_widths_error() {
    // Single key, 401 consecutive ids: three full 128-id blocks plus a
    // delta-varint tail, bounds strictly descending.
    let mut idx: InvertedIndex<u32> = InvertedIndex::new();
    let n = 401u32;
    for id in 0..n {
        idx.push(7u32, id, f64::from(n - id));
    }
    idx.finalize();
    let packed = CompressedInvertedIndex::compress(&idx);
    let bytes = packed.to_bytes();
    assert_eq!(bytes[5], 7, "compressed single-bound arenas are kind 7");

    // The varint-id kinds 3/4 of earlier revisions (and every other
    // kind byte) are refused with a typed error.
    for kind in (0u8..=9).filter(|&k| k != 7) {
        let mut mutated = bytes.to_vec();
        mutated[5] = kind;
        assert_eq!(
            CompressedInvertedIndex::<u32>::from_bytes(&mutated[..]).unwrap_err(),
            IndexCodecError::BadKind(kind)
        );
    }

    // Every truncation point — in particular every block boundary
    // inside the id column — must be a typed error, never a panic.
    for cut in 0..bytes.len() {
        assert!(
            CompressedInvertedIndex::<u32>::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes was accepted"
        );
    }
    assert!(CompressedInvertedIndex::<u32>::from_bytes(&bytes).is_ok());

    // The arena is serialized last, so the id column starts at
    // `len - id_column_bytes()`: the first block's width byte.
    let width_at = bytes.len() - packed.id_column_bytes();
    assert_eq!(bytes[width_at], 2, "consecutive ids pack at width 2");
    for bad in [0u8, 65, 255] {
        let mut mutated = bytes.to_vec();
        mutated[width_at] = bad;
        assert!(
            CompressedInvertedIndex::<u32>::from_bytes(&mutated[..]).is_err(),
            "block width {bad} was accepted"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn random_indexes_roundtrip_and_serve_supersets(
            entries in proptest::collection::vec(
                (0u32..24, 0u32..100_000, 0.0f64..1e4), 1..400),
            thr in 0.0f64..1e4,
        ) {
            let mut idx: InvertedIndex<u32> = InvertedIndex::new();
            let mut seen = std::collections::HashSet::new();
            for (k, id, b) in entries {
                if seen.insert((k, id)) {
                    idx.push(k, id, b);
                }
            }
            idx.finalize();
            let compressed = CompressedInvertedIndex::compress(&idx);
            let loaded: CompressedInvertedIndex<u32> =
                CompressedInvertedIndex::from_bytes(compressed.to_bytes()).unwrap();
            prop_assert_eq!(loaded.posting_count(), idx.posting_count());
            let mut scratch = Vec::new();
            for key in 0u32..24 {
                let exact: std::collections::BTreeSet<u32> =
                    idx.qualifying(&key, thr).iter().copied().collect();
                let got: std::collections::BTreeSet<u32> = loaded
                    .qualifying_into(&key, thr, &mut scratch)
                    .iter()
                    .copied()
                    .collect();
                prop_assert!(exact.is_subset(&got));
                // And the loaded index serves identically to the
                // in-memory compressed one.
                let mut scratch2 = Vec::new();
                let mut scratch3 = Vec::new();
                prop_assert_eq!(
                    loaded.qualifying_into(&key, thr, &mut scratch2),
                    compressed.qualifying_into(&key, thr, &mut scratch3)
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn block_packed_roundtrip_matches_decompressed_reference(
            entries in proptest::collection::vec(
                (0u32..4, 0u32..100_000, 0.0f64..1e4), 1..1200),
            thr in 0.0f64..1e4,
        ) {
            // Dense enough per key (~hundreds of postings over 4 keys)
            // that full 128-id blocks, partial tails and single-id
            // groups all occur; the arena must round-trip through its
            // bytes, and the probe's minimal block decode must select
            // exactly the postings the full validating decode
            // (`decompress`) puts at or above the threshold.
            let mut idx: InvertedIndex<u32> = InvertedIndex::new();
            let mut seen = std::collections::HashSet::new();
            for (k, id, b) in entries {
                if seen.insert((k, id)) {
                    idx.push(k, id, b);
                }
            }
            idx.finalize();
            let packed = CompressedInvertedIndex::compress(&idx);
            let reference = packed.decompress();
            let loaded: CompressedInvertedIndex<u32> =
                CompressedInvertedIndex::from_bytes(packed.to_bytes()).unwrap();
            prop_assert_eq!(loaded.posting_count(), idx.posting_count());
            let mut sp = Vec::new();
            let mut sl = Vec::new();
            for key in 0u32..4 {
                for c in [0.0, thr * 0.4, thr, 1e9] {
                    let mut expect = reference.qualifying(&key, c).to_vec();
                    expect.sort_unstable();
                    let served = packed.qualifying_into(&key, c, &mut sp);
                    prop_assert_eq!(loaded.qualifying_into(&key, c, &mut sl), served);
                    let mut served = served.to_vec();
                    served.sort_unstable();
                    prop_assert_eq!(served, expect);
                }
            }
        }
    }
}
