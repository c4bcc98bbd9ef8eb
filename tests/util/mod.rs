//! Shared fixtures for the workspace integration tests: realistic
//! synthetic stores + query workloads with mixed thresholds.

// The module is compiled once per test binary; not every binary uses
// every fixture.
#![allow(dead_code)]

use seal_core::filters::Storage;
use seal_core::{FilterKind, ObjectStore, Query, RoiObject};
use seal_datagen::{
    generate_queries, twitter_like, usa_like, QueryParams, QuerySpec, TwitterParams, UsaParams,
};
use seal_text::TokenSet;

/// Every engine configuration as the product of two lists — the
/// schemes and the storage forms their posting lists can be served
/// from — in scheme-major order (the hash-hybrid scheme once per entry
/// of `buckets` in each of its forms). A scheme has a [`FilterKind`]
/// per form it supports; most support the arena only.
pub fn kinds(side: u32, buckets: &[Option<u64>], max_level: u8, budget: usize) -> Vec<FilterKind> {
    use FilterKind::*;
    let schemes = [
        Token,
        Grid { side },
        HashHybrid {
            side,
            buckets: None,
        },
        Hierarchical { max_level, budget },
    ];
    let mut kinds = Vec::new();
    for scheme in schemes {
        for storage in [Storage::Arena, Storage::Compressed] {
            match (scheme, storage) {
                (HashHybrid { side, .. }, Storage::Arena) => {
                    kinds.extend(buckets.iter().map(|&buckets| HashHybrid { side, buckets }))
                }
                (HashHybrid { side, .. }, Storage::Compressed) => kinds.extend(
                    buckets
                        .iter()
                        .map(|&buckets| HashHybridCompressed { side, buckets }),
                ),
                (Token, Storage::Compressed) => kinds.push(TokenCompressed),
                (scheme, Storage::Arena) => kinds.push(scheme),
                (_, Storage::Compressed) => {} // no compressed form
            }
        }
    }
    kinds
}

/// A Twitter-like store plus a mixed-threshold query workload.
pub fn twitter_fixture(objects: usize, queries_per_spec: usize) -> (ObjectStore, Vec<Query>) {
    let dataset = twitter_like(&TwitterParams {
        count: objects,
        seed: 0xFEED,
        ..TwitterParams::default()
    });
    let store = to_store(&dataset);
    let qs = build_queries(&dataset, queries_per_spec, 0xBEE);
    (store, qs)
}

/// A USA-like store plus a mixed-threshold query workload.
pub fn usa_fixture(objects: usize, queries_per_spec: usize) -> (ObjectStore, Vec<Query>) {
    let dataset = usa_like(&UsaParams {
        count: objects,
        seed: 0xFACE,
        ..UsaParams::default()
    });
    let store = to_store(&dataset);
    let qs = build_queries(&dataset, queries_per_spec, 0xCAB);
    (store, qs)
}

fn to_store(dataset: &seal_datagen::Dataset) -> ObjectStore {
    let objects: Vec<RoiObject> = dataset
        .objects
        .iter()
        .map(|o| RoiObject::new(o.region, TokenSet::from_ids(o.tokens.iter().copied())))
        .collect();
    ObjectStore::from_objects(objects, dataset.vocab_size)
}

fn build_queries(dataset: &seal_datagen::Dataset, per_spec: usize, seed: u64) -> Vec<Query> {
    let mut out = Vec::new();
    for (i, spec) in [QuerySpec::LargeRegion, QuerySpec::SmallRegion]
        .into_iter()
        .enumerate()
    {
        let raw = generate_queries(
            dataset,
            &QueryParams {
                spec,
                count: per_spec,
                seed: seed + i as u64,
            },
        );
        // Rotate through threshold combinations so the suite exercises
        // loose, default and tight settings.
        let thresholds = [(0.1, 0.1), (0.1, 0.4), (0.4, 0.1), (0.4, 0.4), (0.5, 0.5)];
        for (j, r) in raw.into_iter().enumerate() {
            let (tr, tt) = thresholds[j % thresholds.len()];
            out.push(
                Query::with_token_ids(r.region, r.tokens.iter().copied(), tr, tt)
                    .expect("valid thresholds"),
            );
        }
    }
    out
}
