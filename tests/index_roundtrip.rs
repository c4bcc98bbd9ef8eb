//! Integration: inverted indexes built by the filters survive the
//! binary codec and keep answering identically (the disk-resident
//! deployment path of Section 6.1).

use seal_core::signatures::grid::GridScheme;
use seal_core::signatures::textual::TextualSignature;
use seal_index::{Arena, IndexKey};
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::twitter_fixture;

/// The round trip, once for any key type and number of bounds: the
/// decoded arena has the same keys and postings and answers the
/// spot-checked probes (a sample of keys, `thresholds` on the cut
/// axis, the other thresholds at 0.5) identically.
fn roundtrips_through_bytes<K: IndexKey + std::fmt::Debug, const N: usize>(
    idx: &Arena<K, N>,
    thresholds: &[f64],
) {
    let back: Arena<K, N> = Arena::from_bytes(idx.to_bytes()).unwrap();
    assert_eq!(back.key_count(), idx.key_count());
    assert_eq!(back.posting_count(), idx.posting_count());
    let (mut s1, mut s2) = (Vec::new(), Vec::new());
    for (key, _) in idx.iter().take(50) {
        for &c0 in thresholds {
            let c: [f64; N] = std::array::from_fn(|col| if col == 0 { c0 } else { 0.5 });
            assert_eq!(
                idx.qualifying_into(&key, c, &mut s1),
                back.qualifying_into(&key, c, &mut s2),
                "key {key:?} thresholds {c:?}"
            );
        }
    }
}

#[test]
fn token_index_roundtrips_through_bytes() {
    let (store, _) = twitter_fixture(800, 1);
    let store = Arc::new(store);
    let mut idx: Arena<u32, 1> = Arena::new();
    for (id, o) in store.iter() {
        let sig = TextualSignature::build(&o.tokens, store.weights(), store.token_order());
        for (e, b) in sig.elements_with_bounds() {
            idx.push(e.token.0, id.0, b);
        }
    }
    idx.finalize();
    roundtrips_through_bytes(&idx, &[0.0, 0.5, 2.0, 10.0]);
}

#[test]
fn grid_index_roundtrips_through_bytes() {
    let (store, _) = twitter_fixture(800, 1);
    let store = Arc::new(store);
    let scheme = GridScheme::build(&store, 64);
    let mut idx: Arena<u64, 1> = Arena::new();
    for (id, o) in store.iter() {
        for (e, b) in scheme.signature(&o.region).elements_with_bounds() {
            idx.push(e.cell, id.0, b);
        }
    }
    idx.finalize();
    roundtrips_through_bytes(&idx, &[0.0, 10.0]);
}

#[test]
fn hybrid_index_roundtrips_through_bytes() {
    let (store, _) = twitter_fixture(400, 1);
    let store = Arc::new(store);
    let scheme = GridScheme::build(&store, 32);
    let mut idx: Arena<u128, 2> = Arena::new();
    for (id, o) in store.iter() {
        let tsig = TextualSignature::build(&o.tokens, store.weights(), store.token_order());
        let gsig = scheme.signature(&o.region);
        for (t, tb) in tsig.elements_with_bounds() {
            for (g, gb) in gsig.elements_with_bounds() {
                let key = (u128::from(t.token.0) << 64) | u128::from(g.cell);
                idx.push(key, id.0, gb, tb);
            }
        }
    }
    idx.finalize();
    roundtrips_through_bytes(&idx, &[0.0, 10.0]);
}
