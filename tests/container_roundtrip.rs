//! Integration: the `.seal` container round-trips every engine
//! configuration bit-identically — answers, kind, config and bytes —
//! and its atomic-rename save protocol never clobbers a good
//! container with a failed write.

use seal_core::{FilterKind, ObjectId, Query, QueryContext, SealEngine};
use seal_index::container::{crc32, temp_path_for};
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::twitter_fixture;

fn temp_seal(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("seal-container-test-{}-{name}", std::process::id()));
    p
}

fn answers(engine: &SealEngine, queries: &[Query]) -> Vec<Vec<ObjectId>> {
    let mut ctx = QueryContext::new();
    queries
        .iter()
        .map(|q| engine.search_with_ctx(q, &mut ctx).sorted().answers)
        .collect()
}

/// Every [`FilterKind`] variant, the hash-hybrid pair both with and
/// without a bucket count — 8 configurations, in the order of the
/// recorded digests below.
fn all_kinds() -> Vec<FilterKind> {
    util::kinds(64, &[None, Some(1 << 12)], 5, 8)
}

/// Every filter kind: build → save → load must
/// preserve the kind, reproduce the answers exactly, and re-serialize
/// to the very same bytes (save → load → save is a fixed point).
#[test]
fn every_kind_roundtrips_bit_identical() {
    let (store, queries) = twitter_fixture(400, 3);
    let store = Arc::new(store);
    let path = temp_seal("kinds.seal");
    for kind in all_kinds() {
        let engine = SealEngine::build(store.clone(), kind);
        let expect = answers(&engine, &queries);
        let saved = engine
            .save(&path)
            .unwrap_or_else(|e| panic!("{kind:?}: save failed: {e}"));
        assert_eq!(
            saved,
            std::fs::metadata(&path)
                .expect("saved file must exist")
                .len(),
            "{kind:?}: reported size disagrees with the file"
        );
        // The file is written straight from the sections, without
        // `finish`'s concatenated copy: the same bytes all the same.
        assert!(
            std::fs::read(&path).expect("read back")
                == engine.to_container_bytes().expect("serialize"),
            "{kind:?}: the saved file differs from to_container_bytes"
        );
        let loaded =
            SealEngine::load(&path).unwrap_or_else(|e| panic!("{kind:?}: load failed: {e}"));
        assert_eq!(loaded.kind(), kind, "kind must survive the round-trip");
        // Size accounting covers the structures a probe reads, which a
        // load reconstructs in full — never build-time leftovers.
        assert_eq!(
            loaded.index_bytes(),
            engine.index_bytes(),
            "{kind:?}: a loaded engine accounts a different index size"
        );
        assert_eq!(
            answers(&loaded, &queries),
            expect,
            "{kind:?}: answers changed across save/load"
        );
        // save → load → save is a fixed point: bit-identical bytes.
        assert_eq!(
            loaded.to_container_bytes().expect("re-serialize"),
            engine.to_container_bytes().expect("serialize"),
            "{kind:?}: container bytes not a fixed point"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The on-disk format is a fixed point across refactors: CRC-32 of
/// the container bytes of every kind over the 400-object fixture,
/// recorded before the codec matrix was collapsed to kinds 5–8. A
/// digest moves only when the bytes an engine writes move.
#[test]
fn container_bytes_match_recorded_digests() {
    const DIGESTS: [u32; 8] = [
        0xce38_8307, // Token
        0xc3c7_66ba, // TokenCompressed
        0xd3d8_bf9b, // Grid
        0x4e81_efe6, // HashHybrid, full keys
        0xd077_1eb6, // HashHybrid, 4096 buckets
        0x4f2b_e075, // HashHybridCompressed, full keys
        0xa815_4bee, // HashHybridCompressed, 4096 buckets
        0x5007_e11d, // Hierarchical
    ];
    let (store, _) = twitter_fixture(400, 1);
    let store = Arc::new(store);
    assert_eq!(all_kinds().len(), DIGESTS.len(), "one digest per kind");
    for (kind, expect) in all_kinds().into_iter().zip(DIGESTS) {
        let bytes = SealEngine::build(store.clone(), kind)
            .to_container_bytes()
            .expect("serialize");
        assert_eq!(
            crc32(&bytes),
            expect,
            "{kind:?}: container bytes changed (digest {:#010x})",
            crc32(&bytes)
        );
    }
}

/// Crash safety: a save that fails mid-flight (here: the temp path is
/// unwritable) must leave the existing container byte-for-byte intact
/// and loadable.
#[test]
fn failed_save_never_clobbers_an_existing_container() {
    let (store, queries) = twitter_fixture(200, 2);
    let store = Arc::new(store);
    let engine = SealEngine::build(store.clone(), FilterKind::Token);
    let path = temp_seal("clobber.seal");
    engine.save(&path).expect("initial save");
    let pristine = std::fs::read(&path).expect("read saved container");

    // Occupy the temp slot with a non-empty directory: the writer's
    // create/rename both fail, and the error must surface as a typed
    // ContainerError without touching the good container.
    let tmp = temp_path_for(&path);
    std::fs::create_dir_all(tmp.join("occupied")).expect("block the temp path");
    let other = SealEngine::build(store, FilterKind::TokenCompressed);
    assert!(
        other.save(&path).is_err(),
        "save through a blocked temp path must fail"
    );
    assert_eq!(
        std::fs::read(&path).expect("container must still exist"),
        pristine,
        "failed save altered the existing container"
    );
    let reloaded = SealEngine::load(&path).expect("existing container must still load");
    assert_eq!(answers(&reloaded, &queries), answers(&engine, &queries));

    std::fs::remove_dir_all(&tmp).ok();
    std::fs::remove_file(&path).ok();
}

/// A raw index codec blob (an index's `to_bytes`, no container
/// framing) round-trips through its own `from_bytes`, and the
/// container loader refuses it with the typed magic error instead of
/// misparsing.
#[test]
fn raw_index_blob_is_not_a_container() {
    let (store, _) = twitter_fixture(200, 1);
    let mut idx: seal_index::InvertedIndex<u32> = seal_index::InvertedIndex::new();
    for (id, o) in store.iter() {
        for t in o.tokens.iter() {
            idx.push(t.0, id.0, 1.0);
        }
    }
    idx.finalize();
    let blob = idx.to_bytes();
    let back: seal_index::InvertedIndex<u32> =
        seal_index::InvertedIndex::from_bytes(blob.clone()).expect("index blob must decode");
    assert_eq!(back.posting_count(), idx.posting_count());
    assert!(matches!(
        SealEngine::load_from_bytes(blob.as_ref(), 1).err(),
        Some(seal_index::ContainerError::BadMagic { .. })
    ));
}
