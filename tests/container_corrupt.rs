//! Integration: hostile-input hardening of the `.seal` container.
//!
//! Every mutation of a valid container — truncation at every section
//! boundary, random truncations, single-bit flips anywhere in the
//! file, oversized declared counts, or outright random bytes — must
//! surface as a typed [`seal_index::ContainerError`] from
//! `SealEngine::load_from_bytes` and from the file loader
//! `SealEngine::load`, which reads the file and calls it: never a
//! panic, never an attacker-controlled allocation.

use proptest::prelude::*;
use seal_core::persist::{
    SECTION_CORPUS_ARTIFACTS, SECTION_ENGINE_META, SECTION_HIER_SCHEME, SECTION_PRIMARY_INDEX,
    SECTION_STORE_OBJECTS, SECTION_STORE_STATS,
};
use seal_core::{FilterKind, SealEngine, ShardedEngine};
use seal_index::{Container, ContainerError, ContainerWriter, IndexCodecError};
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::twitter_fixture;

/// A small but fully-featured container: the hierarchical kind
/// persists every section type (stats, objects, dictionary-less meta,
/// HSS scheme, hybrid index). Built once — the proptest cases below
/// mutate copies.
fn seal_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let (store, _) = twitter_fixture(150, 1);
        let engine = SealEngine::build(
            Arc::new(store),
            FilterKind::Hierarchical {
                max_level: 5,
                budget: 4,
            },
        );
        engine
            .to_container_bytes()
            .expect("serializing a healthy engine must succeed")
    })
}

/// Loading must fail with an error — reaching this helper with a panic
/// inside `load_from_bytes` fails the test on its own.
fn assert_rejected(bytes: &[u8], what: &str) {
    let err = SealEngine::load_from_bytes(bytes, 1).err();
    assert!(err.is_some(), "{what}: corrupt container was accepted");
}

/// A container whose primary index is a **block-packed** posting arena
/// (serialize kind 7): token-compressed over enough objects that the
/// hot tokens span multiple 128-id blocks. Built once — tests below
/// mutate copies.
fn packed_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let (store, _) = twitter_fixture(2_000, 1);
        let engine = SealEngine::build(Arc::new(store), FilterKind::TokenCompressed);
        engine
            .to_container_bytes()
            .expect("serializing a healthy engine must succeed")
    })
}

/// Truncation points inside the framing and at the start, middle and
/// end of every section, the true boundaries recovered from the
/// directory.
fn boundary_cuts(bytes: &[u8]) -> Vec<usize> {
    let container = Container::parse(bytes).expect("pristine container must parse");
    let mut cuts = vec![0usize, 1, 4, 9, bytes.len() - 1];
    for s in container.sections() {
        cuts.push(s.offset);
        cuts.push(s.offset + s.payload.len() / 2);
        cuts.push(s.offset + s.payload.len());
    }
    cuts
}

#[test]
fn pristine_bytes_load() {
    let bytes = seal_bytes();
    let engine = SealEngine::load_from_bytes(bytes, 1).expect("pristine container must load");
    assert_eq!(engine.store().len(), 150);
}

#[test]
fn truncation_at_every_section_boundary_errors() {
    let bytes = seal_bytes();
    for cut in boundary_cuts(bytes) {
        assert_rejected(&bytes[..cut], &format!("truncated to {cut} bytes"));
    }
}

#[test]
fn oversized_declared_count_errors_without_allocating() {
    let bytes = seal_bytes();
    let container = Container::parse(bytes).expect("pristine container must parse");
    // Rewrite the store-objects section to declare u64::MAX objects —
    // the writer recomputes the CRCs, so only the count validation
    // stands between the lie and a 2^64-element allocation.
    let mut w = ContainerWriter::new();
    for s in container.sections() {
        let mut payload = s.payload.to_vec();
        if s.kind == SECTION_STORE_OBJECTS {
            payload[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        }
        w.push_section(s.kind, payload);
    }
    assert_rejected(&w.finish(), "u64::MAX declared objects");

    // Same lie in the stats section: declared object count disagrees
    // with the (valid) objects section.
    let mut w = ContainerWriter::new();
    for s in container.sections() {
        let mut payload = s.payload.to_vec();
        if s.kind == SECTION_STORE_STATS {
            payload[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        }
        w.push_section(s.kind, payload);
    }
    assert_rejected(&w.finish(), "u64::MAX declared stats objects");
}

#[test]
fn packed_container_truncation_at_every_section_boundary_errors() {
    let bytes = packed_bytes();
    let container = Container::parse(bytes).expect("pristine container must parse");
    // The primary index must really be the block-packed kind (byte 5
    // of the index header is the serialize kind byte, 7 = packed).
    let primary = container
        .sections()
        .iter()
        .find(|s| s.kind == SECTION_PRIMARY_INDEX)
        .expect("token-compressed container has a primary index");
    assert_eq!(
        primary.payload[5], 7,
        "primary index must be kind 7 (block-packed)"
    );
    SealEngine::load_from_bytes(bytes, 1).expect("pristine packed container must load");

    for cut in boundary_cuts(bytes) {
        assert_rejected(
            &bytes[..cut],
            &format!("packed container truncated to {cut} bytes"),
        );
    }
}

#[test]
fn packed_declared_counts_behind_valid_crcs_error() {
    // The index-section header is [magic u32 | version u8 | kind u8 |
    // key_count u64 | arena_len u64]. Lie at each count with the
    // section CRCs recomputed by the writer — only the decoder's typed
    // count validation stands between the lie and a 2^64 allocation.
    let bytes = packed_bytes();
    let container = Container::parse(bytes).expect("pristine container must parse");
    for at in [6usize, 14] {
        let mut w = ContainerWriter::new();
        for s in container.sections() {
            let mut payload = s.payload.to_vec();
            if s.kind == SECTION_PRIMARY_INDEX {
                payload[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            }
            w.push_section(s.kind, payload);
        }
        assert_rejected(
            &w.finish(),
            &format!("u64::MAX count at index-header byte {at}"),
        );
    }
}

#[test]
fn trailing_byte_in_an_index_section_behind_valid_crcs_errors() {
    // One byte appended to section 6 with the CRCs recomputed: every
    // other section refuses unconsumed bytes, and so must the index
    // payloads — arena (hierarchical) and compressed (packed) alike.
    for bytes in [seal_bytes(), packed_bytes()] {
        let container = Container::parse(bytes).expect("pristine container must parse");
        let mut w = ContainerWriter::new();
        for s in container.sections() {
            let mut payload = s.payload.to_vec();
            if s.kind == SECTION_PRIMARY_INDEX {
                payload.push(0);
            }
            w.push_section(s.kind, payload);
        }
        match SealEngine::load_from_bytes(&w.finish(), 1).err() {
            Some(ContainerError::Codec(IndexCodecError::Corrupt { detail, .. })) => {
                assert!(detail.contains("trailing"), "{detail}")
            }
            other => panic!("expected a typed trailing-bytes error, got {other:?}"),
        }
    }
}

#[test]
fn primary_index_of_another_storage_form_or_bound_count_errors() {
    // The loader picks the posting decoder from the primary section's
    // own codec kind byte, so the engine meta must still have the last
    // word: a section of the other storage form, or with the other
    // number of bound columns, spliced in behind valid CRCs is a typed
    // error — never an engine silently serving in the other mode.
    let (store, _) = twitter_fixture(300, 1);
    let store = Arc::new(store);
    let hash = |compressed: bool| {
        let (side, buckets) = (16, Some(64));
        if compressed {
            FilterKind::HashHybridCompressed { side, buckets }
        } else {
            FilterKind::HashHybrid { side, buckets }
        }
    };
    let container_of = |kind| {
        SealEngine::build(store.clone(), kind)
            .to_container_bytes()
            .expect("serializing a healthy engine must succeed")
    };
    // (codec kind byte of the primary section, container)
    let token = (5u8, container_of(FilterKind::Token));
    let token_packed = (7u8, container_of(FilterKind::TokenCompressed));
    let hybrid = (6u8, container_of(hash(false)));
    let hybrid_packed = (8u8, container_of(hash(true)));
    let load_spliced = |meta_from: &(u8, Vec<u8>), primary_from: &(u8, Vec<u8>)| {
        let donor = Container::parse(&primary_from.1).expect("pristine container must parse");
        let primary = donor.require(SECTION_PRIMARY_INDEX).expect("indexed kind");
        assert_eq!(primary[5], primary_from.0, "codec kind byte of the donor");
        let container = Container::parse(&meta_from.1).expect("pristine container must parse");
        let mut w = ContainerWriter::new();
        for s in container.sections() {
            let payload = if s.kind == SECTION_PRIMARY_INDEX {
                primary
            } else {
                s.payload
            };
            w.push_section(s.kind, payload.to_vec());
        }
        SealEngine::load_from_bytes(&w.finish(), 1).err()
    };
    // Same bound count, other storage form: both directions, both
    // schemes.
    for (meta, primary) in [
        (&token, &token_packed),
        (&token_packed, &token),
        (&hybrid, &hybrid_packed),
        (&hybrid_packed, &hybrid),
    ] {
        match load_spliced(meta, primary) {
            Some(ContainerError::Section {
                section, detail, ..
            }) => {
                assert_eq!(section, "primary index");
                assert!(detail.contains("engine meta declares"), "{detail}");
            }
            other => panic!(
                "kind-{} section under kind-{} meta: expected a typed section error, got {other:?}",
                primary.0, meta.0
            ),
        }
    }
    // Other bound count: the codec itself refuses the kind byte.
    for (meta, primary) in [
        (&hybrid, &token),
        (&hybrid_packed, &token),
        (&hybrid_packed, &token_packed),
        (&token, &hybrid),
        (&token_packed, &hybrid_packed),
    ] {
        match load_spliced(meta, primary) {
            Some(ContainerError::Codec(IndexCodecError::BadKind(k))) => assert_eq!(k, primary.0),
            other => panic!(
                "kind-{} section under kind-{} meta: expected BadKind, got {other:?}",
                primary.0, meta.0
            ),
        }
    }
    // The splice helper itself is sound: a section put back where it
    // came from loads.
    assert!(load_spliced(&hybrid_packed, &hybrid_packed).is_none());
}

#[test]
fn hostile_scheme_sections_behind_valid_crcs_error() {
    // The scheme section is [max_level u8 | budget u64 | n_tokens u64]
    // then per token [id u32 | n_cells u32 | packed cells u64...]. The
    // loaded scheme indexes a dense per-token table by id and probes
    // every listed cell, so an id outside the vocabulary, a repeated
    // cell and a cell listed with its ancestor must all be refused.
    let bytes = seal_bytes();
    let container = Container::parse(bytes).expect("pristine container must parse");
    let vocab = SealEngine::load_from_bytes(bytes, 1)
        .expect("pristine container must load")
        .store()
        .vocab_size();
    let scheme = container
        .sections()
        .iter()
        .find(|s| s.kind == SECTION_HIER_SCHEME)
        .expect("hierarchical container has a scheme section")
        .payload;
    let u32_at = |at: usize| u32::from_le_bytes(scheme[at..at + 4].try_into().unwrap());
    // Walk the token entries: the last one, and one with ≥ 2 cells.
    let (mut at, mut last, mut multi) = (17usize, 0usize, None);
    while at < scheme.len() {
        let n_cells = u32_at(at + 4) as usize;
        if n_cells >= 2 {
            multi.get_or_insert(at);
        }
        last = at;
        at += 8 + 8 * n_cells;
    }
    let multi = multi.expect("some token selected more than one cell");
    let first_cell = scheme[multi + 8..multi + 16].to_vec();

    let cases: [(&str, usize, Vec<u8>, &str); 4] = [
        (
            "last token id = vocab",
            last,
            (vocab as u32).to_le_bytes().to_vec(),
            "outside vocab",
        ),
        (
            "last token id = u32::MAX",
            last,
            u32::MAX.to_le_bytes().to_vec(),
            "outside vocab",
        ),
        (
            "second cell repeats the first",
            multi + 16,
            first_cell,
            "repeats",
        ),
        (
            // The root is an ancestor of every other cell.
            "first cell replaced by the root",
            multi + 8,
            0u64.to_le_bytes().to_vec(),
            "ancestor",
        ),
    ];
    for (what, at, patch, expect) in cases {
        let mut w = ContainerWriter::new();
        for s in container.sections() {
            let mut payload = s.payload.to_vec();
            if s.kind == SECTION_HIER_SCHEME {
                payload[at..at + patch.len()].copy_from_slice(&patch);
            }
            w.push_section(s.kind, payload);
        }
        match SealEngine::load_from_bytes(&w.finish(), 1).err() {
            Some(ContainerError::Section {
                section: "hier scheme",
                detail,
                ..
            }) => assert!(detail.contains(expect), "{what}: {detail}"),
            other => panic!("{what}: expected a typed hier-scheme error, got {other:?}"),
        }
    }
}

#[test]
fn hostile_corpus_artifacts_behind_valid_crcs_error() {
    // A shard's container carries the corpus artifacts section:
    // [space 4×f64 | corpus size u64 | fallback f64 | n u64 | n×f64].
    // The loader grids the space and scores with the weights, so a
    // count off the vocabulary, a weight that is not finite and
    // non-negative, and a space that is no rect or does not hold the
    // objects must all be refused.
    let (store, _) = twitter_fixture(150, 1);
    let sharded = ShardedEngine::build(&store, FilterKind::Token, 2);
    let shard = sharded.shard_engines()[0]
        .to_container_bytes()
        .expect("serialize");
    let container = Container::parse(&shard).expect("pristine container must parse");
    let artifacts = container
        .require(SECTION_CORPUS_ARTIFACTS)
        .expect("a shard writes its injected artifacts");
    SealEngine::load_from_bytes(&shard, 1).expect("a shard's container loads back");
    let vocab = u64::from_le_bytes(artifacts[48..56].try_into().unwrap());
    let f64s = |v: &[f64]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    let cases: [(&str, usize, Vec<u8>, &str); 7] = [
        (
            "one weight too few",
            48,
            (vocab - 1).to_le_bytes().to_vec(),
            "weights for a vocabulary",
        ),
        (
            "one weight too many",
            48,
            (vocab + 1).to_le_bytes().to_vec(),
            "weights for a vocabulary",
        ),
        ("a NaN weight", 56, f64s(&[f64::NAN]), "not finite"),
        (
            "an infinite fallback",
            40,
            f64s(&[f64::INFINITY]),
            "not finite",
        ),
        ("a negative weight", 64, f64s(&[-1.0]), "not finite"),
        ("an inverted space", 0, f64s(&[1e12]), "invalid space"),
        (
            "a space off the objects",
            0,
            f64s(&[0.0, 0.0, 1.0, 1.0]),
            "outside the space",
        ),
    ];
    for (what, at, patch, expect) in cases {
        let w = reframed(&shard, |kind, p| {
            let mut p = p.to_vec();
            if kind == SECTION_CORPUS_ARTIFACTS {
                p[at..at + patch.len()].copy_from_slice(&patch);
            }
            p
        });
        match SealEngine::load_from_bytes(&w.finish(), 1).err() {
            Some(ContainerError::Section {
                section: "corpus artifacts",
                detail,
                ..
            }) => assert!(detail.contains(expect), "{what}: {detail}"),
            other => panic!("{what}: expected a typed corpus-artifacts error, got {other:?}"),
        }
    }
}

#[test]
fn object_regions_that_overflow_behind_valid_crcs_error() {
    // [vocab u64 | n u64 | object 0: min_x, min_y, max_x, max_y f64 | …]:
    // object 0 stretched to y in [−1e308, 1e308], whose height and area
    // are ∞, which every coordinate check refuses.
    let f64s = |v: &[f64]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    let w = reframed(seal_bytes(), |kind, p| {
        let mut p = p.to_vec();
        if kind == SECTION_STORE_OBJECTS {
            p[24..32].copy_from_slice(&f64s(&[-1e308]));
            p[40..48].copy_from_slice(&f64s(&[1e308]));
        }
        p
    });
    match SealEngine::load_from_bytes(&w.finish(), 1).err() {
        Some(ContainerError::Section {
            section: "store objects",
            detail,
            ..
        }) => assert!(detail.contains("object 0: invalid region"), "{detail}"),
        other => panic!("expected a typed store-objects error, got {other:?}"),
    }
}

/// The container of `kind` over the 150-object fixture.
fn container_of(kind: FilterKind) -> Vec<u8> {
    let (store, _) = twitter_fixture(150, 1);
    SealEngine::build(Arc::new(store), kind)
        .to_container_bytes()
        .expect("serializing a healthy engine must succeed")
}

/// `bytes`' sections rewritten by `edit` and re-framed, so every CRC is
/// valid and only the loader's own checks stand between a lie and an
/// engine.
fn reframed(bytes: &[u8], edit: impl Fn(u16, &[u8]) -> Vec<u8>) -> ContainerWriter {
    let container = Container::parse(bytes).expect("pristine container must parse");
    let mut w = ContainerWriter::new();
    for s in container.sections() {
        w.push_section(s.kind, edit(s.kind, s.payload));
    }
    w
}

#[test]
fn sections_the_kind_does_not_read_behind_valid_crcs_error() {
    // A container holds only the sections its kind reads: anything
    // else would load silently and vanish on the next save.
    let token = container_of(FilterKind::Token);
    let seal = Container::parse(seal_bytes()).expect("pristine container must parse");
    let scheme = seal
        .require(SECTION_HIER_SCHEME)
        .expect("hierarchical kind");
    let primary = Container::parse(&token)
        .expect("pristine container must parse")
        .require(SECTION_PRIMARY_INDEX)
        .expect("indexed kind")
        .to_vec();
    let cases: [(&str, &[u8], u16, &[u8]); 3] = [
        (
            "a hierarchical scheme under Token",
            &token,
            SECTION_HIER_SCHEME,
            scheme,
        ),
        ("retired section 7 under Token", &token, 7, &primary),
        ("unknown section 99 under Token", &token, 99, b"junk"),
    ];
    for (what, bytes, extra, payload) in cases {
        let mut w = reframed(bytes, |_, p| p.to_vec());
        w.push_section(extra, payload.to_vec());
        match SealEngine::load_from_bytes(&w.finish(), 1).err() {
            Some(ContainerError::Section { detail, .. }) => {
                assert!(
                    detail.contains(&format!("reads no section of kind {extra}")),
                    "{what}: {detail}"
                )
            }
            other => panic!("{what}: expected a typed section error, got {other:?}"),
        }
    }
}

#[test]
fn retired_filter_kind_tags_behind_valid_crcs_error() {
    // Tags 2 and 7–11 named filters the engine no longer has (7, 8
    // and 9 the §2.3 baselines, now in seal-bench). The meta payload is
    // [tag u8 | parameters | spatial u8 | textual u8]; tag 9 carried a
    // u64 R-tree fan-out, tag 10 a u32 grid side.
    let token = container_of(FilterKind::Token);
    for (tag, params) in [
        (2u8, &[][..]),
        (7, &[][..]),
        (8, &[][..]),
        (9, &64u64.to_le_bytes()[..]),
        (10, &1024u32.to_le_bytes()[..]),
        (11, &[][..]),
    ] {
        let w = reframed(&token, |kind, p| {
            if kind != SECTION_ENGINE_META {
                return p.to_vec();
            }
            let mut meta = vec![tag];
            meta.extend_from_slice(params);
            meta.extend_from_slice(&p[1..]);
            meta
        });
        match SealEngine::load_from_bytes(&w.finish(), 1).err() {
            Some(ContainerError::Section {
                section: "engine meta",
                detail,
                ..
            }) => assert!(
                detail.contains(&format!("unknown filter kind tag {tag}")),
                "tag {tag}: {detail}"
            ),
            other => panic!("tag {tag}: expected a typed engine-meta error, got {other:?}"),
        }
    }
}

#[test]
fn retired_similarity_tags_behind_valid_crcs_error() {
    // The meta's last two bytes are the spatial and textual similarity
    // tags; only 0 (spatial / weighted Jaccard) remains. Spatial 1 named
    // Dice, textual 1, 2 and 3 named Dice, Cosine and Overlap.
    let token = container_of(FilterKind::Token);
    for (which, tags) in [
        ("spatial", [1u8, 0]),
        ("textual", [0, 1]),
        ("textual", [0, 2]),
        ("textual", [0, 3]),
    ] {
        let w = reframed(&token, |kind, p| {
            let mut p = p.to_vec();
            if kind == SECTION_ENGINE_META {
                let n = p.len();
                p[n - 2..].copy_from_slice(&tags);
            }
            p
        });
        let tag = tags[0].max(tags[1]);
        match SealEngine::load_from_bytes(&w.finish(), 1).err() {
            Some(ContainerError::Section {
                section: "engine meta",
                detail,
                ..
            }) => assert!(
                detail.contains(&format!("unknown {which} similarity tag {tag}")),
                "{which} tag {tag}: {detail}"
            ),
            other => {
                panic!("{which} tag {tag}: expected a typed engine-meta error, got {other:?}")
            }
        }
    }
}

#[test]
fn missing_required_section_errors() {
    let bytes = seal_bytes();
    let container = Container::parse(bytes).expect("pristine container must parse");
    for dropped in container.sections().iter().map(|s| s.kind) {
        let mut w = ContainerWriter::new();
        for s in container.sections() {
            if s.kind != dropped {
                w.push_section(s.kind, s.payload.to_vec());
            }
        }
        assert_rejected(&w.finish(), &format!("section kind {dropped} dropped"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_truncations_error(frac in 0.0f64..1.0) {
        let bytes = seal_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(SealEngine::load_from_bytes(&bytes[..cut.min(bytes.len() - 1)], 1).is_err());
    }

    #[test]
    fn single_bit_flips_error(frac in 0.0f64..1.0, bit in 0usize..8) {
        // Every byte of the file is covered by a checksum or an exact
        // cross-check (header + directory by the footer CRC, payloads
        // by per-section CRCs, the footer by magic and length fields),
        // so any single-bit flip must be rejected.
        let mut bytes = seal_bytes().to_vec();
        let pos = (((bytes.len() - 1) as f64) * frac) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            SealEngine::load_from_bytes(&bytes, 1).is_err(),
            "flipped bit {bit} of byte {pos}"
        );
    }

    #[test]
    fn random_bytes_error(junk in proptest::collection::vec(0u8..=255, 0..256)) {
        prop_assert!(SealEngine::load_from_bytes(&junk, 1).is_err());
    }

    #[test]
    fn packed_primary_mutations_behind_valid_crcs_never_panic(
        frac in 0.0f64..1.0, val in 0u8..=255,
    ) {
        // Overwrite one byte of the block-packed primary index and
        // rebuild the container, so every CRC is valid and the lie
        // reaches the index decoder itself: it must either reject with
        // a typed error or decode something servable — never panic,
        // never make an attacker-sized allocation.
        let container = Container::parse(packed_bytes()).expect("pristine container must parse");
        let mut w = ContainerWriter::new();
        for s in container.sections() {
            let mut payload = s.payload.to_vec();
            if s.kind == SECTION_PRIMARY_INDEX && !payload.is_empty() {
                let pos = (((payload.len() - 1) as f64) * frac) as usize;
                payload[pos] = val;
            }
            w.push_section(s.kind, payload);
        }
        let _ = SealEngine::load_from_bytes(&w.finish(), 1);
    }
}

/// Writes `bytes` to this test's scratch file and loads it through the
/// file loader.
fn load_file(path: &std::path::Path, bytes: &[u8]) -> Result<SealEngine, ContainerError> {
    std::fs::write(path, bytes).expect("write temp container");
    SealEngine::load(path)
}

fn temp_file(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("seal-corrupt-{name}-{}.seal", std::process::id()));
    path
}

/// The file loader agrees with the in-memory one on a healthy
/// container — at any thread count — and rejects the same file cut at
/// the start, middle and end of every section.
#[test]
fn file_load_parity_and_truncation_at_every_section_boundary() {
    let bytes = packed_bytes();
    let path = temp_file("truncate");
    let buffered = SealEngine::load_from_bytes(bytes, 1).expect("in-memory load must succeed");
    let loaded = load_file(&path, bytes).expect("file load must succeed");
    assert_eq!(loaded.store().len(), buffered.store().len());
    let parallel = SealEngine::load_with_threads(&path, 0).expect("parallel file load");
    assert_eq!(parallel.kind(), buffered.kind());

    for cut in boundary_cuts(bytes) {
        assert!(
            load_file(&path, &bytes[..cut]).is_err(),
            "file truncated to {cut} bytes was accepted"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A flipped bit in every region of the file — header, directory,
/// each section's payload, footer — fails the file load.
#[test]
fn file_load_rejects_bit_flips_in_every_region() {
    let bytes = seal_bytes();
    let path = temp_file("flip");
    let container = Container::parse(bytes).expect("pristine container must parse");
    let mut positions = vec![0usize, 5, 12, bytes.len() - 1, bytes.len() - 10];
    for s in container.sections() {
        positions.push(s.offset + s.payload.len() / 2);
    }
    for pos in positions {
        let mut bad = bytes.to_vec();
        bad[pos] ^= 0x10;
        assert!(
            load_file(&path, &bad).is_err(),
            "bit flip at byte {pos} was accepted"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Sections are looked up by kind, so a file whose engine-meta
/// section comes *after* the index payloads it describes loads and
/// answers like the original; a raw index blob in place of a
/// container is a typed magic error.
#[test]
fn file_load_survives_hostile_section_order() {
    let bytes = seal_bytes();
    let path = temp_file("order");
    let container = Container::parse(bytes).expect("pristine container must parse");
    let mut sections = container.sections().to_vec();
    sections.reverse();
    sections.sort_by_key(|s| s.kind == SECTION_ENGINE_META); // stable: meta goes last
    let mut w = ContainerWriter::new();
    for s in sections {
        w.push_section(s.kind, s.payload.to_vec());
    }
    let reordered = load_file(&path, &w.finish()).expect("hostile order still loads");
    let pristine = SealEngine::load_from_bytes(bytes, 1).expect("pristine container must load");
    assert_eq!(reordered.kind(), pristine.kind());
    assert_eq!(
        reordered.to_container_bytes().expect("re-serialize"),
        bytes,
        "a reordered file must reload into the same engine"
    );

    let primary = container
        .sections()
        .iter()
        .find(|s| s.kind == SECTION_PRIMARY_INDEX)
        .expect("hierarchical container has a primary index");
    assert!(matches!(
        load_file(&path, primary.payload).err(),
        Some(ContainerError::BadMagic { .. })
    ));
    std::fs::remove_file(&path).ok();
}
