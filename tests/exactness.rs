//! Exactness: every engine answers exactly like the model of
//! `util/model.rs` — a naive scan of the generation plus the legal
//! overlay of the staged objects — through any sequence of push,
//! query, top-k, refresh and save→load, for every filter, storage
//! form, build thread count and shard count. This is the one suite
//! of root tests that compares every engine with a naive scan.

use proptest::prelude::*;
use seal_core::FilterKind::{self, *};
use seal_core::{ObjectStore, Query};

#[path = "util/mod.rs"]
mod util;

#[path = "util/model.rs"]
mod model;
use model::{fixture_ops, pairs, replay, Config, Engine, SHARDS};

/// Every `FilterKind` variant and every shard count meets the model:
/// the match below has no wildcard arm, so a new variant does not
/// compile until it is numbered here, and then fails until `pairs()`
/// serves it.
#[test]
fn pairs_cover_every_filter_kind_and_shard_count() {
    fn variant(kind: FilterKind) -> usize {
        match kind {
            Token => 0,
            TokenCompressed => 1,
            Grid { .. } => 2,
            HashHybrid { .. } => 3,
            HashHybridCompressed { .. } => 4,
            Hierarchical { .. } => 5,
        }
    }
    let mut seen = [false; 6];
    for kind in util::kinds(8, &[None, Some(64)], 4, 8) {
        seen[variant(kind)] = true;
    }
    assert_eq!(
        seen, [true; 6],
        "a FilterKind variant the model never builds"
    );
    let pairs = pairs();
    for kind in util::kinds(8, &[None, Some(64)], 4, 8) {
        for n in SHARDS {
            assert!(
                pairs
                    .iter()
                    .any(|&(c, e)| c.kind == kind && matches!(e, Engine::Sharded(m) if m == n)),
                "{kind:?} never meets {n} shards"
            );
        }
    }
}

/// Random op sequences over small worlds, every (configuration,
/// engine) pair twice: case `i` replays pair `i mod 80`. A failure
/// prints the case's seed and its shrunk generation and ops.
#[test]
fn op_sequences_match_the_model() {
    let pairs = pairs();
    proptest::run_cases(
        ProptestConfig::with_cases(2 * pairs.len() as u32),
        "op_sequences_match_the_model",
        &(
            collection::vec(model::object(), 0..12),
            collection::vec(model::op(), 1..40),
        ),
        |case, (initial, ops)| {
            let (config, engine) = pairs[case as usize % pairs.len()];
            // Generation 0 knows only its own tokens; pushes grow the
            // vocabulary up to `VOCAB`.
            let tokens = initial.iter().flat_map(|o| o.tokens.iter());
            let vocab = tokens.map(|t| t.index() + 1).max().unwrap_or(0);
            replay(config, engine, vocab, &initial, &ops);
        },
    );
}

/// Replays [`fixture_ops`] over a realistic corpus: a 1 400-object
/// generation, then two push → refresh rounds of 300 objects.
fn replay_fixture((store, queries): (ObjectStore, Vec<Query>), pairs: &[(Config, Engine)]) {
    let objects = store.objects();
    let ops = fixture_ops(objects, &queries, 1_400, 300);
    for &(config, engine) in pairs {
        replay(config, engine, store.vocab_size(), &objects[..1_400], &ops);
    }
}

/// 2 000 Twitter-like objects on the paper-scale filters.
#[test]
fn twitter_fixture_ops_match_the_model() {
    let one = |kind| Config { kind, threads: 1 };
    let mut pairs: Vec<(Config, Engine)> = [
        Token,
        Grid { side: 64 },
        Grid { side: 512 },
        HashHybrid {
            side: 128,
            buckets: Some(1 << 14),
        },
        Hierarchical {
            max_level: 8,
            budget: 8,
        },
    ]
    .map(|kind| (one(kind), Engine::Seal))
    .to_vec();
    pairs.extend([(one(Token), Engine::Live), (one(Token), Engine::Sharded(3))]);
    replay_fixture(util::twitter_fixture(2_000, 12), &pairs);
}

/// 2 000 USA-like objects on the default Seal configuration.
#[test]
fn usa_fixture_ops_match_the_model() {
    let config = Config {
        kind: FilterKind::seal_default(),
        threads: 1,
    };
    let pairs = [Engine::Seal, Engine::Live, Engine::Sharded(3)].map(|engine| (config, engine));
    replay_fixture(util::usa_fixture(2_000, 3), &pairs);
}
