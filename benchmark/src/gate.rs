//! The correctness gate every run passes before anything is timed: a
//! seeded sample of the query set is answered by the brute-force
//! oracle (`verify::naive_search`) and by the engine under test, and
//! every pair of engines that must agree (loaded and built, sharded
//! and single arena, wire and direct) is compared on the whole set.

use crate::run::Digest;
use seal_core::verify::naive_search;
use seal_core::{ObjectId, ObjectStore, Query, SimilarityConfig};

/// Queries compared with the oracle.
pub const ORACLE_SAMPLE: usize = 200;

/// Generated queries average under one answer each, so a sample could
/// agree with the oracle on nothing but empty sets. At least this many
/// sampled queries must have an answer.
pub const MIN_NON_EMPTY: usize = 30;

/// SplitMix64: the benchmark's own seeded generator for sampling.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn sorted(mut ids: Vec<ObjectId>) -> Vec<ObjectId> {
    ids.sort_unstable();
    ids
}

/// The oracle's sample: queries with the answers `naive_search` gives.
pub struct OracleSample {
    pub cases: Vec<(Query, Vec<ObjectId>)>,
    /// Cases with at least one answer.
    pub non_empty: usize,
    /// Cases re-drawn as copies of a stored object to reach
    /// [`MIN_NON_EMPTY`].
    pub anchored: usize,
}

/// Draws [`ORACLE_SAMPLE`] distinct queries of the set with the seed,
/// answers them with the oracle, and — until [`MIN_NON_EMPTY`] of them
/// have an answer — replaces empty ones by queries anchored on a
/// stored object (its own region and tokens, at the replaced query's
/// thresholds, so the object answers it).
///
/// # Panics
/// If anchoring cannot reach [`MIN_NON_EMPTY`]: the corpus then has no
/// objects a query can match, and no run on it would mean anything.
pub fn oracle_sample(
    store: &ObjectStore,
    cfg: &SimilarityConfig,
    queries: &[Query],
    seed: u64,
) -> OracleSample {
    let mut rng = SplitMix(seed ^ 0x6A7E);
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let take = ORACLE_SAMPLE.min(order.len());
    for i in 0..take {
        let j = i + rng.below(order.len() - i);
        order.swap(i, j);
    }
    let mut cases: Vec<(Query, Vec<ObjectId>)> = order[..take]
        .iter()
        .map(|&i| {
            let q = queries[i].clone();
            let expected = sorted(naive_search(store, cfg, &q));
            (q, expected)
        })
        .collect();
    let mut non_empty = cases.iter().filter(|(_, a)| !a.is_empty()).count();
    let mut anchored = 0;
    let mut attempts = 0;
    while non_empty < MIN_NON_EMPTY.min(take) {
        attempts += 1;
        assert!(
            attempts <= 20 * MIN_NON_EMPTY,
            "gate: could not anchor {MIN_NON_EMPTY} answerable queries on this corpus"
        );
        let slot = cases
            .iter()
            .position(|(_, a)| a.is_empty())
            .expect("fewer non-empty cases than cases");
        let o = store.get(ObjectId(rng.below(store.len()) as u32));
        let old = &cases[slot].0;
        let q = Query::new(o.region, o.tokens.clone(), old.tau_spatial, old.tau_textual)
            .expect("thresholds copied from a valid query");
        let expected = sorted(naive_search(store, cfg, &q));
        if !expected.is_empty() {
            cases[slot] = (q, expected);
            non_empty += 1;
            anchored += 1;
        }
    }
    OracleSample {
        cases,
        non_empty,
        anchored,
    }
}

impl OracleSample {
    /// Answers every case with `search` and returns how many differ
    /// from the oracle.
    pub fn mismatches(&self, mut search: impl FnMut(&Query) -> Vec<ObjectId>) -> usize {
        self.cases
            .iter()
            .filter(|(q, expected)| sorted(search(q)) != *expected)
            .count()
    }

    /// One line for the run's log.
    pub fn describe(&self) -> String {
        format!(
            "gate: {} queries checked against naive_search, {} with answers ({} anchored on objects)",
            self.cases.len(),
            self.non_empty,
            self.anchored
        )
    }
}

/// The digest of every query's answers under `search`.
pub fn digests(queries: &[Query], mut search: impl FnMut(&Query) -> Vec<ObjectId>) -> Vec<Digest> {
    queries.iter().map(|q| Digest::of(&search(q))).collect()
}

/// How many positions differ.
pub fn differing(a: &[Digest], b: &[Digest]) -> usize {
    assert_eq!(
        a.len(),
        b.len(),
        "comparing answer sets of different query sets"
    );
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_core::RoiObject;
    use seal_geom::Rect;
    use seal_text::{TokenId, TokenSet};

    fn store() -> ObjectStore {
        let objects = (0..60u32)
            .map(|i| {
                let x = f64::from(i) * 10.0;
                RoiObject::new(
                    Rect::new(x, 0.0, x + 5.0, 5.0).unwrap(),
                    TokenSet::from_ids([TokenId(i % 7), TokenId(7 + i % 3)]),
                )
            })
            .collect();
        ObjectStore::from_objects(objects, 16)
    }

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let (mut a, mut b) = (SplitMix(7), SplitMix(7));
        for _ in 0..100 {
            let v = a.below(13);
            assert_eq!(v, b.below(13));
            assert!(v < 13);
        }
        assert_ne!(SplitMix(1).next(), SplitMix(2).next());
    }

    #[test]
    fn empty_answers_are_redrawn_until_enough_cases_have_one() {
        let store = store();
        let cfg = SimilarityConfig::default();
        // Queries far from every object: the oracle answers none.
        let queries: Vec<Query> = (0..64)
            .map(|i| {
                let y = 1000.0 + f64::from(i);
                Query::with_token_ids(
                    Rect::new(0.0, y, 1.0, y + 1.0).unwrap(),
                    [TokenId(1)],
                    0.4,
                    0.4,
                )
                .unwrap()
            })
            .collect();
        let sample = oracle_sample(&store, &cfg, &queries, 3);
        assert_eq!(sample.cases.len(), 64);
        assert_eq!(sample.non_empty, MIN_NON_EMPTY);
        assert_eq!(sample.anchored, MIN_NON_EMPTY);
        assert!(sample.cases.iter().all(|(q, _)| q.tau_spatial == 0.4));
        // The oracle agrees with itself and a wrong engine is caught.
        assert_eq!(sample.mismatches(|q| naive_search(&store, &cfg, q)), 0);
        assert_eq!(sample.mismatches(|_| Vec::new()), MIN_NON_EMPTY);
        // Same seed, same sample.
        let again = oracle_sample(&store, &cfg, &queries, 3);
        assert!(sample.cases.iter().zip(&again.cases).all(|(a, b)| a == b));
    }

    #[test]
    fn differing_counts_positions() {
        let a = digests(&[], |_| Vec::new());
        assert_eq!(differing(&a, &a), 0);
        let x = [Digest { len: 1, sum: 5 }, Digest { len: 0, sum: 0 }];
        let y = [Digest { len: 1, sum: 6 }, Digest { len: 0, sum: 0 }];
        assert_eq!(differing(&x, &y), 1);
    }
}
