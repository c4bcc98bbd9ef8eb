//! The SoA-layout contract, pinned from outside the index crate:
//!
//! 1. The columnar `finalize` is **behaviorally identical to an
//!    array-of-structs oracle** for any push/finalize interleaving —
//!    same group order, same qualifying prefixes.
//! 2. The **retired AoS kinds 1/2 are refused** with a typed
//!    `BadKind`, as is every other kind byte an arena does not write.
//! 3. The chunked `bound_cut` agrees with `partition_point` on
//!    adversarial bound columns: ties, all-pass, all-fail, lengths not
//!    divisible by the 16-lane chunk, lengths across the scan/binary
//!    cutover.

use proptest::prelude::*;
use seal_index::{bound_cut, HybridIndex, IndexCodecError, InvertedIndex};

// ---------------------------------------------------------------------
// 1. SoA finalize ≡ AoS oracle
// ---------------------------------------------------------------------

/// The AoS oracle: a plain map of interleaved posting structs, sorted
/// wholesale after every freeze — the behavior the pre-SoA arena had.
#[derive(Default)]
struct AosOracle {
    groups: std::collections::BTreeMap<u64, Vec<(u32, f64)>>,
}

impl AosOracle {
    fn push(&mut self, key: u64, id: u32, bound: f64) {
        self.groups.entry(key).or_default().push((id, bound));
    }

    fn finalize(&mut self) {
        for g in self.groups.values_mut() {
            g.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        }
    }

    fn qualifying(&self, key: u64, c: f64) -> Vec<u32> {
        self.groups
            .get(&key)
            .map(|g| {
                g.iter()
                    .take_while(|(_, b)| *b >= c)
                    .map(|(id, _)| *id)
                    .collect()
            })
            .unwrap_or_default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn soa_finalize_matches_aos_oracle_for_any_interleaving(
        // Each op is (key, id, bound, finalize-after?): an arbitrary
        // interleaving of pushes and freezes.
        ops in proptest::collection::vec(
            (0u64..12, 0u32..10_000, 0.0f64..1e4, (0u8..2).prop_map(|b| b == 1)),
            1..200),
        thr in 0.0f64..1e4,
    ) {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new();
        let mut oracle = AosOracle::default();
        let mut seen = std::collections::HashSet::new();
        for (key, id, bound, freeze) in ops {
            // Distinct (key, id) pairs keep the tie-break order unique
            // so both layouts produce one well-defined sequence.
            if seen.insert((key, id)) {
                idx.push(key, id, bound);
                oracle.push(key, id, bound);
            }
            if freeze {
                idx.finalize();
                oracle.finalize();
            }
        }
        idx.finalize();
        oracle.finalize();
        prop_assert_eq!(idx.key_count(), oracle.groups.len());
        for key in 0u64..12 {
            for c in [0.0, thr, thr / 2.0, 1e9] {
                prop_assert_eq!(
                    idx.qualifying(&key, c),
                    &oracle.qualifying(key, c)[..],
                    "key {} thr {}", key, c
                );
            }
            // The full list's columns agree with the oracle rows.
            if let Some(view) = idx.list(&key) {
                let rows: Vec<(u32, f64)> = view
                    .ids
                    .iter()
                    .zip(view.bounds[0])
                    .map(|(&i, &b)| (i, b))
                    .collect();
                prop_assert_eq!(&rows, &oracle.groups[&key]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Retired kinds are typed errors
// ---------------------------------------------------------------------

#[test]
fn arena_indexes_read_only_their_own_kind() {
    let mut single: InvertedIndex<u64> = InvertedIndex::new();
    single.push(1, 0, 1.0);
    single.finalize();
    let mut dual: HybridIndex<u64> = HybridIndex::new();
    dual.push(1, 0, 1.0, 0.5);
    dual.finalize();
    // Byte 5 of the shared header is the kind: 5 = SoA single,
    // 6 = SoA dual. 1/2 were the AoS kinds of earlier revisions.
    for kind in 0u8..=9 {
        let mut raw = single.to_bytes();
        raw[5] = kind;
        if kind != 5 {
            assert_eq!(
                InvertedIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
                IndexCodecError::BadKind(kind)
            );
        }
        let mut raw = dual.to_bytes();
        raw[5] = kind;
        if kind != 6 {
            assert_eq!(
                HybridIndex::<u64>::from_bytes(&raw[..]).unwrap_err(),
                IndexCodecError::BadKind(kind)
            );
        }
    }
}

// ---------------------------------------------------------------------
// 3. bound_cut ≡ partition_point ≡ the count of qualifying rows
// ---------------------------------------------------------------------

#[test]
fn bound_cut_matches_partition_point_on_adversarial_columns() {
    // Deterministic adversarial shapes: empty, odd and power-of-two
    // lengths, tie plateaus everywhere, all-pass and all-fail.
    for len in [0usize, 1, 15, 16, 17, 47, 48, 49, 255, 256, 257, 511, 2048] {
        // Plateaus of width 5: ties everywhere.
        let col: Vec<f64> = (0..len).map(|i| ((len - i) / 5) as f64).collect();
        let thresholds: Vec<f64> = [
            -1.0,
            0.0,
            0.5,
            1.0,
            (len / 10) as f64,
            (len / 5) as f64,
            len as f64,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
        .to_vec();
        for c in thresholds {
            assert_eq!(
                bound_cut(&col, c),
                col.partition_point(|&b| b >= c),
                "plateau column len {len} c {c}"
            );
        }
        // All-pass and all-fail.
        let flat = vec![7.5f64; len];
        assert_eq!(bound_cut(&flat, 7.5), len, "all-pass ties len {len}");
        assert_eq!(bound_cut(&flat, 7.6), 0, "all-fail len {len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bound_cut_matches_partition_point_on_random_columns(
        bounds in proptest::collection::vec(0.0f64..1000.0, 0..600),
        c in -10.0f64..1010.0,
    ) {
        let mut bounds = bounds;
        bounds.sort_by(|a, b| b.total_cmp(a)); // non-increasing
        prop_assert_eq!(
            bound_cut(&bounds, c),
            bounds.partition_point(|&b| b >= c)
        );
        // The cut index is also exactly the count of qualifying rows.
        let count = bounds.iter().filter(|&&b| b >= c).count();
        prop_assert_eq!(bound_cut(&bounds, c), count);
    }
}
