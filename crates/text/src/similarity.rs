//! Weighted token-set similarity: the weighted Jaccard coefficient of
//! Definition 2 and the signature threshold `c_T` the textual filter
//! derives from it (Section 3.2).

use crate::{TokenSet, TokenWeights};

/// Weight of the intersection, `Σ_{t∈a∩b} w(t)` — the signature
/// similarity of the textual filter (Section 3.2).
pub fn intersection_weight<W: TokenWeights>(a: &TokenSet, b: &TokenSet, w: &W) -> f64 {
    a.intersection(b).map(|t| w.weight(t)).sum()
}

/// Weight of the union, `Σ_{t∈a∪b} w(t)`.
pub fn union_weight<W: TokenWeights>(a: &TokenSet, b: &TokenSet, w: &W) -> f64 {
    w.set_weight(a) + w.set_weight(b) - intersection_weight(a, b, w)
}

/// Weighted Jaccard similarity (Definition 2):
/// `Σ_{t∈a∩b} w(t) / Σ_{t∈a∪b} w(t)`.
///
/// Two empty (or zero-weight) sets are defined to be identical (1.0 if
/// both are empty, 0.0 otherwise), mirroring the spatial convention.
pub fn weighted_jaccard<W: TokenWeights>(a: &TokenSet, b: &TokenSet, w: &W) -> f64 {
    let union = union_weight(a, b, w);
    if union <= 0.0 {
        return if a == b { 1.0 } else { 0.0 };
    }
    intersection_weight(a, b, w) / union
}

/// The signature-similarity threshold `c_T = τ · Σ_{t∈q} w(t)`
/// (Section 3.2): `weighted_jaccard(q, o) ≥ τ` implies
/// `intersection_weight(q, o) ≥ c_T`, because the union weight is at
/// least `q`'s own weight.
pub fn signature_threshold<W: TokenWeights>(q: &TokenSet, w: &W, tau: f64) -> f64 {
    tau * w.set_weight(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdfWeights, TokenId, UniformWeights};

    fn ts(ids: &[u32]) -> TokenSet {
        TokenSet::from_ids(ids.iter().map(|&i| TokenId(i)))
    }

    fn fig1_weights() -> IdfWeights {
        // t1..t5 are ids 0..4 with the paper's published idfs.
        IdfWeights::from_values(vec![0.8, 0.3, 0.8, 1.3, 0.6])
    }

    #[test]
    fn paper_example_simt_q_o1() {
        // simT(q, o1) = (w(t1)+w(t2)) / (w(t1)+w(t2)+w(t3))
        //            = 1.1 / 1.9 = 0.578...  (the paper rounds to 0.58)
        let w = fig1_weights();
        let q = ts(&[0, 1, 2]);
        let o1 = ts(&[0, 1]);
        let sim = weighted_jaccard(&q, &o1, &w);
        assert!((sim - 1.1 / 1.9).abs() < 1e-12);
    }

    #[test]
    fn paper_example_simt_q_o2_is_one() {
        let w = fig1_weights();
        let q = ts(&[0, 1, 2]);
        let o2 = ts(&[0, 1, 2]);
        assert_eq!(weighted_jaccard(&q, &o2, &w), 1.0);
    }

    #[test]
    fn figure4_signature_similarities() {
        // Figure 4 lists sim(ST(q), ST(o)) for the candidates:
        // o1: 1.1, o2: 1.9, o3: 0.8, o4: 1.1, o5: 1.1.
        let w = fig1_weights();
        let q = ts(&[0, 1, 2]);
        let cases: &[(&[u32], f64)] = &[
            (&[0, 1], 1.1),
            (&[0, 1, 2], 1.9),
            (&[2, 3, 4], 0.8),
            (&[1, 2, 4], 1.1),
            (&[0, 1, 4], 1.1),
        ];
        for (ids, expect) in cases {
            let o = ts(ids);
            assert!(
                (intersection_weight(&q, &o, &w) - expect).abs() < 1e-12,
                "object {ids:?}"
            );
        }
    }

    #[test]
    fn figure4_threshold_ct() {
        // τT = 0.3, Σ_{t∈q} w(t) = 1.9 ⇒ cT = 0.57.
        let w = fig1_weights();
        let q = ts(&[0, 1, 2]);
        let ct = signature_threshold(&q, &w, 0.3);
        assert!((ct - 0.57).abs() < 1e-12);
    }

    #[test]
    fn jaccard_bounds_and_symmetry() {
        let w = fig1_weights();
        let a = ts(&[0, 2, 4]);
        let b = ts(&[1, 2, 3]);
        let s = weighted_jaccard(&a, &b, &w);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(s, weighted_jaccard(&b, &a, &w));
        assert_eq!(weighted_jaccard(&a, &a, &w), 1.0);
    }

    #[test]
    fn empty_set_conventions() {
        let w = UniformWeights;
        let e = TokenSet::empty();
        let a = ts(&[1]);
        assert_eq!(weighted_jaccard(&e, &e, &w), 1.0);
        assert_eq!(weighted_jaccard(&a, &e, &w), 0.0);
    }

    #[test]
    fn uniform_jaccard_counts_tokens() {
        let w = UniformWeights;
        let a = ts(&[1, 2]);
        let b = ts(&[2, 3]);
        assert!((weighted_jaccard(&a, &b, &w) - 1.0 / 3.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{IdfWeights, TokenId, UniformWeights};
    use proptest::prelude::*;

    fn arb_set() -> impl Strategy<Value = TokenSet> {
        proptest::collection::vec(0u32..50, 0..20)
            .prop_map(|v| TokenSet::from_ids(v.into_iter().map(TokenId)))
    }

    fn arb_weights() -> impl Strategy<Value = IdfWeights> {
        proptest::collection::vec(0.01f64..10.0, 50..51).prop_map(IdfWeights::from_values)
    }

    proptest! {
        #[test]
        fn jaccard_in_unit_interval(a in arb_set(), b in arb_set()) {
            let s = weighted_jaccard(&a, &b, &UniformWeights);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn jaccard_symmetric(a in arb_set(), b in arb_set()) {
            let w = UniformWeights;
            prop_assert!((weighted_jaccard(&a, &b, &w) - weighted_jaccard(&b, &a, &w)).abs() < 1e-12);
        }

        #[test]
        fn jaccard_reflexive(a in arb_set()) {
            prop_assert_eq!(weighted_jaccard(&a, &a, &UniformWeights), 1.0);
        }

        #[test]
        fn unweighted_jaccard_matches_set_counts(a in arb_set(), b in arb_set()) {
            let w = UniformWeights;
            let expect = if a.union_size(&b) == 0 {
                1.0
            } else {
                a.intersection_size(&b) as f64 / a.union_size(&b) as f64
            };
            prop_assert!((weighted_jaccard(&a, &b, &w) - expect).abs() < 1e-12);
        }

        #[test]
        fn jaccard_at_tau_implies_signature_threshold(
            q in arb_set(),
            o in arb_set(),
            w in arb_weights(),
            tau in 0.0f64..1.0,
        ) {
            // Section 3.2's bound, at a random τ and at the tightest τ
            // (the pair's own similarity).
            let sim = weighted_jaccard(&q, &o, &w);
            let iw = intersection_weight(&q, &o, &w);
            let slack = 1e-9 * w.set_weight(&q).max(1.0);
            for tau in [tau, sim] {
                if sim >= tau {
                    prop_assert!(iw + slack >= signature_threshold(&q, &w, tau));
                }
            }
        }
    }
}
