//! Weighted token-set similarity functions.
//!
//! Definition 2 of the paper uses the weighted Jaccard coefficient;
//! Section 2.1 notes that Dice, Cosine, etc. from the string-similarity
//! literature are drop-in alternatives, so we provide them all behind the
//! same `(&TokenSet, &TokenSet, &W)` shape.

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

/// Weighted Dice similarity `2·Σ_{a∩b} w / (Σ_a w + Σ_b w)`.
pub fn weighted_dice<W: TokenWeights>(a: &TokenSet, b: &TokenSet, w: &W) -> f64 {
    let denom = w.set_weight(a) + w.set_weight(b);
    if denom <= 0.0 {
        return if a == b { 1.0 } else { 0.0 };
    }
    2.0 * intersection_weight(a, b, w) / denom
}

/// Weighted Cosine similarity `Σ_{a∩b} w / sqrt(Σ_a w · Σ_b w)`.
pub fn weighted_cosine<W: TokenWeights>(a: &TokenSet, b: &TokenSet, w: &W) -> f64 {
    let denom = (w.set_weight(a) * w.set_weight(b)).sqrt();
    if denom <= 0.0 {
        return if a == b { 1.0 } else { 0.0 };
    }
    intersection_weight(a, b, w) / denom
}

/// Weighted overlap coefficient `Σ_{a∩b} w / min(Σ_a w, Σ_b w)`.
pub fn weighted_overlap<W: TokenWeights>(a: &TokenSet, b: &TokenSet, w: &W) -> f64 {
    let denom = w.set_weight(a).min(w.set_weight(b));
    if denom <= 0.0 {
        return if a == b { 1.0 } else { 0.0 };
    }
    intersection_weight(a, b, w) / denom
}

/// Which textual similarity function a SEAL deployment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextualSimFn {
    /// Weighted Jaccard (the paper's default, Definition 2).
    Jaccard,
    /// Weighted Dice.
    Dice,
    /// Weighted Cosine.
    Cosine,
    /// Weighted overlap coefficient.
    Overlap,
}

impl TextualSimFn {
    /// Evaluates the chosen function.
    pub fn eval<W: TokenWeights>(self, a: &TokenSet, b: &TokenSet, w: &W) -> f64 {
        match self {
            TextualSimFn::Jaccard => weighted_jaccard(a, b, w),
            TextualSimFn::Dice => weighted_dice(a, b, w),
            TextualSimFn::Cosine => weighted_cosine(a, b, w),
            TextualSimFn::Overlap => weighted_overlap(a, b, w),
        }
    }

    /// The signature-similarity threshold `c_T` derived from a textual
    /// threshold `τ_T` for a query set `q` (Section 3.2 for Jaccard;
    /// the analogous prefix-filtering bounds for the other functions).
    ///
    /// The bound must satisfy: `sim(q,o) ≥ τ` ⇒
    /// `Σ_{t∈q∩o} w(t) ≥ c_T`. For Jaccard the paper uses
    /// `c_T = τ · Σ_{t∈q} w(t)`; Dice gives `τ/2 · Σ_q w`; Cosine gives
    /// `τ · sqrt(Σ_q w · w_min_other)` which we relax to the safe
    /// `τ² · Σ_q w` lower bound; Overlap cannot be bounded by the query
    /// weight alone, so its safe bound is 0 (no textual pruning).
    pub fn signature_threshold<W: TokenWeights>(self, q: &TokenSet, w: &W, tau: f64) -> f64 {
        let qw = w.set_weight(q);
        match self {
            TextualSimFn::Jaccard => tau * qw,
            TextualSimFn::Dice => tau * qw / 2.0,
            // cosine(q,o) ≥ τ ⇒ I ≥ τ·sqrt(Wq·Wo) ≥ τ·sqrt(Wq·I)
            // (since Wo ≥ I) ⇒ I ≥ τ²·Wq.
            TextualSimFn::Cosine => tau * tau * qw,
            TextualSimFn::Overlap => 0.0,
        }
    }
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
        let ct = TextualSimFn::Jaccard.signature_threshold(&q, &w, 0.3);
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
        assert_eq!(weighted_dice(&e, &e, &w), 1.0);
        assert_eq!(weighted_cosine(&a, &e, &w), 0.0);
        assert_eq!(weighted_overlap(&e, &e, &w), 1.0);
    }

    #[test]
    fn dice_vs_jaccard_ordering() {
        // Dice ≥ Jaccard for any pair (standard identity d = 2j/(1+j)).
        let w = fig1_weights();
        let a = ts(&[0, 1, 4]);
        let b = ts(&[1, 2, 3]);
        let j = weighted_jaccard(&a, &b, &w);
        let d = weighted_dice(&a, &b, &w);
        assert!(d >= j);
        assert!((d - 2.0 * j / (1.0 + j)).abs() < 1e-12);
    }

    #[test]
    fn cosine_and_overlap_reflexive() {
        let w = fig1_weights();
        let a = ts(&[0, 3]);
        assert!((weighted_cosine(&a, &a, &w) - 1.0).abs() < 1e-12);
        assert!((weighted_overlap(&a, &a, &w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_bounds_are_safe() {
        // For each function: sim(q,o) ≥ τ must imply
        // intersection_weight ≥ signature_threshold.
        let w = fig1_weights();
        let q = ts(&[0, 1, 2, 3]);
        let candidates: Vec<TokenSet> = vec![
            ts(&[0]),
            ts(&[0, 1]),
            ts(&[1, 2, 3]),
            ts(&[0, 1, 2, 3]),
            ts(&[2, 3, 4]),
            ts(&[4]),
        ];
        for f in [
            TextualSimFn::Jaccard,
            TextualSimFn::Dice,
            TextualSimFn::Cosine,
            TextualSimFn::Overlap,
        ] {
            for tau in [0.1, 0.3, 0.5, 0.8] {
                let c = f.signature_threshold(&q, &w, tau);
                for o in &candidates {
                    let sim = f.eval(&q, o, &w);
                    if sim >= tau {
                        let iw = intersection_weight(&q, o, &w);
                        assert!(
                            iw + 1e-12 >= c,
                            "{f:?} τ={tau}: sim={sim} but I={iw} < c={c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eval_dispatch() {
        let w = UniformWeights;
        let a = ts(&[1, 2]);
        let b = ts(&[2, 3]);
        assert!((TextualSimFn::Jaccard.eval(&a, &b, &w) - 1.0 / 3.0).abs() < 1e-12);
        assert!((TextualSimFn::Dice.eval(&a, &b, &w) - 0.5).abs() < 1e-12);
        assert!((TextualSimFn::Cosine.eval(&a, &b, &w) - 0.5).abs() < 1e-12);
        assert!((TextualSimFn::Overlap.eval(&a, &b, &w) - 0.5).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{TokenId, UniformWeights};
    use proptest::prelude::*;

    fn arb_set() -> impl Strategy<Value = TokenSet> {
        proptest::collection::vec(0u32..50, 0..20)
            .prop_map(|v| TokenSet::from_ids(v.into_iter().map(TokenId)))
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
    }
}
