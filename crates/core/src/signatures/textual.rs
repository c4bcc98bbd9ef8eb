//! Textual signatures (Section 3.2) ordered for prefix filtering
//! (Section 4.2's "Sig-Filter+ can be also applied to textual
//! signatures").

use crate::signatures::{Signature, SignatureElement};
use seal_text::{GlobalTokenOrder, TokenId, TokenSet, TokenWeights};

/// A token with its idf weight, in global (descending-idf) order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextualElement {
    /// The token.
    pub token: TokenId,
    /// Its weight `w(t)`.
    pub weight: f64,
}

impl SignatureElement for TextualElement {
    #[inline]
    fn weight(&self) -> f64 {
        self.weight
    }
}

/// A textual signature: the object's tokens sorted by the global order,
/// with weights and Lemma 3 suffix bounds.
pub type TextualSignature = Signature<TextualElement>;

impl Signature<TextualElement> {
    /// Builds the signature of a token set.
    pub fn build<W: TokenWeights>(
        tokens: &TokenSet,
        weights: &W,
        order: &GlobalTokenOrder,
    ) -> Self {
        let mut sig = Self::default();
        sig.rebuild(tokens, weights, order);
        sig
    }

    /// [`build`](Self::build) into an existing signature, reusing its
    /// buffers (the per-query path: no allocation once they have grown
    /// to the longest token set seen).
    pub fn rebuild<W: TokenWeights>(
        &mut self,
        tokens: &TokenSet,
        weights: &W,
        order: &GlobalTokenOrder,
    ) {
        self.refill(|elements| {
            elements.extend(tokens.iter().map(|token| TextualElement {
                token,
                weight: weights.weight(token),
            }));
            // Ranks are distinct, so the unstable sort is deterministic
            // (and, unlike the stable one, never allocates).
            elements.sort_unstable_by_key(|e| order.rank(e.token));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_text::IdfWeights;

    fn fig1() -> (IdfWeights, GlobalTokenOrder) {
        let w = IdfWeights::from_values(vec![0.8, 0.3, 0.8, 1.3, 0.6]);
        let order = GlobalTokenOrder::by_descending_weight(5, &w);
        (w, order)
    }

    #[test]
    fn signature_is_sorted_by_descending_idf() {
        let (w, order) = fig1();
        // o2's tokens {t1,t2,t3} = ids {0,1,2}; descending idf with id
        // tie-break: t1(0.8), t3(0.8), t2(0.3) — matching Figure 4's
        // ST(o2) = {t1, t3, t2}.
        let s = TextualSignature::build(
            &TokenSet::from_ids([TokenId(0), TokenId(1), TokenId(2)]),
            &w,
            &order,
        );
        let toks: Vec<TokenId> = s.elements().iter().map(|e| e.token).collect();
        assert_eq!(toks, vec![TokenId(0), TokenId(2), TokenId(1)]);
    }

    #[test]
    fn bounds_are_suffix_weights() {
        let (w, order) = fig1();
        let s = TextualSignature::build(
            &TokenSet::from_ids([TokenId(0), TokenId(1), TokenId(2)]),
            &w,
            &order,
        );
        // Suffix sums over (0.8, 0.8, 0.3): 1.9, 1.1, 0.3.
        assert!((s.bound(0) - 1.9).abs() < 1e-12);
        assert!((s.bound(1) - 1.1).abs() < 1e-12);
        assert!((s.bound(2) - 0.3).abs() < 1e-12);
        assert!((s.total_weight() - 1.9).abs() < 1e-12);
    }

    #[test]
    fn prefix_for_figure4_threshold() {
        let (w, order) = fig1();
        let s = TextualSignature::build(
            &TokenSet::from_ids([TokenId(0), TokenId(1), TokenId(2)]),
            &w,
            &order,
        );
        // cT = 0.57: dropping t2 alone loses 0.3 < 0.57, dropping
        // {t3, t2} loses 1.1 ≥ 0.57 — prefix is {t1, t3}, exactly the
        // lists Figure 4 probes ("we only retrieve inverted lists of t1
        // and t3").
        let p = s.prefix(0.57);
        let toks: Vec<TokenId> = p.iter().map(|e| e.token).collect();
        assert_eq!(toks, vec![TokenId(0), TokenId(2)]);
    }

    #[test]
    fn empty_signature() {
        let (w, order) = fig1();
        let s = TextualSignature::build(&TokenSet::empty(), &w, &order);
        assert!(s.elements().is_empty());
        assert_eq!(s.total_weight(), 0.0);
        assert!(s.prefix(0.1).is_empty());
    }

    #[test]
    fn elements_with_bounds_pairs_up() {
        let (w, order) = fig1();
        let s = TextualSignature::build(&TokenSet::from_ids([TokenId(3), TokenId(4)]), &w, &order);
        let pairs: Vec<(TokenId, f64)> = s
            .elements_with_bounds()
            .map(|(e, b)| (e.token, b))
            .collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, TokenId(3));
        assert!((pairs[0].1 - 1.9).abs() < 1e-12);
        assert!((pairs[1].1 - 0.6).abs() < 1e-12);
    }
}
