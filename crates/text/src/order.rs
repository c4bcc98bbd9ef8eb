//! Global token order for prefix filtering (Section 4.2).
//!
//! Prefix filtering needs every signature sorted by one *global* element
//! order. For textual signatures the paper sorts tokens "in descending
//! order of their idfs": rare (high-weight) tokens come first, so the
//! prefix that must retain weight ≥ c is short and its inverted lists
//! are short too.

use crate::{TokenId, TokenWeights};

/// A fixed permutation of the token-id space giving each token a rank;
/// lower rank = earlier in every signature.
#[derive(Debug, Clone)]
pub struct GlobalTokenOrder {
    /// `rank[token.index()]` = position of the token in the global order.
    rank: Vec<u32>,
}

impl GlobalTokenOrder {
    /// Builds the paper's order: descending weight, ties broken by id so
    /// the order is total and deterministic.
    pub fn by_descending_weight<W: TokenWeights>(vocab_size: usize, weights: &W) -> Self {
        let mut ids: Vec<u32> = (0..vocab_size as u32).collect();
        ids.sort_by(|&a, &b| {
            let (wa, wb) = (weights.weight(TokenId(a)), weights.weight(TokenId(b)));
            // total_cmp: a NaN weight must still yield one total,
            // deterministic permutation (partial_cmp → Equal made the
            // comparator inconsistent, violating sort's contract).
            wb.total_cmp(&wa).then(a.cmp(&b))
        });
        let mut rank = vec![0u32; vocab_size];
        for (pos, &id) in ids.iter().enumerate() {
            rank[id as usize] = pos as u32;
        }
        GlobalTokenOrder { rank }
    }

    /// The rank of a token. Unknown tokens (beyond the vocabulary the
    /// order was built for) sort last, after all ranked tokens.
    #[inline]
    pub fn rank(&self, t: TokenId) -> u64 {
        self.rank
            .get(t.index())
            .map(|&r| u64::from(r))
            .unwrap_or(u64::from(u32::MAX) + 1 + u64::from(t.0))
    }

    /// Sorts a token slice in place by the global order.
    pub fn sort(&self, tokens: &mut [TokenId]) {
        tokens.sort_by_key(|&t| self.rank(t));
    }

    /// Number of tokens the order covers.
    pub fn vocab_size(&self) -> usize {
        self.rank.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdfWeights;

    #[test]
    fn descending_weight_order_matches_figure4() {
        // Figure 1 idfs: t1:0.8 t2:0.3 t3:0.8 t4:1.3 t5:0.6 (ids 0..4).
        // Descending: t4(1.3), t1(0.8), t3(0.8), t5(0.6), t2(0.3);
        // the t1/t3 tie breaks by id. Figure 4's query signature is
        // probed in order t1, t3, t2 — consistent with this order.
        let w = IdfWeights::from_values(vec![0.8, 0.3, 0.8, 1.3, 0.6]);
        let order = GlobalTokenOrder::by_descending_weight(5, &w);
        let mut q = vec![TokenId(0), TokenId(1), TokenId(2)];
        order.sort(&mut q);
        assert_eq!(q, vec![TokenId(0), TokenId(2), TokenId(1)]);
        // Full vocabulary order:
        let mut all: Vec<TokenId> = (0..5).map(TokenId).collect();
        order.sort(&mut all);
        assert_eq!(
            all,
            vec![TokenId(3), TokenId(0), TokenId(2), TokenId(4), TokenId(1)]
        );
    }

    #[test]
    fn nan_weights_still_yield_a_total_deterministic_order() {
        // Regression for the NaN-unsound partial_cmp comparator:
        // `TokenWeights` is a trait, so nothing stops an impl from
        // producing NaN — the order must stay a permutation and be
        // identical across runs regardless.
        let w = IdfWeights::from_values(vec![0.5, f64::NAN, 0.7, f64::NAN, 0.1]);
        let a = GlobalTokenOrder::by_descending_weight(5, &w);
        let b = GlobalTokenOrder::by_descending_weight(5, &w);
        let mut ranks: Vec<u64> = (0..5).map(|i| a.rank(TokenId(i))).collect();
        assert_eq!(
            ranks,
            (0..5).map(|i| b.rank(TokenId(i))).collect::<Vec<u64>>(),
            "deterministic across runs"
        );
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3, 4], "still a permutation");
        // Finite weights keep their relative descending order.
        assert!(a.rank(TokenId(2)) < a.rank(TokenId(0)));
        assert!(a.rank(TokenId(0)) < a.rank(TokenId(4)));
    }

    #[test]
    fn ranks_are_a_permutation() {
        let w = IdfWeights::from_values(vec![0.5, 0.5, 0.5, 0.1]);
        let order = GlobalTokenOrder::by_descending_weight(4, &w);
        let mut ranks: Vec<u64> = (0..4).map(|i| order.rank(TokenId(i))).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unknown_tokens_sort_last_deterministically() {
        let w = IdfWeights::from_values(vec![0.3, 0.2, 0.1]);
        let order = GlobalTokenOrder::by_descending_weight(3, &w);
        assert!(order.rank(TokenId(5)) > order.rank(TokenId(2)));
        assert!(order.rank(TokenId(6)) > order.rank(TokenId(5)));
    }
}
