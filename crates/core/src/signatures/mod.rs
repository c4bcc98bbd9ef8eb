//! Signature generation (Sections 3–5).
//!
//! A *signature* maps an object or query to a set of elements such that
//! similar pairs must share elements. Four schemes from the paper:
//!
//! * [`textual`] — tokens, ordered by descending idf (Section 3.2).
//! * [`grid`] — grid cells with overlap-area weights, ordered by
//!   ascending `count(g)` (Section 4).
//! * [`hash_hybrid`] — hashed `(token, cell)` pairs with dual bounds
//!   (Section 5.1).
//! * [`hierarchical`] — per-token hierarchical grids selected by
//!   `HSS-Greedy` (Section 5.2).
//!
//! This module hosts the two primitives everything shares:
//! [`suffix_sums`] (Lemma 3's threshold bounds) and [`prefix_len`]
//! (Lemma 2's prefix selection).

pub mod grid;
pub mod hash_hybrid;
pub mod hierarchical;
pub mod textual;

/// Conservatively relaxes a signature-similarity threshold before it is
/// used for pruning.
///
/// Signature weights are sums of many floating-point areas (grid-cell
/// overlaps), so an object that satisfies the similarity predicate
/// *exactly* (e.g. a self-query at `τ = 1`) can have a signature weight
/// a few ULPs below the analytic threshold. Lowering the threshold by a
/// relative 1e-9 (plus an absolute 1e-12 for thresholds near zero) only
/// widens the candidate superset — verification still applies the exact
/// predicate — so correctness is preserved and the FP edge disappears.
#[inline]
pub fn relax(c: f64) -> f64 {
    c * (1.0 - 1e-9) - 1e-12
}

/// `suffix[i] = Σ_{j ≥ i} weights[j]` — the threshold bound `c_{s_i}(o)`
/// of Lemma 3 for the element at position `i` of a signature already
/// sorted by the global order.
///
/// The returned vector has the same length as the input and is
/// non-increasing (weights are non-negative).
pub fn suffix_sums(weights: &[f64]) -> Vec<f64> {
    let mut out = weights.to_vec();
    accumulate_suffix(&mut out);
    out
}

/// [`suffix_sums`] in place: replaces each weight by the sum of itself
/// and everything after it, adding from the back.
fn accumulate_suffix(weights: &mut [f64]) {
    let mut acc = 0.0;
    for w in weights.iter_mut().rev() {
        acc += *w;
        *w = acc;
    }
}

/// Lemma 2's prefix length: the number of leading elements to keep so
/// that the *dropped* suffix weighs less than `c`. Equivalently, the
/// number of positions whose suffix sum (element included) is ≥ `c`.
///
/// `suffix` must be non-increasing (the output of [`suffix_sums`]).
/// For `c ≤ 0` the whole signature is the prefix (no pruning is sound
/// when the threshold is trivial).
pub fn prefix_len(suffix: &[f64], c: f64) -> usize {
    suffix.partition_point(|&s| s >= c)
}

/// An element of a [`Signature`]: anything carrying the weight its
/// suffix bounds are summed from.
pub trait SignatureElement: Copy {
    /// The element's weight (`w(t)` for tokens, `|g ∩ R|` for cells).
    fn weight(&self) -> f64;
}

/// A signature with Lemma 2/3 support: elements in their scheme's
/// global order, each paired with its suffix bound. The textual, grid
/// and hierarchical signatures are this type over their element.
///
/// A signature is also its own scratch: `rebuild`-style methods on the
/// concrete aliases refill an existing value in place, so a
/// [`QueryContext`](crate::QueryContext) that owns one per scheme
/// makes signature generation allocation-free once warm.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature<E> {
    elements: Vec<E>,
    suffix: Vec<f64>,
}

impl<E> Default for Signature<E> {
    fn default() -> Self {
        Signature {
            elements: Vec::new(),
            suffix: Vec::new(),
        }
    }
}

impl<E: SignatureElement> Signature<E> {
    /// Replaces the contents: `fill` receives the emptied element
    /// buffer and must leave the new elements in global order; the
    /// suffix bounds are then recomputed from their weights.
    pub(crate) fn refill(&mut self, fill: impl FnOnce(&mut Vec<E>)) {
        self.elements.clear();
        fill(&mut self.elements);
        self.suffix.clear();
        self.suffix.extend(self.elements.iter().map(E::weight));
        accumulate_suffix(&mut self.suffix);
    }

    /// All elements in global order.
    #[inline]
    pub fn elements(&self) -> &[E] {
        &self.elements
    }

    /// The Lemma 3 bound `c_{s_i}` for the element at position `i`.
    #[inline]
    pub fn bound(&self, i: usize) -> f64 {
        self.suffix[i]
    }

    /// Total weight of the signature.
    pub fn total_weight(&self) -> f64 {
        self.suffix.first().copied().unwrap_or(0.0)
    }

    /// The Lemma 2 prefix for threshold `c`.
    pub fn prefix(&self, c: f64) -> &[E] {
        &self.elements[..prefix_len(&self.suffix, c)]
    }

    /// Iterates `(element, bound)` pairs — what index construction
    /// pushes into the inverted lists.
    pub fn elements_with_bounds(&self) -> impl Iterator<Item = (E, f64)> + '_ {
        self.elements
            .iter()
            .copied()
            .zip(self.suffix.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_sums_basic() {
        let s = suffix_sums(&[3.0, 2.0, 1.0]);
        assert_eq!(s, vec![6.0, 3.0, 1.0]);
        assert!(suffix_sums(&[]).is_empty());
    }

    #[test]
    fn suffix_sums_nonincreasing() {
        let s = suffix_sums(&[0.5, 0.0, 2.5, 1.0]);
        assert!(s.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn prefix_len_figure5_example() {
        // Figure 5: SR(q) = {g7,g10,g11,g14,g15,g6} with weights
        // 150,750,450,500,300,250 and cR = 600. The paper selects the
        // prefix {g7,g10,g11,g14}: dropping {g15,g6} loses 550 < 600,
        // while dropping {g14,g15,g6} would lose 1050 ≥ 600.
        let weights = [150.0, 750.0, 450.0, 500.0, 300.0, 250.0];
        let suffix = suffix_sums(&weights);
        assert_eq!(prefix_len(&suffix, 600.0), 4);
    }

    #[test]
    fn prefix_len_boundaries() {
        let suffix = suffix_sums(&[1.0, 1.0, 1.0]);
        assert_eq!(prefix_len(&suffix, 0.0), 3, "trivial threshold keeps all");
        assert_eq!(prefix_len(&suffix, 3.0), 1);
        assert_eq!(prefix_len(&suffix, 3.1), 0, "unreachable threshold");
        assert_eq!(prefix_len(&suffix, 1.0), 3);
        assert_eq!(prefix_len(&suffix, 1.1), 2);
        assert_eq!(prefix_len(&[], 1.0), 0);
    }

    #[test]
    fn prefix_drop_invariant() {
        // Lemma 2: the dropped suffix must weigh < c; keeping one fewer
        // element would drop ≥ c.
        let weights = [5.0, 4.0, 3.0, 2.0, 1.0];
        let suffix = suffix_sums(&weights);
        for c in [0.5, 1.0, 2.5, 3.0, 6.0, 14.9, 15.0, 16.0] {
            let p = prefix_len(&suffix, c);
            let dropped: f64 = weights[p..].iter().sum();
            assert!(
                dropped < c || p == weights.len(),
                "c={c}: dropped {dropped}"
            );
            if p > 0 {
                let one_less: f64 = weights[p - 1..].iter().sum();
                assert!(one_less >= c, "c={c}: prefix not minimal");
            }
        }
    }
}
