//! Token weighting (idf) as defined in Section 2.1 of the paper.

use crate::{TokenId, TokenSet};

/// Anything that can assign a non-negative weight to a token.
///
/// The similarity functions and signature generators are generic over
/// this trait so tests can use [`UniformWeights`] while production code
/// uses corpus [`IdfWeights`].
pub trait TokenWeights {
    /// The weight `w(t) ≥ 0` of a token.
    fn weight(&self, t: TokenId) -> f64;

    /// Total weight of a token set, `Σ_{t∈S} w(t)`.
    fn set_weight(&self, s: &TokenSet) -> f64 {
        s.iter().map(|t| self.weight(t)).sum()
    }
}

/// Every token weighs 1.0 — plain (unweighted) Jaccard.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformWeights;

impl TokenWeights for UniformWeights {
    #[inline]
    fn weight(&self, _t: TokenId) -> f64 {
        1.0
    }
}

/// Inverse-document-frequency weights:
/// `w(t) = ln(|O| / count(t, O))` (Section 2.1).
///
/// Tokens never seen in the corpus (e.g. brand-new query keywords) fall
/// back to the weight of a frequency-1 token, `ln(|O|)`, which is the
/// natural limit of the formula and keeps query weights finite.
#[derive(Debug, Clone)]
pub struct IdfWeights {
    weights: Vec<f64>,
    fallback: f64,
    corpus_size: usize,
}

impl IdfWeights {
    /// Computes idf weights from a corpus of token-id documents.
    ///
    /// `vocab_size` must be at least the number of distinct ids used (the
    /// dictionary's `len()`); `count(t, O)` is the number of *documents*
    /// containing `t`, exactly the paper's `count`.
    pub fn from_corpus<'a, I, D>(vocab_size: usize, docs: I) -> Self
    where
        I: IntoIterator<Item = D>,
        D: IntoIterator<Item = &'a TokenId>,
    {
        let mut df = vec![0u64; vocab_size];
        let mut n: usize = 0;
        let mut seen: Vec<u32> = Vec::new();
        for doc in docs {
            n += 1;
            seen.clear();
            for &t in doc {
                seen.push(t.0);
            }
            seen.sort_unstable();
            seen.dedup();
            for &t in &seen {
                if let Some(slot) = df.get_mut(t as usize) {
                    *slot += 1;
                }
            }
        }
        Self::from_document_frequencies(n, &df)
    }

    /// Builds weights from precomputed document frequencies.
    pub fn from_document_frequencies(corpus_size: usize, df: &[u64]) -> Self {
        let n = corpus_size.max(1) as f64;
        let weights = df
            .iter()
            .map(|&c| {
                if c == 0 {
                    n.ln()
                } else {
                    // Frequencies above |O| (shouldn't happen, but defend
                    // against caller bugs) clamp to weight 0.
                    (n / c as f64).ln().max(0.0)
                }
            })
            .collect();
        IdfWeights {
            weights,
            fallback: n.ln(),
            corpus_size,
        }
    }

    /// Builds weights from explicit per-token values (used by tests and
    /// by the paper's worked example where idfs are given directly).
    pub fn from_values(values: Vec<f64>) -> Self {
        let fallback = values.iter().copied().fold(0.0_f64, f64::max);
        IdfWeights {
            weights: values,
            fallback,
            corpus_size: 0,
        }
    }

    /// Rebuilds weights from what [`values`](Self::values),
    /// [`fallback`](Self::fallback) and [`corpus_size`](Self::corpus_size)
    /// return (a persisted copy).
    pub fn from_parts(values: Vec<f64>, fallback: f64, corpus_size: usize) -> Self {
        IdfWeights {
            weights: values,
            fallback,
            corpus_size,
        }
    }

    /// The per-token weights, in token-id order.
    pub fn values(&self) -> &[f64] {
        &self.weights
    }

    /// The weight of a token beyond the weighted vocabulary.
    pub fn fallback(&self) -> f64 {
        self.fallback
    }

    /// Number of documents the weights were computed from.
    pub fn corpus_size(&self) -> usize {
        self.corpus_size
    }

    /// Number of weighted tokens.
    pub fn vocab_size(&self) -> usize {
        self.weights.len()
    }
}

impl TokenWeights for IdfWeights {
    #[inline]
    fn weight(&self, t: TokenId) -> f64 {
        self.weights
            .get(t.index())
            .copied()
            .unwrap_or(self.fallback)
    }
}

impl<W: TokenWeights + ?Sized> TokenWeights for &W {
    #[inline]
    fn weight(&self, t: TokenId) -> f64 {
        (**self).weight(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(ids: &[u32]) -> Vec<TokenId> {
        ids.iter().map(|&i| TokenId(i)).collect()
    }

    #[test]
    fn idf_matches_paper_formula() {
        // 4 documents; token 0 appears in 2 of them: w = ln(4/2) = ln 2.
        let docs = [doc(&[0, 1]), doc(&[0]), doc(&[1]), doc(&[2])];
        let w = IdfWeights::from_corpus(3, docs.iter());
        assert!((w.weight(TokenId(0)) - (2.0f64).ln()).abs() < 1e-12);
        assert!((w.weight(TokenId(1)) - (2.0f64).ln()).abs() < 1e-12);
        assert!((w.weight(TokenId(2)) - (4.0f64).ln()).abs() < 1e-12);
        assert_eq!(w.corpus_size(), 4);
        assert_eq!(w.vocab_size(), 3);
    }

    #[test]
    fn duplicate_tokens_in_a_document_count_once() {
        let docs = [doc(&[0, 0, 0]), doc(&[1])];
        let w = IdfWeights::from_corpus(2, docs.iter());
        // df(0) = 1, not 3.
        assert!((w.weight(TokenId(0)) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn unseen_token_falls_back_to_max_idf() {
        let docs = [doc(&[0]), doc(&[0])];
        let w = IdfWeights::from_corpus(1, docs.iter());
        // Query asks about TokenId(7), never interned: fallback ln(2).
        assert!((w.weight(TokenId(7)) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn zero_df_token_gets_max_weight() {
        let w = IdfWeights::from_document_frequencies(8, &[0, 8, 4]);
        assert!((w.weight(TokenId(0)) - (8.0f64).ln()).abs() < 1e-12);
        assert_eq!(w.weight(TokenId(1)), 0.0, "ubiquitous token weighs 0");
        assert!((w.weight(TokenId(2)) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn from_values_paper_figure1() {
        // Figure 1's published idfs: t1:0.8 t2:0.3 t3:0.8 t4:1.3 t5:0.6.
        let w = IdfWeights::from_values(vec![0.8, 0.3, 0.8, 1.3, 0.6]);
        assert_eq!(w.weight(TokenId(3)), 1.3);
        let s = TokenSet::from_ids([TokenId(0), TokenId(1), TokenId(2)]);
        // w(q.T) for q = {t1,t2,t3} is 1.9 (used by Figure 4's cT).
        assert!((w.set_weight(&s) - 1.9).abs() < 1e-12);
    }

    #[test]
    fn uniform_weights() {
        let w = UniformWeights;
        assert_eq!(w.weight(TokenId(42)), 1.0);
        let s = TokenSet::from_ids([TokenId(1), TokenId(2), TokenId(3)]);
        assert_eq!(w.set_weight(&s), 3.0);
    }

    #[test]
    fn weights_by_reference() {
        fn total<W: TokenWeights>(w: W, s: &TokenSet) -> f64 {
            w.set_weight(s)
        }
        let w = UniformWeights;
        let s = TokenSet::from_ids([TokenId(0), TokenId(1)]);
        assert_eq!(total(w, &s), 2.0);
    }
}
