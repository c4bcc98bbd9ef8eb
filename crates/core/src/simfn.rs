//! Combined spatio-textual similarity evaluation.

use crate::{Query, RoiObject};
use seal_geom::{Rect, SpatialSim};
use seal_text::{similarity::TextualSimFn, TokenSet, TokenWeights};

/// Which spatial similarity function a deployment uses (Definition 1
/// plus the Dice extension the paper notes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpatialSimFn {
    /// Spatial Jaccard `|a∩b|/|a∪b|` (the paper's default).
    Jaccard,
    /// Spatial Dice `2|a∩b|/(|a|+|b|)`.
    Dice,
}

impl SpatialSimFn {
    /// Evaluates the function on two regions.
    pub fn eval(self, a: &Rect, b: &Rect) -> f64 {
        match self {
            SpatialSimFn::Jaccard => a.jaccard(b),
            SpatialSimFn::Dice => a.dice(b),
        }
    }

    /// The overlap-area threshold `c_R` derived from `τ_R` for query
    /// region `q` — the bound of Section 4.1 (`c_R = τ_R · |q.R|`).
    ///
    /// Safety: `sim(q,o) ≥ τ` must imply `|q∩o| ≥ c_R`.
    /// * Jaccard: `|q∩o| ≥ τ·|q∪o| ≥ τ·|q.R|`.
    /// * Dice: `|q∩o| ≥ τ·(|q|+|o|)/2 ≥ τ·|q.R|/2`.
    pub fn overlap_threshold(self, q: &Rect, tau: f64) -> f64 {
        match self {
            SpatialSimFn::Jaccard => tau * q.area(),
            SpatialSimFn::Dice => tau * q.area() / 2.0,
        }
    }
}

/// The pair of similarity functions a SEAL deployment is configured
/// with. Defaults to the paper's Jaccard/weighted-Jaccard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimilarityConfig {
    /// Spatial function.
    pub spatial: SpatialSimFn,
    /// Textual function.
    pub textual: TextualSimFn,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig {
            spatial: SpatialSimFn::Jaccard,
            textual: TextualSimFn::Jaccard,
        }
    }
}

/// Rejects NaN similarity scores at the evaluation boundary — the
/// same policy `Arena::push_row` applies to index bounds at insert
/// time. Every score consumer (the answer predicate, `search_top_k`'s
/// `total_cmp` ranking) assumes a NaN-free domain; a NaN that slipped
/// through would order arbitrarily rather than fail loudly, so it is
/// stopped here, at the one place scores are produced.
#[inline]
fn check_sim(s: f64, what: &str) -> f64 {
    assert!(
        !s.is_nan(),
        "NaN {what} similarity rejected at the simfn boundary"
    );
    s
}

impl SimilarityConfig {
    /// Spatial similarity between a query and an object.
    ///
    /// # Panics
    /// If the configured function evaluates to NaN (cannot happen for
    /// the built-in Jaccard/Dice over valid rectangles; the check
    /// guards the total-order contract downstream).
    #[inline]
    pub fn spatial_sim(&self, q: &Query, o: &RoiObject) -> f64 {
        check_sim(self.spatial.eval(&q.region, &o.region), "spatial")
    }

    /// Textual similarity between a query and an object.
    ///
    /// # Panics
    /// If the configured function evaluates to NaN (see
    /// [`spatial_sim`](Self::spatial_sim)).
    #[inline]
    pub fn textual_sim<W: TokenWeights>(&self, q: &Query, o: &RoiObject, w: &W) -> f64 {
        check_sim(self.textual.eval(&q.tokens, &o.tokens, w), "textual")
    }

    /// The full answer predicate of Definition 3.
    #[inline]
    pub fn is_answer<W: TokenWeights>(&self, q: &Query, o: &RoiObject, w: &W) -> bool {
        // Spatial first: the area test is a handful of flops while the
        // textual test walks two token lists.
        self.spatial_sim(q, o) >= q.tau_spatial && self.textual_sim(q, o, w) >= q.tau_textual
    }

    /// `c_R` for a query (Section 4.1).
    #[inline]
    pub fn spatial_threshold(&self, q: &Query) -> f64 {
        self.spatial.overlap_threshold(&q.region, q.tau_spatial)
    }

    /// `c_T` for a query (Section 3.2).
    #[inline]
    pub fn textual_threshold<W: TokenWeights>(&self, q: &Query, w: &W) -> f64 {
        self.textual
            .signature_threshold(&q.tokens, w, q.tau_textual)
    }

    /// `c_T` for an explicit token set (used when bounding tree nodes
    /// in the IR-tree baseline).
    #[inline]
    pub fn textual_threshold_for<W: TokenWeights>(
        &self,
        tokens: &TokenSet,
        w: &W,
        tau: f64,
    ) -> f64 {
        self.textual.signature_threshold(tokens, w, tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_text::{IdfWeights, TokenId};

    fn fig1_weights() -> IdfWeights {
        IdfWeights::from_values(vec![0.8, 0.3, 0.8, 1.3, 0.6])
    }

    fn query() -> Query {
        // Figure 1's query: Rq with tokens {t1,t2,t3}, τR=0.25, τT=0.3.
        Query::with_token_ids(
            Rect::new(20.0, 30.0, 80.0, 90.0).unwrap(),
            [TokenId(0), TokenId(1), TokenId(2)],
            0.25,
            0.3,
        )
        .unwrap()
    }

    #[test]
    fn example1_answer_decision() {
        let cfg = SimilarityConfig::default();
        let w = fig1_weights();
        let q = query();
        // o2 = same tokens as q, heavily-overlapping region.
        let o2 = RoiObject::new(
            Rect::new(10.0, 20.0, 70.0, 80.0).unwrap(),
            TokenSet::from_ids([TokenId(0), TokenId(1), TokenId(2)]),
        );
        assert_eq!(cfg.textual_sim(&q, &o2, &w), 1.0);
        assert!(cfg.spatial_sim(&q, &o2) >= 0.25);
        assert!(cfg.is_answer(&q, &o2, &w));
        // o1 = good tokens, poor region.
        let o1 = RoiObject::new(
            Rect::new(70.0, 80.0, 95.0, 95.0).unwrap(),
            TokenSet::from_ids([TokenId(0), TokenId(1)]),
        );
        assert!(cfg.textual_sim(&q, &o1, &w) >= 0.3);
        assert!(cfg.spatial_sim(&q, &o1) < 0.25);
        assert!(!cfg.is_answer(&q, &o1, &w));
    }

    #[test]
    fn thresholds_match_paper_formulas() {
        let cfg = SimilarityConfig::default();
        let w = fig1_weights();
        let q = query();
        // cR = τR · |q.R| = 0.25 · 3600 = 900.
        assert!((cfg.spatial_threshold(&q) - 900.0).abs() < 1e-9);
        // cT = τT · Σ w = 0.3 · 1.9 = 0.57.
        assert!((cfg.textual_threshold(&q, &w) - 0.57).abs() < 1e-12);
    }

    #[test]
    fn dice_threshold_is_halved() {
        let q = query();
        let j = SpatialSimFn::Jaccard.overlap_threshold(&q.region, 0.4);
        let d = SpatialSimFn::Dice.overlap_threshold(&q.region, 0.4);
        assert!((d - j / 2.0).abs() < 1e-9);
    }

    #[test]
    fn dice_threshold_is_safe() {
        // For any pair: dice ≥ τ ⇒ overlap ≥ τ|q|/2.
        let q = Rect::new(0.0, 0.0, 10.0, 10.0).unwrap();
        for (ox, size) in [(2.0, 12.0), (5.0, 6.0), (0.0, 10.0), (8.0, 30.0)] {
            let o = Rect::new(ox, 0.0, ox + size, size).unwrap();
            let dice = SpatialSimFn::Dice.eval(&q, &o);
            if dice > 0.0 {
                let c = SpatialSimFn::Dice.overlap_threshold(&q, dice);
                assert!(q.intersection_area(&o) + 1e-9 >= c);
            }
        }
    }
}
