//! The spatio-textual similarity query model (Definition 3).

use seal_geom::Rect;
use seal_text::{TokenId, TokenSet};
use std::fmt;

/// Errors raised when constructing a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A threshold outside `(0, 1]`.
    ///
    /// The paper evaluates thresholds in `[0.1, 0.5]`; zero thresholds
    /// would make the signature filters incomplete (an object sharing
    /// *no* signature element with the query could still qualify), so
    /// they are rejected at construction.
    ThresholdOutOfRange {
        /// Name of the offending threshold ("spatial" or "textual").
        which: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::ThresholdOutOfRange { which, value } => {
                write!(f, "{which} threshold {value} must lie in (0, 1]")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A spatio-textual similarity search query
/// `q = (R, T, τ_R, τ_T)` (Definition 3): find all objects with
/// `simR(q,o) ≥ τ_R` **and** `simT(q,o) ≥ τ_T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The query region `q.R`.
    pub region: Rect,
    /// The query token set `q.T`.
    pub tokens: TokenSet,
    /// Spatial similarity threshold `τ_R ∈ (0, 1]`.
    pub tau_spatial: f64,
    /// Textual similarity threshold `τ_T ∈ (0, 1]`.
    pub tau_textual: f64,
}

impl Query {
    /// Creates a query, validating the thresholds.
    pub fn new(
        region: Rect,
        tokens: TokenSet,
        tau_spatial: f64,
        tau_textual: f64,
    ) -> Result<Self, QueryError> {
        for (which, value) in [("spatial", tau_spatial), ("textual", tau_textual)] {
            if !(value > 0.0 && value <= 1.0) {
                return Err(QueryError::ThresholdOutOfRange { which, value });
            }
        }
        Ok(Query {
            region,
            tokens,
            tau_spatial,
            tau_textual,
        })
    }

    /// Builder-style constructor from raw token ids.
    pub fn with_token_ids<I: IntoIterator<Item = TokenId>>(
        region: Rect,
        ids: I,
        tau_spatial: f64,
        tau_textual: f64,
    ) -> Result<Self, QueryError> {
        Query::new(region, TokenSet::from_ids(ids), tau_spatial, tau_textual)
    }

    /// A copy of this query with different thresholds (the benchmark
    /// sweeps reuse one workload across thresholds).
    pub fn with_thresholds(&self, tau_spatial: f64, tau_textual: f64) -> Result<Self, QueryError> {
        Query::new(self.region, self.tokens.clone(), tau_spatial, tau_textual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Rect {
        Rect::new(0.0, 0.0, 10.0, 10.0).unwrap()
    }

    #[test]
    fn valid_query() {
        let q = Query::with_token_ids(region(), [TokenId(1)], 0.25, 0.3).unwrap();
        assert_eq!(q.tau_spatial, 0.25);
        assert_eq!(q.tau_textual, 0.3);
        assert_eq!(q.tokens.len(), 1);
    }

    #[test]
    fn rejects_zero_and_out_of_range_thresholds() {
        for (tr, tt) in [(0.0, 0.3), (0.3, 0.0), (-0.1, 0.3), (0.3, 1.5)] {
            let e = Query::with_token_ids(region(), [TokenId(1)], tr, tt).unwrap_err();
            assert!(matches!(e, QueryError::ThresholdOutOfRange { .. }));
        }
    }

    #[test]
    fn boundary_threshold_one_is_allowed() {
        assert!(Query::with_token_ids(region(), [TokenId(1)], 1.0, 1.0).is_ok());
    }

    #[test]
    fn with_thresholds_preserves_content() {
        let q = Query::with_token_ids(region(), [TokenId(1), TokenId(2)], 0.2, 0.2).unwrap();
        let q2 = q.with_thresholds(0.5, 0.4).unwrap();
        assert_eq!(q2.tokens, q.tokens);
        assert_eq!(q2.region, q.region);
        assert_eq!(q2.tau_spatial, 0.5);
    }

    #[test]
    fn error_display() {
        let e = Query::with_token_ids(region(), [TokenId(1)], 0.0, 0.5).unwrap_err();
        assert!(e.to_string().contains("spatial"));
    }
}
