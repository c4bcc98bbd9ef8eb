//! Posting entries — the *logical* posting structs.
//!
//! Since the SoA refactor these are the staging/sort unit and the
//! materialized row of the columnar views, **not** the frozen storage
//! format: finalized arenas keep parallel id/bound columns (see
//! [`crate::InvertedIndex`]) and the probe path reads columns, never
//! structs.

use crate::ObjId;

/// A posting with a single threshold bound (Lemma 3's `c_s(o)`).
///
/// For the textual index the bound is the residual token weight
/// `Σ_{j≥i} w(t_j)`; for the grid index it is the residual grid weight.
/// Either way the pruning rule is identical: given a query threshold
/// `c`, the posting qualifies iff `bound ≥ c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// The object this posting refers to.
    pub object: ObjId,
    /// The maximum threshold for which the element is still in the
    /// object's signature prefix.
    pub bound: f64,
}

impl Posting {
    /// Convenience constructor.
    #[inline]
    pub fn new(object: ObjId, bound: f64) -> Self {
        Posting { object, bound }
    }
}

/// A posting with both spatial and textual threshold bounds — the hybrid
/// lists of Section 5.1 ("we augment both spatial and textual threshold
/// bounds for each object o in each inverted list").
///
/// The object can be pruned if *either* `c_T > textual_bound` or
/// `c_R > spatial_bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualPosting {
    /// The object this posting refers to.
    pub object: ObjId,
    /// Spatial threshold bound `c^R_h(o)`.
    pub spatial_bound: f64,
    /// Textual threshold bound `c^T_h(o)`.
    pub textual_bound: f64,
}

impl DualPosting {
    /// Convenience constructor.
    #[inline]
    pub fn new(object: ObjId, spatial_bound: f64, textual_bound: f64) -> Self {
        DualPosting {
            object,
            spatial_bound,
            textual_bound,
        }
    }

    /// The pruning test of Section 5.1: survives iff both bounds meet
    /// their thresholds.
    #[inline]
    pub fn qualifies(&self, c_spatial: f64, c_textual: f64) -> bool {
        self.spatial_bound >= c_spatial && self.textual_bound >= c_textual
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posting_construction() {
        let p = Posting::new(7, 900.0);
        assert_eq!(p.object, 7);
        assert_eq!(p.bound, 900.0);
    }

    #[test]
    fn dual_posting_qualification() {
        // Figure 9's list for (t1, g14): o1 with bounds 900/1.7.
        let p = DualPosting::new(0, 900.0, 1.7);
        assert!(p.qualifies(600.0, 0.57));
        assert!(!p.qualifies(901.0, 0.57), "spatial bound fails");
        assert!(!p.qualifies(600.0, 1.8), "textual bound fails");
        assert!(p.qualifies(900.0, 1.7), "bounds are inclusive");
    }
}
