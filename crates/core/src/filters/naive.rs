//! The no-op filter: every object is a candidate. Exists so the engine
//! can run pure `Sig-Verify` as a baseline and so tests can price
//! filtering against not filtering.

use crate::filters::{CandidateFilter, QueryContext};
use crate::{ObjectStore, Query, SearchStats};
use std::sync::Arc;

/// Trivial filter returning all object ids.
pub struct NaiveFilter {
    store: Arc<ObjectStore>,
}

impl NaiveFilter {
    /// Wraps a store.
    pub fn new(store: Arc<ObjectStore>) -> Self {
        NaiveFilter { store }
    }
}

impl CandidateFilter for NaiveFilter {
    fn name(&self) -> &'static str {
        "NaiveScan"
    }

    fn candidates_into(&self, _q: &Query, ctx: &mut QueryContext, _stats: &mut SearchStats) {
        ctx.candidates.clear();
        ctx.candidates.extend(self.store.iter().map(|(id, _)| id));
    }

    fn index_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;

    #[test]
    fn returns_everything() {
        let (store, q) = figure1_store();
        let f = NaiveFilter::new(Arc::new(store));
        let mut stats = SearchStats::new();
        assert_eq!(f.candidates(&q, &mut stats).len(), 7);
        assert_eq!(f.index_bytes(), 0);
        assert_eq!(f.name(), "NaiveScan");
    }
}
