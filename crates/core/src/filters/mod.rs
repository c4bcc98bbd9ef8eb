//! Candidate filters — the "filter" half of filter-and-verification.
//!
//! Every filter implements [`CandidateFilter`]: given a query, produce a
//! candidate id set that is guaranteed to be a **superset** of the
//! answer set (the signature property of Section 3.1). The engine then
//! verifies candidates with `Sig-Verify`.
//!
//! | filter | paper name | index |
//! |--------|------------|-------|
//! | [`TokenFilter`] | `Sig-Filter+` on textual signatures ("TokenFilter", §6.2) | `TokenInv` |
//! | [`GridFilter`] | `Sig-Filter+` on grid signatures ("GridFilter") | `GridInv` |
//! | [`HybridFilter`] | `Hybrid-Sig-Filter+` (§5.1, "HybridFilter") | `HashInv` |
//! | [`HierarchicalFilter`] | `Hybrid-Sig-Filter+` on HSS signatures (§5.2, "Seal") | `HierarchicalInv` |
//!
//! Storage is a field, not a filter: [`TokenFilter`] and
//! [`HybridFilter`] hold their lists as one `seal_index::Postings`,
//! built in the [`Storage`] form their `build_with_opts` is given (the
//! uncompressed arena, or the compressed arena served in place) and
//! probed through one `qualifying_into` either way.
//!
//! # Concurrency model
//!
//! Filters are **stateless at query time**: every byte of per-query
//! scratch (the query's signatures, dedup stamps, candidate buffers,
//! the posting-probe id scratch) lives in a caller-owned
//! [`QueryContext`], so `&self` probes never contend on a lock. A
//! serving loop keeps one context per worker thread and calls
//! [`CandidateFilter::candidates_into`]; once the buffers have grown
//! to the workload's largest query, a probe of any filter in the table
//! above performs **zero heap allocations**
//! (`tests/probe_allocations.rs` counts them for every
//! [`FilterKind`](crate::FilterKind)). The plain
//! [`CandidateFilter::candidates`] convenience method allocates a
//! fresh context per call — fine for tests and examples, wasteful in a
//! hot loop.
//!
//! # Scratch invariants
//!
//! * **Epoch-stamped dedup.** Candidate-set membership is reset by
//!   bumping a `u32` epoch, not by clearing memory, so starting a
//!   query costs O(1) regardless of store size; a slot is "seen" only
//!   if its stamp equals the current epoch. On epoch wrap (every 2³²−1 queries per context) the stamp
//!   array is zeroed once to keep stale stamps from aliasing.
//! * **Filters clear their outputs at entry.** `candidates_into`
//!   clears `ctx.candidates` (and whatever scratch it uses) before
//!   writing, so contexts may be freely reused across filters, engines
//!   and stores of different sizes — buffers only ever grow.
//! * **The id scratch is per-probe.** A filter holding its lists as
//!   `seal_index::Postings` (Token, HashHybrid — in either
//!   [`Storage`] form) gets every qualifying prefix back as an id
//!   slice and consumes it before the next list probe: compressed
//!   lists are block-decoded into the context's scratch, dual-bound
//!   arena lists are filtered into it, single-bound arena lists are
//!   returned as id-column slices in place. Nothing in the context
//!   outlives the query it served.
//!
//! ```
//! use seal_core::{CandidateFilter, ObjectStore, Query, QueryContext, SearchStats};
//! use seal_core::filters::TokenFilter;
//! use seal_geom::Rect;
//! use std::sync::Arc;
//!
//! let store = Arc::new(ObjectStore::from_labeled(vec![
//!     (Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(), vec!["coffee", "mocha"]),
//!     (Rect::new(5.0, 5.0, 15.0, 15.0).unwrap(), vec!["tea"]),
//! ]));
//! // One filter, one long-lived context per worker thread.
//! let filter = TokenFilter::build(store.clone());
//! let mut ctx = QueryContext::with_capacity(store.len());
//! let mut stats = SearchStats::new();
//! let dict = store.dictionary().unwrap();
//! let q = Query::with_token_ids(
//!     Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(),
//!     dict.get("coffee"),
//!     0.3,
//!     0.3,
//! ).unwrap();
//! filter.candidates_into(&q, &mut ctx, &mut stats);
//! assert_eq!(ctx.candidates().len(), 1); // warm probes now allocate nothing
//! ```

mod grid;
mod hierarchical;
mod hybrid;
mod token;

pub use grid::GridFilter;
pub use hierarchical::HierarchicalFilter;
pub use hybrid::HybridFilter;
pub use seal_index::Storage;
pub use token::TokenFilter;

use crate::{ObjectId, Query, SearchStats};

/// Ids of objects with empty token sets, in store order — exactly the
/// list every build loop accumulates while skipping them. Used by the
/// persistence layer to reconstruct filters without serializing the
/// (derivable) list.
pub(crate) fn empty_token_objects(store: &crate::ObjectStore) -> Vec<ObjectId> {
    store
        .iter()
        .filter(|(_, o)| o.tokens.is_empty())
        .map(|(id, _)| id)
        .collect()
}

/// Build-time options shared by the filter constructors.
///
/// `FilterKind` picks *what* gets built; `BuildOpts` configures *how*.
/// The only knob today is the build-side thread count: per-token
/// `HSS-Greedy` selections and the staged per-group sorts inside
/// `finalize` fan out over a work-stealing pool
/// ([`seal_index::parallel`]). Builds are **deterministic for every
/// thread count** — parallelism changes wall-clock time only, never
/// the selected cells or the arena contents (asserted by the
/// parallel-determinism tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOpts {
    /// Worker threads for build-side fan-outs: `0` = one per core
    /// (`available_parallelism`), `1` = fully sequential (default),
    /// `n` = exactly `n`.
    pub threads: usize,
}

impl Default for BuildOpts {
    fn default() -> Self {
        BuildOpts { threads: 1 }
    }
}

impl BuildOpts {
    /// Options with an explicit thread count (0 = one per core).
    pub fn with_threads(threads: usize) -> Self {
        BuildOpts { threads }
    }

    /// The effective worker count: `0` resolves to
    /// `available_parallelism`, anything else is literal.
    pub fn resolved_threads(&self) -> usize {
        seal_index::parallel::resolve_threads(self.threads)
    }
}

/// The filter interface: produce a candidate superset of the answers.
pub trait CandidateFilter: Send + Sync {
    /// Short display name (matches the paper's method names).
    fn name(&self) -> &'static str;

    /// Generates candidates for a query into `ctx.candidates`
    /// (cleared first), updating `stats` with probe counters and
    /// filter time. All scratch comes from `ctx`; the filter itself is
    /// immutable, so any number of threads may call this concurrently
    /// with their own contexts.
    fn candidates_into(&self, q: &Query, ctx: &mut QueryContext, stats: &mut SearchStats);

    /// Convenience wrapper: generates candidates with a throwaway
    /// [`QueryContext`]. Allocates per call — prefer
    /// [`candidates_into`](Self::candidates_into) with a reused
    /// context in serving loops.
    fn candidates(&self, q: &Query, stats: &mut SearchStats) -> Vec<ObjectId> {
        let mut ctx = QueryContext::new();
        self.candidates_into(q, &mut ctx, stats);
        std::mem::take(&mut ctx.candidates)
    }

    /// Approximate heap bytes of the filter's index structures
    /// (Table 1's index-size rows).
    fn index_bytes(&self) -> usize;

    /// The index sections this filter persists in a `.seal` container,
    /// as `(section kind, codec bytes)` in file order (kinds from
    /// [`crate::persist`]).
    fn persisted_sections(&self) -> Vec<(u16, Vec<u8>)>;

    /// The concrete filter as [`Any`](std::any::Any), for
    /// generation-reusing rebuild paths
    /// (`SealEngine::build_next_generation`) to probe. Defaults to
    /// `None`; only filters with a cross-generation reuse path
    /// ([`HierarchicalFilter`]) return `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Caller-owned per-query scratch: everything a filter needs beyond
/// its immutable indexes.
///
/// Buffers grow to the store size (and the signatures to the longest
/// query seen) on first use and are then reused, so a warm context
/// makes the filter step allocation-free. Contexts are cheap to
/// create empty ([`QueryContext::new`]) and independent of any
/// particular filter or store — one context can serve queries against
/// several engines (buffers size to the largest).
///
/// The intended pattern is **one context per worker thread**:
/// `SealEngine::search_batch` does this internally, and
/// `SealEngine::search_with_ctx` exposes it to callers running their
/// own serving loops.
#[derive(Debug, Default)]
pub struct QueryContext {
    /// Epoch-stamped dedup scratch (candidate set membership).
    pub(crate) dedup: DedupScratch,
    /// The candidate output buffer of the last
    /// [`CandidateFilter::candidates_into`] call.
    pub(crate) candidates: Vec<ObjectId>,
    /// Id scratch for `Postings` probes: compressed arenas
    /// block-unpack a qualifying prefix's object ids here (bounds are
    /// cut in the quantized domain and never materialized), dual-bound
    /// arenas collect the rows passing their second bound. Nothing is
    /// allocated once this has grown to the largest qualifying prefix.
    pub(crate) decode: Vec<seal_index::ObjId>,
    /// The query's textual signature (every prefix-probing filter).
    pub(crate) textual: crate::signatures::textual::TextualSignature,
    /// The query's grid signature (Grid and Hybrid filters).
    pub(crate) grid: crate::signatures::grid::GridSignature,
    /// The query's signature over one prefix token's grids, refilled
    /// per token (Hierarchical filter).
    pub(crate) hier: crate::signatures::hierarchical::HierSignature,
}

impl QueryContext {
    /// An empty context; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context with scratch pre-sized for a store of `n_objects` —
    /// the dedup stamps, 4 B per object (avoids the one-time growth on
    /// the first query).
    pub fn with_capacity(n_objects: usize) -> Self {
        let mut ctx = Self::new();
        ctx.dedup.ensure(n_objects);
        ctx
    }

    /// The candidates produced by the most recent filter call.
    pub fn candidates(&self) -> &[ObjectId] {
        &self.candidates
    }

    /// Current capacity of the compressed-arena id-decode buffer.
    /// Once a context is warm this stops changing — tests use it to
    /// assert the compressed serving path performs no further
    /// allocations.
    pub fn decode_capacity(&self) -> usize {
        self.decode.capacity()
    }
}

/// Epoch-stamped deduplication scratch: merging qualifying postings
/// into a candidate set without allocating a hash set per query and
/// without clearing an array per query.
#[derive(Debug, Default)]
pub(crate) struct DedupScratch {
    stamps: Vec<u32>,
    epoch: u32,
}

impl DedupScratch {
    /// Grows the stamp array to cover object ids `< n` (keeps epochs).
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
    }

    /// Starts a new deduplication round for a store of `n` objects.
    pub(crate) fn begin(&mut self, n: usize) {
        self.ensure(n);
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Returns true the first time an object is seen this round.
    #[inline]
    pub(crate) fn insert(&mut self, object: u32) -> bool {
        let slot = &mut self.stamps[object as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_scratch_rounds() {
        let mut s = DedupScratch::default();
        s.begin(4);
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(3));
        s.begin(4);
        assert!(s.insert(0), "new round forgets the old stamps");
    }

    #[test]
    fn dedup_epoch_wrap() {
        let mut s = DedupScratch {
            epoch: u32::MAX - 1,
            ..Default::default()
        };
        s.begin(2);
        assert!(s.insert(1));
        s.begin(2); // wraps
        assert!(s.insert(1));
        assert!(!s.insert(1));
    }

    #[test]
    fn dedup_grows_across_stores() {
        let mut s = DedupScratch::default();
        s.begin(2);
        assert!(s.insert(1));
        // A bigger store later: ids beyond the old length work.
        s.begin(10);
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }

    #[test]
    fn context_reuse_is_clean() {
        let mut ctx = QueryContext::with_capacity(8);
        ctx.candidates.push(crate::ObjectId(5));
        // Filters clear this at entry; simulate that contract.
        ctx.candidates.clear();
        assert!(ctx.candidates().is_empty());
    }
}
