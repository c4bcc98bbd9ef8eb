//! The engine/serving boundary: one trait the whole serving tier
//! programs against.
//!
//! PR 7 hard-wired `seal-server`'s batcher and handlers to
//! `Arc<LiveEngine>`, so any new engine shape forced a serving-tier
//! rewrite. [`QueryEngine`] is that boundary made explicit: the
//! batcher, the HTTP handlers and the CLI's `index`/`serve` commands
//! all take `Arc<dyn QueryEngine>`, and
//! both the single-arena [`LiveEngine`] and the partitioned
//! [`ShardedEngine`](crate::ShardedEngine) implement it. Construction
//! sites pick the concrete engine; everything downstream is
//! engine-generic.
//!
//! The trait is deliberately the *serving* surface, not the full
//! engine API: exact threshold search (single and batched), ranked
//! top-k, ingest (`push`/`push_all`), `refresh`, cheap observability
//! scalars, token resolution for wire parsers, and a structured
//! [`EngineStatus`] for `/status` and `/metrics`. Diagnostics that
//! only make sense on one shape (filter internals, delta snapshots)
//! stay on the concrete types.

use crate::live::RefreshStats;
use crate::{LiveEngine, ObjectId, Query, RoiObject, SearchResult};
use seal_geom::Rect;
use seal_text::{TokenId, TokenSet};

/// One shard's observability row (a [`LiveEngine`]'s generation,
/// staged-delta size and answerable object count). `/status` and
/// `/metrics` emit one row per shard so operators can see an uneven
/// partition at a glance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// The shard's served generation.
    pub generation: u64,
    /// Objects staged in the shard since its last refresh.
    pub staged: usize,
    /// Objects answerable from the shard right now (frozen + staged).
    pub objects: usize,
}

/// A point-in-time status snapshot of an engine, shape-agnostic.
#[derive(Debug, Clone)]
pub struct EngineStatus {
    /// The active filter's display name (per shard, all shards share
    /// one filter kind).
    pub filter: String,
    /// Index bytes across the whole engine (summed over shards).
    pub index_bytes: usize,
    /// Per-shard detail — empty for a single-arena engine, one row per
    /// shard for a sharded one.
    pub shards: Vec<ShardStatus>,
}

/// The serving-tier engine abstraction. Object-safe (`Arc<dyn
/// QueryEngine>` is the currency of the server and CLI) and
/// `Send + Sync` so one engine serves every connection thread.
pub trait QueryEngine: Send + Sync {
    /// Answers one exact threshold query (current generation plus any
    /// staged delta).
    fn search(&self, q: &Query) -> SearchResult;

    /// Answers a batch in parallel; results come back in input order.
    /// `threads` follows the workspace convention (0 = one worker per
    /// core).
    fn search_batch(&self, queries: &[Query], threads: usize) -> Vec<SearchResult>;

    /// Ranked top-k by iterative threshold deepening (see
    /// [`crate::SealEngine::search_top_k`] for the semantics every
    /// implementation reproduces).
    fn search_top_k(
        &self,
        region: Rect,
        tokens: TokenSet,
        k: usize,
        alpha: f64,
    ) -> Vec<(ObjectId, f64)>;

    /// Stages one object; returns the id it will keep forever.
    fn push(&self, object: RoiObject) -> ObjectId;

    /// Stages a batch; returns the first staged id (ids consecutive),
    /// `None` for an empty batch.
    fn push_all(&self, objects: Vec<RoiObject>) -> Option<ObjectId>;

    /// Folds the staged delta into the next generation(s).
    fn refresh(&self) -> RefreshStats;

    /// The generation (single engine) or weight epoch (sharded) being
    /// served.
    fn generation(&self) -> u64;

    /// Objects staged since the last refresh (summed over shards).
    fn staged_len(&self) -> usize;

    /// Objects answerable right now.
    fn len(&self) -> usize;

    /// True when nothing is answerable.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolves a token string through the engine's dictionary, when
    /// it has one (the wire parsers fall back to numeric ids).
    fn resolve_token(&self, token: &str) -> Option<TokenId>;

    /// A structured status snapshot for `/status` and `/metrics`.
    fn status(&self) -> EngineStatus;
}

impl QueryEngine for LiveEngine {
    fn search(&self, q: &Query) -> SearchResult {
        LiveEngine::search(self, q)
    }

    fn search_batch(&self, queries: &[Query], threads: usize) -> Vec<SearchResult> {
        LiveEngine::search_batch(self, queries, threads)
    }

    fn search_top_k(
        &self,
        region: Rect,
        tokens: TokenSet,
        k: usize,
        alpha: f64,
    ) -> Vec<(ObjectId, f64)> {
        LiveEngine::search_top_k(self, region, tokens, k, alpha)
    }

    fn push(&self, object: RoiObject) -> ObjectId {
        LiveEngine::push(self, object)
    }

    fn push_all(&self, objects: Vec<RoiObject>) -> Option<ObjectId> {
        LiveEngine::push_all(self, objects)
    }

    fn refresh(&self) -> RefreshStats {
        LiveEngine::refresh(self)
    }

    fn generation(&self) -> u64 {
        LiveEngine::generation(self)
    }

    fn staged_len(&self) -> usize {
        LiveEngine::staged_len(self)
    }

    fn len(&self) -> usize {
        LiveEngine::len(self)
    }

    fn resolve_token(&self, token: &str) -> Option<TokenId> {
        self.engine()
            .store()
            .dictionary()
            .and_then(|d| d.get(token))
    }

    fn status(&self) -> EngineStatus {
        let engine = self.engine();
        EngineStatus {
            filter: engine.filter_name().to_string(),
            index_bytes: engine.index_bytes(),
            shards: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::figure1_store;
    use crate::FilterKind;
    use std::sync::Arc;

    #[test]
    fn live_engine_serves_through_the_trait_object() {
        let (store, q) = figure1_store();
        let store = Arc::new(store);
        let live = LiveEngine::new(store.clone(), FilterKind::Token);
        let direct = live.search(&q).sorted().answers;
        let engine: Arc<dyn QueryEngine> = Arc::new(live);
        assert_eq!(engine.search(&q).sorted().answers, direct);
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.staged_len(), 0);
        assert_eq!(engine.len(), 7);
        assert!(!engine.is_empty());
        let batch = engine.search_batch(std::slice::from_ref(&q), 1);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].clone().sorted().answers, direct);
        let top = engine.search_top_k(q.region, q.tokens.clone(), 2, 0.5);
        assert!(!top.is_empty());
        let status = engine.status();
        assert_eq!(status.filter, "TokenFilter");
        assert!(status.index_bytes > 0);
        assert!(status.shards.is_empty(), "single engine has no shard rows");
        assert_eq!(engine.resolve_token("anything"), None, "no dictionary");
    }
}
