//! # seal-core — SEAL: Spatio-Textual Similarity Search
//!
//! A from-scratch Rust reproduction of *SEAL: Spatio-Textual Similarity
//! Search* (Fan, Li, Zhou, Chen, Hu — PVLDB 5(9), 2012,
//! arXiv:1205.6694).
//!
//! Given a collection of **regions-of-interest** — objects `o = (R, T)`
//! pairing an MBR region with a weighted token set — and a query
//! `q = (R, T, τ_R, τ_T)`, SEAL returns every object with spatial
//! Jaccard similarity `≥ τ_R` *and* weighted textual Jaccard similarity
//! `≥ τ_T`, using a filter-and-verification framework over
//! threshold-bounded signature indexes.
//!
//! ## Quick start
//!
//! ```
//! use seal_core::{FilterKind, ObjectStore, Query, SealEngine};
//! use seal_geom::Rect;
//! use std::sync::Arc;
//!
//! // Regions-of-interest with textual tags (a tiny Facebook-Places
//! // style dataset).
//! let store = ObjectStore::from_labeled(vec![
//!     (Rect::new(0.0, 0.0, 40.0, 40.0).unwrap(), vec!["coffee", "mocha"]),
//!     (Rect::new(10.0, 10.0, 50.0, 50.0).unwrap(), vec!["coffee", "starbucks", "mocha"]),
//!     (Rect::new(80.0, 80.0, 120.0, 120.0).unwrap(), vec!["tea", "ice"]),
//! ]);
//! let store = Arc::new(store);
//!
//! // Build the SEAL engine (hierarchical hybrid signatures).
//! let engine = SealEngine::build(store.clone(), FilterKind::Hierarchical {
//!     max_level: 6,
//!     budget: 8,
//! });
//!
//! // Who overlaps my region and shares my interests?
//! let dict = store.dictionary().unwrap();
//! let q = Query::with_token_ids(
//!     Rect::new(5.0, 5.0, 45.0, 45.0).unwrap(),
//!     ["coffee", "mocha"].iter().filter_map(|t| dict.get(t)),
//!     0.3,
//!     0.3,
//! ).unwrap();
//! let result = engine.search(&q);
//! assert_eq!(result.answers.len(), 2);
//! ```
//!
//! ## Crate layout
//!
//! | module | paper section | contents |
//! |--------|---------------|----------|
//! | [`store`] / [`Query`] | §2.1 | data & query model, corpus weights |
//! | [`simfn`] / [`verify`] | §2.1, §3.1 | Definition 3's predicate, `c_R` / `c_T`, `Sig-Verify`, oracle |
//! | [`signatures`] | §3.2, §4.1, §5.1, §5.2 | the four signature schemes |
//! | [`filters`] | §3–§5 | `Sig-Filter+`, `Hybrid-Sig-Filter+` |
//! | [`hss`] | §5.2 | `HSS-Greedy` (Figure 11) |
//! | [`granularity`] | §4.3 | cost model & level selection |
//! | [`engine`] | §3.1 | the `SealSig` facade |
//! | [`live`] | — | generation-swapping online ingest (`LiveEngine`) |
//! | [`query_engine`] | — | the serving-tier engine abstraction |
//! | [`sharded`] | — | partitioned serving (`ShardedEngine`) |
//!
//! The paper's §2.3 baselines (Keyword-first, Spatial-first, IR-tree)
//! are comparison points, not engine filters: they live with the
//! reproduction in `seal-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod filters;
pub mod granularity;
pub mod hss;
pub mod live;
mod object;
pub mod persist;
mod query;
pub mod query_engine;
pub mod sharded;
pub mod signatures;
pub mod simfn;
mod stats;
pub mod store;
pub mod verify;

pub use engine::{FilterKind, GenerationBuild, SealEngine, SearchResult};
pub use filters::{BuildOpts, CandidateFilter, QueryContext};
pub use live::{LiveEngine, RefreshStats};
pub use object::{ObjectId, RoiObject};
pub use query::{Query, QueryError};
pub use query_engine::{EngineStatus, QueryEngine, ShardStatus};
pub use sharded::{ShardPolicy, ShardedEngine};
pub use simfn::SimilarityConfig;
pub use stats::SearchStats;
pub use store::{CorpusArtifacts, ObjectStore, StoreStats};
