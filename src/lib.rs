//! # seal — facade over the SEAL workspace
//!
//! A Rust reproduction of *SEAL: Spatio-Textual Similarity Search*
//! (Fan, Li, Zhou, Chen, Hu — PVLDB 5(9), 2012), grown toward a
//! production-scale serving system. This crate re-exports the
//! workspace's public surface; the implementation lives in the
//! `crates/` members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`](seal_core) | engine, filters, signatures |
//! | [`index`](seal_index) | arena-backed threshold-bounded inverted indexes |
//! | [`geom`](seal_geom) / [`text`](seal_text) | geometry and token primitives |
//! | [`datagen`](seal_datagen) | synthetic datasets + query workloads |
//!
//! ## The batch-serving pattern
//!
//! The query path is **zero-contention**: filters keep no internal
//! locks, and all per-query scratch lives in a caller-owned
//! [`QueryContext`](seal_core::QueryContext). For throughput-oriented
//! serving, reuse one context per worker thread so that a warm query
//! allocates nothing:
//!
//! ```
//! use seal_core::{FilterKind, ObjectStore, Query, QueryContext, SealEngine};
//! use seal_geom::Rect;
//! use std::sync::Arc;
//!
//! let store = ObjectStore::from_labeled(vec![
//!     (Rect::new(0.0, 0.0, 40.0, 40.0).unwrap(), vec!["coffee", "mocha"]),
//!     (Rect::new(10.0, 10.0, 50.0, 50.0).unwrap(), vec!["coffee", "starbucks", "mocha"]),
//!     (Rect::new(80.0, 80.0, 120.0, 120.0).unwrap(), vec!["tea", "ice"]),
//! ]);
//! let engine = SealEngine::build(Arc::new(store), FilterKind::seal_default());
//!
//! // One long-lived context per worker thread (search_batch does this
//! // internally; do the same when driving the engine yourself).
//! let mut ctx = QueryContext::new();
//! let dict = engine.store().dictionary().unwrap();
//! let q = Query::with_token_ids(
//!     Rect::new(5.0, 5.0, 45.0, 45.0).unwrap(),
//!     ["coffee", "mocha"].iter().filter_map(|t| dict.get(t)),
//!     0.3,
//!     0.3,
//! ).unwrap();
//! assert_eq!(engine.search_with_ctx(&q, &mut ctx).answers.len(), 2);
//! ```
//!
//! `SealEngine::search_batch(&queries, threads)` runs the same path
//! over an atomic-counter work-stealing loop — one context per worker,
//! no locks anywhere on the read path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use seal_core;
pub use seal_datagen;
pub use seal_geom;
pub use seal_index;
pub use seal_text;
